package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/grace"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Layer names, after the repository's modules.
const (
	layerStep     = "step"
	layerBatch    = "data.batch"
	layerFwdBwd   = "models.fwdbwd"
	layerExchange = "grace.exchange"
	layerOptim    = "optim.step"
	layerCkpt     = "ckpt.save"
	layerEncode   = "compress.encode"
	layerDecode   = "compress.decode"
	layerComm     = "comm"
)

// span is one timed call at a layer boundary. Times are nanoseconds since the
// repetition started; Step is the optimizer step the call belongs to and is
// the id that ties a step's spans together on every rank.
type span struct {
	Layer  string `json:"layer"`
	Op     string `json:"op,omitempty"`
	Rank   int    `json:"rank"`
	Step   int64  `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Self   int64  `json:"self_ns"`
	Seq    int64  `json:"seq,omitempty"`
	Sent   int    `json:"sent_bytes,omitempty"`
	Recv   int    `json:"recv_bytes,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	// Codec spans run on the Engine's codec lanes, concurrently with the
	// rank's driver goroutine, so they do not reduce their parent's self time.
	Codec bool `json:"codec,omitempty"`
}

// rankRec is one rank's recorder. Untraced runs use only the step clock, the
// first-batch stamp and the loss sequence; traced runs also keep spans.
type rankRec struct {
	rank   int
	base   time.Time
	traced bool

	done       atomic.Int64 // optimizer steps completed
	firstBatch int64        // start of the first Dataset.Batch call, -1 before it
	stepEnds   []int64      // OnStep times, index step-1
	losses     []float64    // ForwardBackward loss per step

	opSeq atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRankRec(rank int, base time.Time, traced bool, steps int) *rankRec {
	return &rankRec{rank: rank, base: base, traced: traced, firstBatch: -1,
		stepEnds: make([]int64, 0, steps), losses: make([]float64, 0, steps)}
}

func (r *rankRec) now() int64 { return int64(time.Since(r.base)) }

func (r *rankRec) add(s span) {
	s.Rank = r.rank
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// onStep is the trainer's OnStep hook body: it closes the step interval.
func (r *rankRec) onStep(step int64) {
	r.stepEnds = append(r.stepEnds, r.now())
	r.done.Store(step)
}

// cur is the step currently in flight.
func (r *rankRec) cur() int64 { return r.done.Load() + 1 }

// recData wraps data.Dataset.
type recData struct {
	data.Dataset
	rec *rankRec
}

func (d recData) Batch(indices []int) data.Batch {
	t0 := d.rec.now()
	if d.rec.firstBatch < 0 {
		d.rec.firstBatch = t0
	}
	b := d.Dataset.Batch(indices)
	if d.rec.traced {
		d.rec.add(span{Layer: layerBatch, Step: d.rec.cur(), Start: t0, End: d.rec.now()})
	}
	return b
}

// recModel wraps grace.Model and keeps the loss sequence the trainer discards.
type recModel struct {
	grace.Model
	rec *rankRec
}

func (m recModel) ForwardBackward(b data.Batch) float64 {
	t0 := m.rec.now()
	loss := m.Model.ForwardBackward(b)
	if m.rec.traced {
		m.rec.add(span{Layer: layerFwdBwd, Step: m.rec.cur(), Start: t0, End: m.rec.now()})
	}
	m.rec.losses = append(m.rec.losses, loss)
	return loss
}

// tracedOpt wraps optim.Optimizer.
type tracedOpt struct {
	optim.Optimizer
	rec *rankRec
}

func (o *tracedOpt) Step(params []*nn.Param, grads []*tensor.Dense) {
	t0 := o.rec.now()
	o.Optimizer.Step(params, grads)
	o.rec.add(span{Layer: layerOptim, Step: o.rec.cur(), Start: t0, End: o.rec.now()})
}

// statefulOpt forwards optim.Stateful so checkpoints still carry the
// optimizer slots.
type statefulOpt struct {
	*tracedOpt
	st optim.Stateful
}

func (o statefulOpt) State(params []*nn.Param) optim.State { return o.st.State(params) }
func (o statefulOpt) LoadState(params []*nn.Param, st optim.State) error {
	return o.st.LoadState(params, st)
}

func wrapOptimizer(o optim.Optimizer, rec *rankRec) optim.Optimizer {
	t := &tracedOpt{Optimizer: o, rec: rec}
	if st, ok := o.(optim.Stateful); ok {
		return statefulOpt{t, st}
	}
	return t
}

// tracedComp wraps grace.Compressor. The optional capabilities are added by
// wrapCompressor exactly when the wrapped compressor has them.
type tracedComp struct {
	inner grace.Compressor
	rec   *rankRec
}

func (c *tracedComp) Name() string             { return c.inner.Name() }
func (c *tracedComp) Strategy() grace.Strategy { return c.inner.Strategy() }

func (c *tracedComp) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	s := span{Layer: layerEncode, Op: info.Name, Step: c.rec.cur(), Start: c.rec.now(), Codec: true}
	p, err := c.inner.Compress(g, info)
	s.End, s.Failed = c.rec.now(), err != nil
	c.rec.add(s)
	return p, err
}

func (c *tracedComp) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	s := span{Layer: layerDecode, Op: info.Name, Step: c.rec.cur(), Start: c.rec.now(), Codec: true}
	g, err := c.inner.Decompress(p, info)
	s.End, s.Failed = c.rec.now(), err != nil
	c.rec.add(s)
	return g, err
}

type compInto struct{ c *tracedComp }

func (w compInto) DecompressInto(p *grace.Payload, info grace.TensorInfo, dst []float32) error {
	c := w.c
	s := span{Layer: layerDecode, Op: info.Name, Step: c.rec.cur(), Start: c.rec.now(), Codec: true}
	err := c.inner.(grace.DecompressorInto).DecompressInto(p, info, dst)
	s.End, s.Failed = c.rec.now(), err != nil
	c.rec.add(s)
	return err
}

type compAgg struct{ c *tracedComp }

func (w compAgg) Aggregate(decoded [][]float32, info grace.TensorInfo) []float32 {
	return w.c.inner.(grace.Aggregator).Aggregate(decoded, info)
}

type compState struct{ c *tracedComp }

func (w compState) CodecState() grace.CodecState { return w.c.inner.(grace.Stateful).CodecState() }
func (w compState) LoadCodecState(st grace.CodecState) error {
	return w.c.inner.(grace.Stateful).LoadCodecState(st)
}

// wrapCompressor returns a traced compressor with the same method set as c,
// so grace.Capabilities and the checkpoint's Stateful probe see what they
// would see without tracing.
func wrapCompressor(c grace.Compressor, rec *rankRec) (grace.Compressor, error) {
	if _, ok := c.(grace.CustomComm); ok {
		return nil, fmt.Errorf("tracing a Custom-strategy compressor (%s) is not supported", c.Name())
	}
	b := &tracedComp{inner: c, rec: rec}
	i, a, s := compInto{b}, compAgg{b}, compState{b}
	_, into := c.(grace.DecompressorInto)
	_, agg := c.(grace.Aggregator)
	_, st := c.(grace.Stateful)
	var w grace.Compressor
	switch {
	case into && agg && st:
		w = struct {
			*tracedComp
			compInto
			compAgg
			compState
		}{b, i, a, s}
	case into && agg:
		w = struct {
			*tracedComp
			compInto
			compAgg
		}{b, i, a}
	case into && st:
		w = struct {
			*tracedComp
			compInto
			compState
		}{b, i, s}
	case agg && st:
		w = struct {
			*tracedComp
			compAgg
			compState
		}{b, a, s}
	case into:
		w = struct {
			*tracedComp
			compInto
		}{b, i}
	case agg:
		w = struct {
			*tracedComp
			compAgg
		}{b, a}
	case st:
		w = struct {
			*tracedComp
			compState
		}{b, s}
	default:
		w = b
	}
	if capsShape(w) != capsShape(c) {
		return nil, fmt.Errorf("traced %s changes the capability set: %s != %s", c.Name(), capsShape(w), capsShape(c))
	}
	return w, nil
}

func capsShape(c grace.Compressor) string {
	caps := grace.Capabilities(c)
	_, st := c.(grace.Stateful)
	return fmt.Sprintf("strategy=%v agg=%t custom=%t into=%t stateful=%t",
		caps.Strategy, caps.Aggregator != nil, caps.Custom != nil, caps.Into != nil, st)
}

// tracedColl wraps comm.Collective. Unwrap lets comm.As* probes reach the
// transport underneath.
type tracedColl struct {
	comm.Collective
	rec *rankRec
}

func (c *tracedColl) Unwrap() comm.Collective { return c.Collective }

func (c *tracedColl) begin(op string) span {
	return span{Layer: layerComm, Op: op, Step: c.rec.cur(), Seq: c.rec.opSeq.Add(1), Start: c.rec.now()}
}

func (c *tracedColl) end(s span, sent, recv int, err error) {
	s.End, s.Sent = c.rec.now(), sent
	if err != nil {
		s.Failed = true
	} else {
		s.Recv = recv
	}
	c.rec.add(s)
}

func (c *tracedColl) gatherRecv(all [][]byte) int {
	n := 0
	for i, p := range all {
		if i != c.Rank() {
			n += len(p)
		}
	}
	return n
}

func (c *tracedColl) AllreduceF32(x []float32) error {
	s := c.begin("allreduce")
	err := c.Collective.AllreduceF32(x)
	c.end(s, len(x)*4, len(x)*4, err)
	return err
}

func (c *tracedColl) AllgatherBytes(b []byte) ([][]byte, error) {
	s := c.begin("allgather")
	all, err := c.Collective.AllgatherBytes(b)
	c.end(s, len(b), c.gatherRecv(all), err)
	return all, err
}

func (c *tracedColl) bcastBytes(b, out []byte, root int) (sent, recv int) {
	if c.Rank() == root {
		return len(b), 0
	}
	return 0, len(out)
}

func (c *tracedColl) BroadcastBytes(b []byte, root int) ([]byte, error) {
	s := c.begin("broadcast")
	out, err := c.Collective.BroadcastBytes(b, root)
	sent, recv := c.bcastBytes(b, out, root)
	c.end(s, sent, recv, err)
	return out, err
}

func (c *tracedColl) Barrier() error {
	s := c.begin("barrier")
	err := c.Collective.Barrier()
	c.end(s, 0, 0, err)
	return err
}

// tracedSave wraps CheckpointConfig.Save.
func tracedSave(save func(*grace.Snapshot) error, rec *rankRec) func(*grace.Snapshot) error {
	return func(s *grace.Snapshot) error {
		sp := span{Layer: layerCkpt, Step: rec.cur(), Start: rec.now()}
		err := save(s)
		sp.End, sp.Failed = rec.now(), err != nil
		rec.add(sp)
		return err
	}
}

// layerTotals sums rank 0's layer spans over the timed steps (every step but
// the first of a repetition, as for the untraced step metrics).
type layerTotals struct {
	steps                                 int64
	stepNs, batchNs, fwdNs, optNs, ckptNs int64
	exchNs, exchSelfNs                    int64
	encNs, decNs, codecCalls              int64
	ops, sent, recv                       int64
	busyNs, waitNs, xferNs                int64
	saves                                 int64
	saveNs                                []int64
}

// analyze finishes one traced repetition: it adds the step and exchange
// spans, assigns parents, computes self times, splits rank 0's collective
// time into waiting for the last rank and transfer after it arrived, and
// adds rank 0's timed steps into tot. It returns rank 0's spans and an error
// when the ranks' collective sequences disagree.
func analyze(recs []*rankRec, tot *layerTotals) ([]span, error) {
	r0 := recs[0]
	spans := r0.spans

	// Cross-rank comm split. Every rank issues the identical op sequence, so
	// the k-th op of each rank is the same collective; all ranks share this
	// process's clock, so their entry times compare directly.
	lastEntry := map[int64]int64{}
	opName := map[int64]string{}
	for _, r := range recs {
		for _, s := range r.spans {
			if s.Layer != layerComm {
				continue
			}
			if name, ok := opName[s.Seq]; ok && name != s.Op {
				return nil, fmt.Errorf("collective %d is %s on one rank and %s on rank %d", s.Seq, name, s.Op, r.rank)
			}
			opName[s.Seq] = s.Op
			if s.Start > lastEntry[s.Seq] {
				lastEntry[s.Seq] = s.Start
			}
		}
	}
	for _, r := range recs[1:] {
		if a, b := r0.opSeq.Load(), r.opSeq.Load(); a != b {
			return nil, fmt.Errorf("rank 0 issued %d collectives, rank %d issued %d", a, r.rank, b)
		}
	}

	// Step spans close at OnStep; the first opens at the first batch.
	n := int64(len(r0.stepEnds))
	stepIdx := make([]int, n+1)
	for s := int64(1); s <= n; s++ {
		lo := r0.firstBatch
		if s > 1 {
			lo = r0.stepEnds[s-2]
		}
		stepIdx[s] = len(spans)
		spans = append(spans, span{Layer: layerStep, Step: s, Start: lo, End: r0.stepEnds[s-1], Parent: -1})
	}
	// The exchange runs from ForwardBackward's return to Optimizer.Step's entry.
	fwdEnd := make([]int64, n+1)
	optStart := make([]int64, n+1)
	for _, s := range spans {
		if s.Step < 1 || s.Step > n {
			continue
		}
		switch s.Layer {
		case layerFwdBwd:
			fwdEnd[s.Step] = s.End
		case layerOptim:
			optStart[s.Step] = s.Start
		}
	}
	exchIdx := make([]int, n+1)
	for s := int64(1); s <= n; s++ {
		exchIdx[s] = -1
		if fwdEnd[s] > 0 && optStart[s] >= fwdEnd[s] {
			exchIdx[s] = len(spans)
			spans = append(spans, span{Layer: layerExchange, Step: s, Start: fwdEnd[s], End: optStart[s], Parent: stepIdx[s]})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Rank = 0
		if s.Layer == layerStep || s.Layer == layerExchange {
			continue
		}
		s.Parent = -1
		if s.Step < 1 || s.Step > n {
			continue // after the last step, e.g. the final checkpoint
		}
		s.Parent = stepIdx[s.Step]
		if (s.Layer == layerComm || s.Codec) && exchIdx[s.Step] >= 0 {
			s.Parent = exchIdx[s.Step]
		}
	}
	selfTimes(spans)

	for i := range spans {
		s := &spans[i]
		d := s.End - s.Start
		if s.Layer == layerCkpt {
			tot.saveNs = append(tot.saveNs, d)
		}
		if s.Step < 2 || s.Step > n {
			continue
		}
		switch s.Layer {
		case layerStep:
			tot.steps++
			tot.stepNs += d
		case layerBatch:
			tot.batchNs += d
		case layerFwdBwd:
			tot.fwdNs += d
		case layerOptim:
			tot.optNs += d
		case layerCkpt:
			tot.ckptNs += d
			tot.saves++
		case layerExchange:
			tot.exchNs += d
			tot.exchSelfNs += s.Self
		case layerEncode:
			tot.encNs += d
			tot.codecCalls++
		case layerDecode:
			tot.decNs += d
			tot.codecCalls++
		case layerComm:
			tot.ops++
			tot.sent += int64(s.Sent)
			tot.recv += int64(s.Recv)
			tot.busyNs += d
			wait := max(lastEntry[s.Seq]-s.Start, 0)
			tot.waitNs += wait
			tot.xferNs += d - min(wait, d)
		}
	}
	return spans, nil
}

// selfTimes sets each span's self time: its duration minus the part of it
// covered by children on the same goroutine (codec-lane spans run beside
// their parent, not inside it).
func selfTimes(spans []span) {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 && !s.Codec {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		covered, reach := int64(0), p.Start
		for _, c := range ch {
			lo, hi := max(spans[c].Start, reach), min(spans[c].End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		p.Self = p.End - p.Start - covered
	}
}
