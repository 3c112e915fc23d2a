package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/data"
	"repro/internal/grace"
	"repro/internal/harness"
	"repro/internal/optim"
	"repro/internal/simnet"
)

// ranks is the world size: one rank per CPU of the 2-vCPU machine the
// benchmark was sized on, both in this process.
const ranks = 2

// repLimit aborts a repetition that hangs; the whole run stops starting
// repetitions after runLimit, so a run ends well inside three minutes.
const (
	repLimit = 60 * time.Second
	runLimit = 100 * time.Second
)

var errWatchdog = errors.New("repetition exceeded its time limit")

// workload is one benchmark configuration. README.md gives the reason for
// each of them.
type workload struct {
	name      string
	bench     string // harness.BenchmarkByName
	method    string
	opts      []grace.Option
	ef        bool
	tcp       bool
	epochs    int // per repetition
	ckptEvery int // 0: only the final checkpoint
	window    int // timed steps per window, see fastSteps
	batch     int // per-rank batch, from the harness benchmark
}

// A repetition trains until held-out accuracy has converged (at least 0.93
// on every seed tried, and its interquartile spread over ten seeds at most
// 2.5%), so accuracy_final is steady across seeds. 20 steps
// make an epoch on each workload. A window is one epoch, or one checkpoint
// period where there are periodic checkpoints, so that every window holds
// exactly one save and ranking windows by time cannot leave saves out.
var workloads = []workload{
	{name: "cnn-qsgd-hub", bench: "cnnsmall", method: "qsgd", opts: []grace.Option{grace.WithLevels(64)},
		epochs: 10, ckptEvery: 25, window: 25},
	{name: "wide-topk-tcp", bench: "mlpwide", method: "topk", opts: []grace.Option{grace.WithRatio(0.01)},
		ef: true, tcp: true, epochs: 6, window: 20},
	{name: "wide-dense-tcp", bench: "mlpwide", method: "none", tcp: true, epochs: 6, window: 20},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			hb, err := harness.BenchmarkByName(w.bench)
			if err != nil {
				return workload{}, err
			}
			w.batch = hb.BatchSize
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// repOut is the outcome of one repetition: set-up, a fixed number of
// lockstep training steps on both ranks, and the final state.
type repOut struct {
	traced             bool
	err                error
	planned, completed int64

	setup     time.Duration
	intervals []float64 // rank 0 OnStep-to-OnStep intervals, ms
	mallocs   uint64    // process heap allocations over the timed steps
	gcPauseNs uint64

	losses       []float64 // rank 0, one per step
	lossFinal    float64   // mean rank-0 loss over the last epoch
	params       [ranks][]uint32
	bytesPerStep float64

	model grace.Model // rank 0's replica
	recs  []*rankRec
	spans []span // rank 0's analyzed spans (traced only)
}

// failedOps counts rank 0's collective calls that returned an error.
func (r *repOut) failedOps() int64 {
	var n int64
	for _, s := range r.recs[0].spans {
		if s.Layer == layerComm && s.Failed {
			n++
		}
	}
	return n
}

func (r *repOut) addTotals(tot *layerTotals) error {
	spans, err := analyze(r.recs, tot)
	r.spans = spans
	return err
}

// group is one repetition's set of collectives.
type group struct {
	connect func(rank int) (comm.Collective, error)
	abort   func(error)
	close   func()
}

func newGroup(tcp bool, seed uint64) (*group, error) {
	if !tcp {
		h := comm.NewHub(ranks)
		return &group{
			connect: func(rank int) (comm.Collective, error) { return h.Worker(rank), nil },
			abort:   func(err error) { h.Abort(err) },
			close:   func() {},
		}, nil
	}
	lns := make([]net.Listener, ranks)
	addrs := make([]string, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var mu sync.Mutex
	rings := make([]*comm.TCPRing, ranks)
	return &group{
		connect: func(rank int) (comm.Collective, error) {
			ring, err := comm.DialTCPRingConfig(comm.RingConfig{
				Rank: rank, Addrs: addrs, SetupTimeout: 20 * time.Second, Seed: seed, Listener: lns[rank]})
			if err != nil {
				return nil, err
			}
			mu.Lock()
			rings[rank] = ring
			mu.Unlock()
			return ring, nil
		},
		abort: func(error) {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rings {
				if r != nil {
					r.Kill()
				}
			}
		},
		close: func() {
			for _, r := range rings {
				if r != nil {
					r.Close()
				}
			}
			for _, l := range lns {
				l.Close()
			}
		},
	}, nil
}

// runRep runs one repetition: set-up, then w.epochs epochs on both ranks in
// lockstep through grace.RunWorker. With traced set, every layer entry point
// is wrapped and recorded; otherwise only the data and model wrappers run,
// stamping the first batch and keeping the loss sequence.
func runRep(w workload, seed uint64, out string, traced bool) *repOut {
	hb, _ := harness.BenchmarkByName(w.bench) // checked by workloadByName
	runtime.GC()

	start := time.Now()
	ds := hb.NewDataset()
	perEpoch := len(data.NewSampler(ds.Len(), ranks, 0, seed).EpochBatches(hb.BatchSize))
	r := &repOut{traced: traced, planned: int64(perEpoch * w.epochs)}
	r.recs = make([]*rankRec, ranks)
	for i := range r.recs {
		r.recs[i] = newRankRec(i, start, traced, int(r.planned))
		if traced {
			r.recs[i].spans = make([]span, 0, 64*r.planned)
		}
	}
	dir, err := os.MkdirTemp(out, "ckpt-")
	if err != nil {
		r.err = err
		return r
	}
	defer os.RemoveAll(dir)
	g, err := newGroup(w.tcp, seed)
	if err != nil {
		r.err = err
		return r
	}
	defer g.close()

	var once sync.Once
	abort := func(err error) { once.Do(func() { g.abort(err) }) }
	watchdog := time.AfterFunc(repLimit, func() { abort(errWatchdog) })
	defer watchdog.Stop()

	cluster := simnet.NewCluster(simnet.TCP10G, ranks)
	models := make([]grace.Model, ranks)
	reports := make([]*grace.Report, ranks)
	errs := make([]error, ranks)
	var mem [2]runtime.MemStats
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rec := r.recs[rank]
			coll, err := g.connect(rank)
			if err != nil {
				errs[rank] = err
				abort(err)
				return
			}
			if traced {
				coll = &tracedColl{Collective: coll, rec: rec}
			}
			d, err := ckpt.OpenDir(dir, rank)
			if err != nil {
				errs[rank] = err
				abort(err)
				return
			}
			save := d.SaveStep
			if traced {
				save = tracedSave(save, rec)
			}
			cfg := grace.Config{
				Workers: ranks, BatchSize: hb.BatchSize, Epochs: w.epochs, Seed: seed,
				NewModel: func(s uint64) grace.Model {
					m := hb.NewModel(s)
					models[rank] = m
					return recModel{m, rec}
				},
				Dataset: recData{ds, rec},
				NewOptimizer: func() optim.Optimizer {
					o := hb.NewOptimizer()
					if traced {
						o = wrapOptimizer(o, rec)
					}
					return o
				},
				NewCompressor: func(rk int) (grace.Compressor, error) {
					opts := append([]grace.Option{grace.WithSeed(seed*1000 + uint64(rk))}, w.opts...)
					c, err := grace.New(w.method, opts...)
					if err != nil || !traced {
						return c, err
					}
					return wrapCompressor(c, rec)
				},
				UseMemory:  w.ef,
				Net:        simnet.TCP10G,
				Checkpoint: &grace.CheckpointConfig{Every: w.ckptEvery, Final: true, Save: save},
				OnStep: func(_ int, step int64) error {
					// Read the allocation counters outside the timed intervals.
					if rank == 0 && step == 1 {
						runtime.ReadMemStats(&mem[0])
					}
					rec.onStep(step)
					if rank == 0 && step == r.planned {
						runtime.ReadMemStats(&mem[1])
					}
					return nil
				},
			}
			rep, err := grace.RunWorker(cfg, rank, coll, cluster)
			if err != nil {
				errs[rank] = err
				abort(err)
				return
			}
			reports[rank] = rep
		}(rank)
	}
	wg.Wait()

	r.completed = r.recs[0].done.Load()
	if err := errors.Join(errs...); err != nil {
		r.err = err
		return r
	}
	if r.completed != r.planned {
		r.err = fmt.Errorf("rank 0 completed %d of %d steps", r.completed, r.planned)
		return r
	}
	for _, rec := range r.recs {
		r.setup = max(r.setup, time.Duration(rec.firstBatch))
	}
	ends := r.recs[0].stepEnds
	r.intervals = make([]float64, 0, len(ends)-1)
	for i := 1; i < len(ends); i++ {
		r.intervals = append(r.intervals, float64(ends[i]-ends[i-1])/1e6)
	}
	r.mallocs = mem[1].Mallocs - mem[0].Mallocs
	r.gcPauseNs = mem[1].PauseTotalNs - mem[0].PauseTotalNs
	r.losses = r.recs[0].losses
	last := r.losses[len(r.losses)-perEpoch:]
	for _, l := range last {
		r.lossFinal += l
	}
	r.lossFinal /= float64(len(last))
	for rank, m := range models {
		for _, p := range m.Params() {
			for _, v := range p.Value.Data() {
				r.params[rank] = append(r.params[rank], math.Float32bits(v))
			}
		}
	}
	r.bytesPerStep = reports[0].BytesPerIter
	r.model = models[0]
	return r
}
