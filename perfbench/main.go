// Command perfbench is the repository benchmark: real two-rank distributed
// training through grace.RunWorker, timed by wall clock around the trainer's
// OnStep hook. README.md in this directory records why each workload exists
// and what each per-layer metric is expected to move.
//
//	bash perfbench/run.sh --workload wide-topk-tcp --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics, writing the last traced repetition's spans under
// .bench_build/.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/harness"
)

// minTimedSteps keeps at least ten step samples beyond p90.
const minTimedSteps = 100

// fastShare is the share of a run's windows whose steps set its time
// metrics. The machine's CPUs are shared with other tenants, whose bursts
// stall whole windows of steps; the faster half keeps those stalls out of
// the figures as long as they cover less than half of the run, while a
// change that slows every step slows these windows as much as any other.
// A smaller share tracks the machine's fastest moments and spreads more
// between runs.
const fastShare = 0.5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: cnn-qsgd-hub, wide-topk-tcp or wide-dense-tcp")
	seed := flag.Uint64("seed", 1, "workload seed (model init, data order, compressor RNGs)")
	seconds := flag.Int("seconds", 20, "wall seconds to measure")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be positive, got %d", *seconds))
	}
	// Two ranks share this process; never give them more processors than
	// the machine has, nor more than one each.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	out := ".bench_build"
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{w: w, seed: *seed, out: out}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		if res, err = b.traced(budget); err != nil {
			fatal(err)
		}
	} else {
		res = b.untraced(budget)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench runs repetitions of one workload at one seed. Every repetition
// trains the same model from the same seed, so every repetition must end in
// the same losses and parameters as the first.
type bench struct {
	w    workload
	seed uint64
	out  string

	attempted, failed int64
	checks            []string // failed correctness checks
	failedOps         int64    // rank-0 collective errors in traced repetitions

	ref      *repOut // first completed repetition
	accuracy float64
}

// run executes one repetition and folds its outcome into the failure
// counts. A repetition that errs fails every step it did not complete; one
// whose outputs disagree with the checks fails all of its steps.
func (b *bench) run(traced bool) *repOut {
	r := runRep(b.w, b.seed, b.out, traced)
	b.attempted += r.planned
	b.failedOps += r.failedOps()
	if r.err != nil {
		b.fail(max(r.planned-r.completed, 1), fmt.Sprintf("repetition error: %v", r.err))
		return nil
	}
	msg := b.check(r)
	// Keep only what later checks and metrics read.
	r.model, r.params[1] = nil, nil
	if msg != "" {
		b.fail(r.planned, msg)
		return nil
	}
	return r
}

func (b *bench) fail(steps int64, msg string) {
	b.failed += steps
	b.checks = append(b.checks, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
}

func (b *bench) check(r *repOut) string {
	if !slices.Equal(r.params[0], r.params[1]) {
		return "rank 0 and rank 1 final parameters differ"
	}
	if math.IsNaN(r.lossFinal) || math.IsInf(r.lossFinal, 0) {
		return fmt.Sprintf("final loss %v is not finite", r.lossFinal)
	}
	if b.ref == nil {
		hb, _ := harness.BenchmarkByName(b.w.bench) // checked by workloadByName
		b.ref = r
		b.accuracy = hb.NewEval()(r.model)
		return ""
	}
	if !slices.Equal(bitsOf(r.losses), bitsOf(b.ref.losses)) {
		return fmt.Sprintf("loss sequence differs from the first repetition (traced=%t)", r.traced)
	}
	if !slices.Equal(r.params[0], b.ref.params[0]) {
		return fmt.Sprintf("final parameters differ from the first repetition (traced=%t)", r.traced)
	}
	return ""
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// loop runs repetitions until the next one would end past the budget and
// at least minReps repetitions ran and the faster windows hold
// minTimedSteps steps, or until runLimit. traced picks whether repetition i
// is traced.
func (b *bench) loop(budget time.Duration, minReps int, traced func(i int) bool, keep func(*repOut)) {
	start := time.Now()
	windows := 0
	var longest time.Duration
	for i := 0; ; i++ {
		el := time.Since(start)
		enough := i >= minReps && fastWindows(windows)*b.w.window >= minTimedSteps
		if el >= runLimit || (enough && el+longest > budget) {
			return
		}
		t0 := time.Now()
		r := b.run(traced(i))
		longest = max(longest, time.Since(t0))
		if r == nil {
			if b.ref == nil {
				return // nothing to compare later repetitions against
			}
			continue
		}
		windows += len(r.intervals) / b.w.window
		keep(r)
	}
}

func fastWindows(n int) int { return int(math.Ceil(fastShare * float64(n))) }

// fastSteps cuts each repetition's timed steps into windows of w.window
// consecutive steps, dropping a partial last window, and returns the steps
// of the fastest fastShare of all windows by elapsed time.
func (b *bench) fastSteps(reps [][]float64) []float64 {
	type win struct {
		steps []float64
		ms    float64
	}
	var wins []win
	for _, iv := range reps {
		for i := 0; i+b.w.window <= len(iv); i += b.w.window {
			w := win{steps: iv[i : i+b.w.window]}
			for _, d := range w.steps {
				w.ms += d
			}
			wins = append(wins, w)
		}
	}
	slices.SortStableFunc(wins, func(x, y win) int { return cmp.Compare(x.ms, y.ms) })
	var out []float64
	for _, w := range wins[:fastWindows(len(wins))] {
		out = append(out, w.steps...)
	}
	return out
}

// samplesPerS is the training throughput over the given steps, both ranks.
func (b *bench) samplesPerS(steps []float64) float64 {
	sum := 0.0
	for _, d := range steps {
		sum += d
	}
	return float64(len(steps)*b.w.batch*ranks) / (sum / 1e3)
}

// result is the run's output line. Every failed step and check makes the
// run incorrect.
func (b *bench) result(metrics map[string]metric) result {
	attempted := max(b.attempted, 1)
	return result{Correct: len(b.checks) == 0 && b.ref != nil, Attempted: attempted, Failed: b.failed, Metrics: metrics}
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(budget time.Duration) result {
	var reps [][]float64
	var setups []float64
	var mallocs, timed int64
	b.loop(budget, 3, func(int) bool { return false },
		func(r *repOut) {
			reps = append(reps, r.intervals)
			setups = append(setups, r.setup.Seconds())
			mallocs += int64(r.mallocs)
			timed += int64(len(r.intervals))
			r.recs = nil
		})
	m := map[string]metric{}
	if len(reps) > 0 {
		fast := b.fastSteps(reps)
		m["samples_per_s"] = metric{b.samplesPerS(fast), "1/s"}
		m["step_ms_p50"] = metric{quantile(fast, 0.5), "ms"}
		m["step_ms_p90"] = metric{quantile(fast, 0.9), "ms"}
		m["setup_s"] = metric{quantile(setups, 0.5), "s"}
		m["wire_bytes_per_step"] = metric{b.ref.bytesPerStep, "B"}
		m["allocs_per_step"] = metric{float64(mallocs) / float64(timed), "count"}
		m["rss_peak_mb"] = metric{peakRSSMB(), "MB"}
		m["accuracy_final"] = metric{b.accuracy, "ratio"}
		fmt.Printf("%s seed=%d: %d repetitions, %d timed steps, %d in the faster windows, all-step p50 %.3f ms, loss_final=%g, failed_ratio=%g\n",
			b.w.name, b.seed, len(reps), timed, len(fast), quantile(slices.Concat(reps...), 0.5),
			b.ref.lossFinal, float64(b.failed)/float64(max(b.attempted, 1)))
	}
	return b.result(m)
}

// traced alternates untraced and traced repetitions of the same seed, so the
// tracing overhead compares runs made under the same machine conditions and
// the check against the first (untraced) repetition proves the wrappers
// change no loss and no parameter bit.
func (b *bench) traced(budget time.Duration) (result, error) {
	var plain, traced [][]float64
	var tot layerTotals
	var gcNs uint64
	var last *repOut
	b.loop(budget, 2, func(i int) bool { return i%2 == 1 }, func(r *repOut) {
		if !r.traced {
			plain = append(plain, r.intervals)
			return
		}
		traced = append(traced, r.intervals)
		err := r.addTotals(&tot)
		r.recs = nil
		if err != nil {
			b.fail(r.planned, err.Error())
			return
		}
		gcNs += r.gcPauseNs
		if last != nil {
			last.spans = nil
		}
		last = r
	})
	m := map[string]metric{}
	if last == nil || tot.steps == 0 {
		return b.result(m), nil
	}
	steps := float64(tot.steps)
	per := func(ns int64) float64 { return float64(ns) / steps / 1e6 }
	m["data.batch_ms"] = metric{per(tot.batchNs), "ms"}
	m["models.fwdbwd_ms"] = metric{per(tot.fwdNs), "ms"}
	m["grace.exchange_ms"] = metric{per(tot.exchNs), "ms"}
	m["grace.exchange_self_ms"] = metric{per(tot.exchSelfNs), "ms"}
	m["compress.encode_ms"] = metric{per(tot.encNs), "ms"}
	m["compress.decode_ms"] = metric{per(tot.decNs), "ms"}
	m["compress.calls"] = metric{float64(tot.codecCalls) / steps, "count"}
	m["comm.ops"] = metric{float64(tot.ops) / steps, "count"}
	m["comm.sent_bytes"] = metric{float64(tot.sent) / steps, "B"}
	m["comm.recv_bytes"] = metric{float64(tot.recv) / steps, "B"}
	m["comm.busy_ms"] = metric{per(tot.busyNs), "ms"}
	m["comm.wait_ms"] = metric{per(tot.waitNs), "ms"}
	m["comm.xfer_ms"] = metric{per(tot.xferNs), "ms"}
	m["comm.failed_ops"] = metric{float64(b.failedOps), "count"}
	m["optim.step_ms"] = metric{per(tot.optNs), "ms"}
	m["ckpt.save_ms_p50"] = metric{quantile(nsToMs(tot.saveNs), 0.5), "ms"}
	m["ckpt.saves"] = metric{float64(tot.saves) / steps, "count"}
	m["go.gc_pause_ms"] = metric{float64(gcNs) / steps / 1e6, "ms"}
	m["trace.step_ms"] = metric{per(tot.stepNs), "ms"}
	m["models.loss_final"] = metric{b.ref.lossFinal, "loss"}
	covered := tot.batchNs + tot.fwdNs + tot.exchNs + tot.optNs + tot.ckptNs
	m["trace.unattributed_pct"] = metric{100 * float64(tot.stepNs-covered) / float64(tot.stepNs), "%"}
	if len(plain) > 0 {
		p50 := quantile(b.fastSteps(plain), 0.5)
		m["trace.overhead_pct"] = metric{100 * (quantile(b.fastSteps(traced), 0.5) - p50) / p50, "%"}
	}
	printBreakdown(b.w.name, b.seed, m, per(tot.ckptNs))
	if err := writeSpans(filepath.Join(b.out, "perfbench-trace-"+b.w.name+".jsonl"), b, last); err != nil {
		return result{}, err
	}
	return b.result(m), nil
}

// printBreakdown shows each layer's share of the traced mean step.
func printBreakdown(name string, seed uint64, m map[string]metric, ckptMs float64) {
	step := m["trace.step_ms"].Value
	fmt.Printf("%s seed=%d traced step %.3f ms\n", name, seed, step)
	for _, k := range []string{"data.batch_ms", "models.fwdbwd_ms", "grace.exchange_ms", "grace.exchange_self_ms",
		"compress.encode_ms", "compress.decode_ms", "comm.busy_ms", "comm.wait_ms", "comm.xfer_ms",
		"optim.step_ms", "go.gc_pause_ms"} {
		fmt.Printf("  %-24s %9.3f ms  %6.2f%%\n", k, m[k].Value, 100*m[k].Value/step)
	}
	fmt.Printf("  %-24s %9.3f ms  %6.2f%%\n", "ckpt.save (per step)", ckptMs, 100*ckptMs/step)
	fmt.Printf("  trace.unattributed_pct %.2f  trace.overhead_pct %.2f\n",
		m["trace.unattributed_pct"].Value, m["trace.overhead_pct"].Value)
}

// writeSpans writes the last traced repetition's rank-0 spans as JSON lines,
// after one header line naming the run.
func writeSpans(path string, b *bench, r *repOut) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": b.w.name, "seed": b.seed, "spans": len(r.spans)}); err != nil {
		return err
	}
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// quantile is the linear-interpolation quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
