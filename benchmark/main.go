// Command benchmark measures the BayesPerf corrector end to end through
// the public pkg/bayesperf Session API (New, then RunStream), one workload
// per invocation, and prints every metric by name and unit. Its last line
// of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through benchmark/run.sh, which builds it:
//
//	bash benchmark/run.sh --workload agent --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1 is
// a separate traced run that reports the per-layer metrics, timed from
// outside at public boundaries only (a probe Source around the run's
// source, the Report fields, and the WithMetrics registry), and writes its
// spans to a file. README.md in this directory lists the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"bayesperf/internal/graph"
	"bayesperf/pkg/bayesperf"
)

const (
	// setupReps is how many extra times a run builds its session before
	// measuring: set-up is short next to a run, so its median needs more
	// samples than the runs give.
	setupReps = 15
	// minRuns is the fewest measured runs an invocation makes, however
	// short --seconds is.
	minRuns = 3
	// spansDir is where a traced run writes its spans, under the build
	// directory run.sh uses.
	spansDir = ".bench_build/spans"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: agent, decide or evaluate")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 runs traced and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if newWorkload(*name, 1) == nil || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "usage: benchmark --workload agent|decide|evaluate --seed N --seconds S --trace 0|1\n")
		return 2
	}

	b := bench{name: *name, seed: *seed, seconds: *seconds, out: stdout}
	var res *result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "benchmark: %s: metric %s is %v\n", *name, k, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload at a seed, measured for a duration.
type bench struct {
	name    string
	seed    uint64
	seconds float64
	out     io.Writer
}

// runStats is what one measured run yields.
type runStats struct {
	setup     time.Duration
	wall      time.Duration // RunStream, call to return
	evaluate  time.Duration // RunStream wall − Report.Duration
	finish    time.Duration // end of stream → engine done
	gcCPU     time.Duration
	allocKB   float64 // allocated per interval
	rep       *bayesperf.Report
	probe     *probe
	check     outcome
	corrPct   float64
	derivPct  float64
	dispatch  time.Duration // traced: stage_seconds{stage="dispatch"} sum
	infer     time.Duration // traced: stage_seconds{stage="infer"} sum
	batchFill float64       // traced: mean batch_fill_ratio
}

func (s runStats) throughput() float64 { return float64(s.rep.Intervals) / s.wall.Seconds() }

// streamCost is the stream layer's producer-side time: ingest gaps plus the
// end-of-stream drain.
func (s runStats) streamCost() time.Duration { return durSum(s.probe.gaps) + s.finish }

// measureRun sets up and runs the workload once. tr and reg are nil on
// untraced runs; detail records one span per Next call.
func measureRun(w workload, tr *tracer, root int, reg *bayesperf.MetricsRegistry, detail bool) (runStats, error) {
	var st runStats
	// Collect the previous run's garbage first, so set-up is not charged
	// for it.
	runtime.GC()
	sid := tr.start("setup", root)
	t0 := time.Now()
	sess, src, err := w.setup(reg, tr, sid)
	st.setup = time.Since(t0)
	tr.end(sid)
	if err != nil {
		return st, fmt.Errorf("setup: %w", err)
	}
	p := newProbe(src, w.length(), tr, detail)
	var in bayesperf.Source = p
	if sim, ok := src.(*bayesperf.SimSource); ok {
		in = truthProbe{p, sim}
	}

	// Start every run from a collected heap, so set-up's garbage is not
	// charged to the run.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPU()
	rid := tr.start("session.run_stream", root)
	p.parent = rid
	start := time.Now()
	rep, err := sess.RunStream(in)
	st.wall = time.Since(start)
	tr.end(rid)
	if err != nil {
		return st, fmt.Errorf("RunStream: %w", err)
	}
	st.gcCPU = gcCPU() - gc0
	runtime.ReadMemStats(&m1)
	st.rep, st.probe = rep, p
	st.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / float64(rep.Intervals)
	st.evaluate = max(st.wall-rep.Duration, 0)
	engineEnd := start.Add(st.wall - st.evaluate)
	st.finish = max(engineEnd.Sub(p.eos), 0)
	tr.record("stream.finish", rid, p.eos, engineEnd)
	tr.record("timeseries.evaluate", rid, engineEnd, start.Add(st.wall))

	cid := tr.start("check", root)
	st.check = check(rep, sess.Config(), w.length())
	st.corrPct, st.derivPct = accuracy(rep, sess.Catalog(), w.truth())
	tr.end(cid)
	// Keep the report's figures, not its per-interval series: a run's
	// series would otherwise stay live through every later run and inflate
	// the peak RSS.
	rep.Stream = nil

	if reg != nil {
		snap := reg.Snapshot()
		stage := func(name string) time.Duration {
			m := snap.Find("bayesperf_stream_stage_seconds", bayesperf.MetricLabel{Key: "stage", Value: name})
			if m == nil {
				return 0
			}
			return time.Duration(m.Sum * 1e9)
		}
		st.dispatch, st.infer = stage("dispatch"), stage("infer")
		if m := snap.Find("bayesperf_stream_batch_fill_ratio"); m != nil && m.Count > 0 {
			st.batchFill = m.Sum / float64(m.Count)
		}
	}
	return st, nil
}

// untraced measures the end-to-end metrics with tracing off.
func (b bench) untraced() (*result, error) {
	w := newWorkload(b.name, 1)
	if err := w.prepare(b.seed, nil, -1); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, _, err := w.setup(nil, nil, -1); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// One unmeasured run first, so the heap and the caches are warm.
	if _, err := measureRun(w, nil, -1, nil, false); err != nil {
		return nil, err
	}
	var runs []runStats
	start := time.Now()
	for len(runs) < minRuns || time.Since(start).Seconds() < b.seconds {
		st, err := measureRun(w, nil, -1, nil, false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, st)
		setups = append(setups, st.setup.Seconds())
	}

	// Decision latencies are summarised per run and the runs' figures
	// reduced by their median, so a burst of host noise during one run
	// moves one figure, not the pooled tail.
	decideQ := func(q float64) float64 {
		return median(each(runs, func(s runStats) float64 { return quantile(s.probe.decide, q) }))
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	res := tally(runs)
	res.Metrics = map[string]metric{
		"throughput_ivps":       {median(each(runs, runStats.throughput)), "1/s"},
		"decide_p50_us":         {decideQ(0.50), "us"},
		"decide_p99_us":         {decideQ(0.99), "us"},
		"setup_s":               {median(setups), "s"},
		"alloc_kb_per_interval": {median(each(runs, func(s runStats) float64 { return s.allocKB })), "kB"},
		"peak_rss_mb":           {rss, "MB"},
		"post_rel_std_pct":      {median(each(runs, func(s runStats) float64 { return 100 * s.rep.PostRelStd })), "%"},
		"corrected_err_pct":     {median(each(runs, func(s runStats) float64 { return s.corrPct })), "%"},
		"derived_err_pct":       {median(each(runs, func(s runStats) float64 { return s.derivPct })), "%"},
	}
	b.report(res, runs, fmt.Sprintf("%d decision gaps per run, %d set-ups", len(runs[0].probe.decide), len(setups)))
	return res, nil
}

// traced measures the per-layer metrics. Each cycle makes one untraced
// run (the tracing-overhead baseline), one traced run, and one traced run
// at half the stream length (the growth ratios).
func (b bench) traced() (*result, error) {
	tr, htr := newTracer(), newTracer()
	full, half := newWorkload(b.name, 1), newWorkload(b.name, 2)
	pid := tr.start("prepare", -1)
	if err := full.prepare(b.seed, tr, pid); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	tr.end(pid)
	if err := half.prepare(b.seed, nil, -1); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	// The catalog load and the plan compile, each timed from outside.
	lid := tr.start("layers", -1)
	for i := 0; i < setupReps; i++ {
		id := tr.start("uarch.load", lid)
		cat, err := full.load()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		id = tr.start("graph.compile", lid)
		graph.Compile(cat)
		tr.end(id)
	}
	tr.end(lid)
	if _, err := measureRun(full, nil, -1, nil, false); err != nil {
		return nil, err
	}

	var plain, fulls, halves []runStats
	detailed := -1 // the traced run that records one span per Next call
	start := time.Now()
	for cycle := 0; cycle < 2 || time.Since(start).Seconds() < b.seconds; cycle++ {
		// Alternate which of the two full-length runs goes first.
		for k := 0; k < 2; k++ {
			if (k+cycle)%2 == 0 {
				st, err := measureRun(full, nil, -1, nil, false)
				if err != nil {
					return nil, err
				}
				plain = append(plain, st)
				continue
			}
			root := tr.start("run.full", -1)
			if len(fulls) == 0 {
				detailed = root
			}
			st, err := measureRun(full, tr, root, bayesperf.NewMetricsRegistry(), root == detailed)
			tr.end(root)
			if err != nil {
				return nil, err
			}
			fulls = append(fulls, st)
		}
		root := htr.start("run.half", -1)
		st, err := measureRun(half, htr, root, bayesperf.NewMetricsRegistry(), false)
		htr.end(root)
		if err != nil {
			return nil, err
		}
		halves = append(halves, st)
	}

	var gaps []float64
	for _, r := range fulls {
		gaps = append(gaps, r.probe.gaps...)
	}
	med := func(runs []runStats, f func(runStats) float64) float64 { return median(each(runs, f)) }
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	plainThr, tracedThr := median(each(plain, runStats.throughput)), median(each(fulls, runStats.throughput))
	streamFull := med(fulls, func(s runStats) float64 { return ms(s.streamCost()) })
	evalFull := med(fulls, func(s runStats) float64 { return ms(s.evaluate) })

	res := tally(append(append(append([]runStats{}, plain...), fulls...), halves...))
	res.Metrics = map[string]metric{
		"uarch.load_ms":    {median(secondsOf(tr.durations("uarch.load"))) * 1e3, "ms"},
		"graph.compile_us": {median(secondsOf(tr.durations("graph.compile"))) * 1e6, "us"},
		"measure.truth_ms": {median(secondsOf(tr.durations("measure.truth"))) * 1e3, "ms"},
		"measure.sample_ns": {med(fulls, func(s runStats) float64 {
			return float64(s.probe.sampleBusy) / float64(s.probe.n)
		}), "ns"},
		"measure.slot_moves":      {med(fulls, func(s runStats) float64 { return float64(s.rep.SlotMoves) }), "count"},
		"stream.ingest_ns_p50":    {quantile(gaps, 0.50), "ns"},
		"stream.ingest_ns_p99":    {quantile(gaps, 0.99), "ns"},
		"stream.ingest_busy_ms":   {med(fulls, func(s runStats) float64 { return ms(durSum(s.probe.gaps)) }), "ms"},
		"stream.dispatch_wait_ms": {med(fulls, func(s runStats) float64 { return ms(s.dispatch) }), "ms"},
		"stream.finish_ms":        {med(fulls, func(s runStats) float64 { return ms(s.finish) }), "ms"},
		"stream.batch_fill":       {med(fulls, func(s runStats) float64 { return s.batchFill }), "ratio"},
		"graph.infer_busy_ms":     {med(fulls, func(s runStats) float64 { return ms(s.infer) }), "ms"},
		"graph.sweeps_per_window": {med(fulls, func(s runStats) float64 {
			return float64(s.rep.TotalSweeps) / float64(s.rep.Windows)
		}), "count"},
		"graph.unconverged_windows": {med(fulls, func(s runStats) float64 { return float64(s.rep.UnconvergedWindows) }), "count"},
		"timeseries.evaluate_ms":    {evalFull, "ms"},
		"runtime.gc_cpu_ms":         {med(fulls, func(s runStats) float64 { return ms(s.gcCPU) }), "ms"},
		"stream.growth":             {streamFull / med(halves, func(s runStats) float64 { return ms(s.streamCost()) }), "ratio"},
		"timeseries.growth":         {evalFull / med(halves, func(s runStats) float64 { return ms(s.evaluate) }), "ratio"},
		"trace.overhead_pct":        {100 * (plainThr - tracedThr) / plainThr, "%"},
	}
	b.report(res, fulls, fmt.Sprintf("%d untraced, %d traced, %d half-length runs; %d ingest gaps",
		len(plain), len(fulls), len(halves), len(gaps)))

	fmt.Fprintf(b.out, "self time by span (input generation, set-up probes, traced run with per-call spans):\n")
	for _, lt := range tr.selfTimes(func(root span) bool { return root.Name != "run.full" || root.ID == detailed }) {
		fmt.Fprintf(b.out, "  %-22s n=%-7d total %10.3f ms  self %10.3f ms\n",
			lt.Name, lt.Count, lt.Total.Seconds()*1e3, lt.Self.Seconds()*1e3)
	}
	for _, t := range []struct {
		tr   *tracer
		file string
	}{{tr, b.name + ".spans.json.gz"}, {htr, b.name + "-half.spans.json.gz"}} {
		path, err := t.tr.write(spansDir, t.file)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(b.out, "spans: %s (%d)\n", path, len(t.tr.spans))
	}
	return res, nil
}

// tally sums the operation counts and check outcomes of the runs.
func tally(runs []runStats) *result {
	res := &result{Correct: true}
	for _, r := range runs {
		res.Attempted += r.check.windows
		res.Failed += r.check.failed
		if len(r.check.problems) > 0 {
			res.Correct = false
		}
	}
	return res
}

// report prints the human-readable summary that precedes the JSON line.
func (b bench) report(res *result, runs []runStats, samples string) {
	fmt.Fprintf(b.out, "workload %s, seed %d, %d measured runs of %d intervals, %d workers, %d CPUs (%s)\n",
		b.name, b.seed, len(runs), runs[0].rep.Intervals, workers, runtime.NumCPU(), runtime.GOARCH)
	fmt.Fprintf(b.out, "samples: %s\n", samples)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b.out, "  %-26s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(b.out, "operations: %d windows attempted, %d failed (share %.3g)\n", res.Attempted, res.Failed, share)
	for i, r := range runs {
		for _, p := range r.check.problems {
			fmt.Fprintf(b.out, "  check failed in run %d: %s\n", i, p)
		}
	}
}

// each applies f to every run.
func each(runs []runStats, f func(runStats) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-quantile of xs linearly between order
// statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// durSum adds up nanosecond samples.
func durSum(ns []float64) time.Duration {
	var sum float64
	for _, x := range ns {
		sum += x
	}
	return time.Duration(sum)
}

// secondsOf converts durations to seconds.
func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// gcCPU reads the process's cumulative garbage-collector CPU time.
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * 1e9)
}

// peakRSS returns the process's peak resident set size, in MB. Linux
// reports ru_maxrss in kilobytes.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}
