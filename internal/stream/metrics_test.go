package stream

import (
	"fmt"
	"math"
	"testing"

	"bayesperf/internal/measure"
	"bayesperf/internal/obs"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// TestStreamMetricsEndToEnd runs a full stream with a live registry and
// checks the recorded instrumentation is internally consistent: counters
// agree with the Result, the batch fill ratio stays in (0, 1], stage
// latencies accumulated real time, and unconverged never exceeds windows.
func TestStreamMetricsEndToEnd(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(60), rng.New(3))
	cfg := testConfig(2)
	cfg.Batch = 8
	reg := obs.NewRegistry()
	cfg.Metrics = reg

	res := RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(5))
	snap := reg.Snapshot()

	counter := func(name string, labels ...obs.Label) uint64 {
		t.Helper()
		m := snap.Find(name, labels...)
		if m == nil {
			t.Fatalf("metric %s%v not in snapshot", name, labels)
		}
		return uint64(m.Value)
	}

	if got := counter("bayesperf_stream_intervals_total"); got != uint64(res.Intervals) {
		t.Errorf("intervals counter = %d, want %d", got, res.Intervals)
	}
	if got := counter("bayesperf_stream_windows_total"); got != uint64(res.Windows) {
		t.Errorf("windows counter = %d, want %d", got, res.Windows)
	}
	if got := counter("bayesperf_graph_windows_total"); got != uint64(res.Windows) {
		t.Errorf("graph windows counter = %d, want %d", got, res.Windows)
	}
	// The kernel is the host's choice; every window is counted under
	// exactly one of the two labels.
	exact := counter("bayesperf_graph_kernel_windows_total", obs.Label{Key: "kernel", Value: "exact"})
	fast := counter("bayesperf_graph_kernel_windows_total", obs.Label{Key: "kernel", Value: "fast"})
	if exact+fast != uint64(res.Windows) {
		t.Errorf("kernel windows exact %d + fast %d, want %d", exact, fast, res.Windows)
	}
	if got := counter("bayesperf_graph_sweeps_total"); got != uint64(res.TotalSweeps) {
		t.Errorf("sweeps counter = %d, want Result.TotalSweeps %d", got, res.TotalSweeps)
	}
	unconv := counter("bayesperf_graph_unconverged_windows_total")
	if unconv != uint64(res.Unconverged) {
		t.Errorf("unconverged counter = %d, want Result.Unconverged %d", unconv, res.Unconverged)
	}
	if unconv > uint64(res.Windows) {
		t.Errorf("unconverged %d > windows %d", unconv, res.Windows)
	}
	if res.AllConverged != (res.Unconverged == 0) {
		t.Errorf("AllConverged=%v inconsistent with Unconverged=%d", res.AllConverged, res.Unconverged)
	}
	if res.TotalSweeps <= 0 {
		t.Errorf("TotalSweeps = %d, want > 0", res.TotalSweeps)
	}

	fill := snap.Find("bayesperf_stream_batch_fill_ratio")
	if fill == nil || fill.Count == 0 {
		t.Fatal("batch fill ratio histogram missing or empty")
	}
	// Every observation is a fraction of a batch actually filled: (0, 1].
	if fill.Sum <= 0 || fill.Sum > float64(fill.Count) {
		t.Errorf("fill ratio sum %v outside (0, count=%d]", fill.Sum, fill.Count)
	}

	stitch := snap.Find("bayesperf_stream_stage_seconds", obs.Label{Key: "stage", Value: "stitch"})
	if stitch == nil || stitch.Count == 0 {
		t.Fatal("stitch stage histogram missing or empty")
	}
	if stitch.Sum <= 0 {
		t.Errorf("stitch latency sum = %v, want > 0", stitch.Sum)
	}
	infer := snap.Find("bayesperf_stream_stage_seconds", obs.Label{Key: "stage", Value: "infer"})
	if infer == nil || infer.Count == 0 || infer.Sum <= 0 {
		t.Fatal("infer stage histogram missing, empty, or zero-time")
	}
}

// TestStreamMetricsDoNotChangeResults pins the instrumentation invariant:
// attaching a registry must leave every output bit identical.
func TestStreamMetricsDoNotChangeResults(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(40), rng.New(7))
	run := func(reg *obs.Registry) *Result {
		cfg := testConfig(2)
		cfg.Metrics = reg
		return RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(9))
	}
	plain, instr := run(nil), run(obs.NewRegistry())
	for id := range plain.Corrected {
		for ti := range plain.Corrected[id] {
			if plain.Corrected[id][ti] != instr.Corrected[id][ti] ||
				plain.CorrectedStd[id][ti] != instr.CorrectedStd[id][ti] {
				t.Fatalf("event %d interval %d: metrics changed the posterior", id, ti)
			}
		}
	}
	if plain.TotalSweeps != instr.TotalSweeps || plain.Unconverged != instr.Unconverged {
		t.Errorf("sweep accounting differs: %d/%d vs %d/%d",
			plain.TotalSweeps, plain.Unconverged, instr.TotalSweeps, instr.Unconverged)
	}
}

// TestStreamDropWarningOnce checks the non-finite-drop path: the drop
// counter sees every corrupted reading, but the log warning fires exactly
// once per stream.
func TestStreamDropWarningOnce(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(30), rng.New(3))
	id := cat.MustEvent("INST_RETIRED.ANY") // fixed counter: counted every interval
	tr.Series[id][5] = math.NaN()
	tr.Series[id][6] = math.Inf(1)

	var warnings []string
	orig := warnf
	warnf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	defer func() { warnf = orig }()

	reg := obs.NewRegistry()
	cfg := testConfig(1)
	cfg.Metrics = reg
	RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(5))

	if len(warnings) != 1 {
		t.Fatalf("got %d drop warnings, want exactly 1: %q", len(warnings), warnings)
	}
	snap := reg.Snapshot()
	m := snap.Find("bayesperf_measure_dropped_nonfinite_total")
	if m == nil || m.Value < 2 {
		t.Errorf("dropped counter = %+v, want >= 2 (both corrupted readings)", m)
	}
}

// TestStreamDropWarningSilentWithoutMetrics: the warning rides the obs
// path but must fire with or without a registry — it is the operator's
// only signal when metrics are off.
func TestStreamDropWarningSilentCounter(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(20), rng.New(3))
	tr.Series[cat.MustEvent("INST_RETIRED.ANY")][4] = math.NaN()

	calls := 0
	orig := warnf
	warnf = func(string, ...any) { calls++ }
	defer func() { warnf = orig }()

	RunTrace(tr, measure.NewRoundRobin(cat), testConfig(1), rng.New(5))
	if calls != 1 {
		t.Errorf("metrics-off stream warned %d times, want 1", calls)
	}
}
