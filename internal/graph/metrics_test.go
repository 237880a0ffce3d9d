package graph

import (
	"testing"

	"bayesperf/internal/obs"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// TestGraphMetricsRecording runs instrumented single-window inference and
// checks the execution counters agree with the returned Result — and that
// attaching metrics leaves the posterior bit identical.
func TestGraphMetricsRecording(t *testing.T) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)

	infer := func(m *Metrics) Result {
		batch := Compile(c).NewBatch(1)
		batch.SetMetrics(m)
		benchObserveAll(batch, truth, rng.New(3))
		return batch.Execute(1, 200, 1e-9).Window(0)
	}

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	vec := fastVecEnabled
	fastVecEnabled = false
	res := infer(m)
	plain := infer(nil)
	fastVecEnabled = vec

	for id := range res.Mean {
		if res.Mean[id] != plain.Mean[id] || res.Std[id] != plain.Std[id] {
			t.Fatalf("event %d: metrics changed the posterior", id)
		}
	}

	snap := reg.Snapshot()
	counter := func(name string, labels ...obs.Label) float64 {
		t.Helper()
		ms := snap.Find(name, labels...)
		if ms == nil {
			t.Fatalf("metric %s%v not in snapshot", name, labels)
		}
		return ms.Value
	}
	if got := counter("bayesperf_graph_windows_total"); got != 1 {
		t.Errorf("windows counter = %v, want 1", got)
	}
	if got := counter("bayesperf_graph_sweeps_total"); got != float64(res.Iters) {
		t.Errorf("sweeps counter = %v, want Result.Iters %d", got, res.Iters)
	}
	if got := counter("bayesperf_graph_kernel_windows_total", obs.Label{Key: "kernel", Value: "exact"}); got != 1 {
		t.Errorf("exact kernel counter = %v, want 1", got)
	}
	unconv := counter("bayesperf_graph_unconverged_windows_total")
	if want := float64(0); !res.Converged {
		want = 1
	} else if unconv != want {
		t.Errorf("unconverged counter = %v with Converged=%v", unconv, res.Converged)
	}
	hist := snap.Find("bayesperf_graph_sweeps_per_window")
	if hist == nil || hist.Count != 1 || hist.Sum != float64(res.Iters) {
		t.Errorf("sweeps histogram = %+v, want count 1 sum %d", hist, res.Iters)
	}

	// The host's own selection records under the kernel that ran: the
	// vector kernel ("fast") where the CPU has it.
	infer(m)
	snap = reg.Snapshot()
	wantFast, wantExact := 0.0, 2.0
	if vec {
		wantFast, wantExact = 1, 1
	}
	if got := counter("bayesperf_graph_kernel_windows_total", obs.Label{Key: "kernel", Value: "fast"}); got != wantFast {
		t.Errorf("fast kernel counter = %v, want %v (vector kernel available: %v)", got, wantFast, vec)
	}
	if got := counter("bayesperf_graph_kernel_windows_total", obs.Label{Key: "kernel", Value: "exact"}); got != wantExact {
		t.Errorf("exact kernel counter = %v, want %v (vector kernel available: %v)", got, wantExact, vec)
	}
}

// TestGraphMetricsNilSafe: a nil *Metrics records nothing and never
// dereferences.
func TestGraphMetricsNilSafe(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatalf("NewMetrics(nil) = %v, want nil", m)
	}
	c := uarch.Skylake()
	batch := Compile(c).NewBatch(1)
	batch.SetMetrics(nil)
	benchObserveAll(batch, skylakeTruth(c), rng.New(3))
	if res := batch.Execute(1, 50, 1e-9).Window(0); len(res.Mean) == 0 {
		t.Fatal("inference with nil metrics returned no posterior")
	}
}
