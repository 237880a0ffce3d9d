package stream

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"bayesperf/internal/measure"
	"bayesperf/internal/obs"
	"bayesperf/internal/rng"
	"bayesperf/internal/stats"
	"bayesperf/internal/uarch"
)

// benchTrace builds a trace long enough that per-window inference
// dominates the serial sampling/stitching work.
func benchTrace() *measure.Trace {
	return measure.GroundTruth(uarch.Skylake(), measure.DefaultWorkload(200), rng.New(1))
}

func benchStream(b *testing.B, tr *measure.Trace, workers int) {
	cfg := DefaultConfig()
	cfg.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RunTrace(tr, measure.NewRoundRobin(tr.Cat), cfg, rng.New(2))
		if !res.AllConverged {
			b.Fatal("window inference did not converge")
		}
	}
}

// BenchmarkStreamWindow tracks the streaming hot path end to end (sample →
// window slide → per-window inference → stitch) and the worker pool's
// scaling: compare the workers=1 and workers=4 variants.
func BenchmarkStreamWindow(b *testing.B) {
	tr := benchTrace()
	b.Run("workers=1", func(b *testing.B) { benchStream(b, tr, 1) })
	b.Run("workers=2", func(b *testing.B) { benchStream(b, tr, 2) })
	b.Run("workers=4", func(b *testing.B) { benchStream(b, tr, 4) })
}

// BenchmarkStreamBatched tracks what window batching buys the streaming
// engine end to end: the same trace and worker pool at batch widths 1, 8
// and 32 under the host's inference kernel, with per-window cost emitted as
// ns/window so the trajectory is comparable across PRs and against
// BenchmarkInferBatch's inference-only number. cmd/benchjson snapshots it
// into BENCH_stream.json and CI gates regressions against that baseline.
func BenchmarkStreamBatched(b *testing.B) {
	tr := benchTrace()
	run := func(batch int, reg *obs.Registry) func(*testing.B) {
		return func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = 2
			cfg.Batch = batch
			cfg.Metrics = reg
			windows := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := RunTrace(tr, measure.NewRoundRobin(tr.Cat), cfg, rng.New(2))
				if !res.AllConverged {
					b.Fatal("window inference did not converge")
				}
				windows = res.Windows
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
		}
	}
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), run(batch, nil))
	}
	// The /obs variant runs the identical workload with a live metrics
	// registry attached; cmd/benchjson's -obs-max-ratio gate pairs it
	// against its metrics-off twin batch=8 from the same run to bound the
	// instrumentation overhead (the registry is created outside the timed
	// region, as a real deployment would).
	b.Run("batch=8/obs", run(8, obs.NewRegistry()))
}

// BenchmarkStreamDecision times the adaptive engine's decision path on the
// zen JSON catalog with covariance on: per epoch boundary, the Ingest of
// the interval that ends the epoch, the Flush, EpochPosterior and the
// scheduler's Reprioritize. It drives the Engine directly, as Run does on
// adaptive runs, and reports the median decision as us/decision; the
// trace is generated outside the timer.
func BenchmarkStreamDecision(b *testing.B) {
	spec, err := uarch.LoadSpecFile("../../examples/catalogs/zen.json")
	if err != nil {
		b.Fatal(err)
	}
	cat, err := spec.Catalog()
	if err != nil {
		b.Fatal(err)
	}
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(400), rng.New(1))
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Covariance = true
	cfg.SizeHint = tr.Intervals()
	var decisions []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := measure.NewAdaptive(cat, cfg.Window)
		src := measure.NewSampler(tr, cfg.Mux, ad, rng.New(2))
		e := NewEngine(cat, cfg)
		e.inferAhead = true
		for t := 1; ; t++ {
			s, ok := src.Next()
			if !ok {
				break
			}
			if t%ad.EpochLen() != 0 {
				e.Ingest(s)
				continue
			}
			start := time.Now()
			e.Ingest(s)
			e.Flush()
			if mean, std, obsStd, ok := e.EpochPosterior(); ok {
				ad.Reprioritize(mean, std, obsStd)
			}
			decisions = append(decisions, float64(time.Since(start).Nanoseconds())/1e3)
		}
		e.Finish()
	}
	b.StopTimer()
	b.ReportMetric(stats.Quantile(decisions, 0.5), "us/decision")
}

// TestStreamParallelSpeedup pins the worker pool's reason to exist (and
// this PR's acceptance bar): with 4 EP engines the stream must run >1.5×
// faster than with 1. The test steps aside where timing is meaningless
// (<4 CPUs, race detector, -short).
func TestStreamParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing test skipped under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need 4 CPUs, have %d", runtime.NumCPU())
	}
	tr := benchTrace()
	run := func(workers int) time.Duration {
		cfg := DefaultConfig()
		cfg.Workers = workers
		start := time.Now()
		for rep := 0; rep < 3; rep++ {
			res := RunTrace(tr, measure.NewRoundRobin(tr.Cat), cfg, rng.New(2))
			if !res.AllConverged {
				t.Fatal("window inference did not converge")
			}
		}
		return time.Since(start)
	}
	run(4) // warm up
	serial := run(1)
	parallel := run(4)
	speedup := float64(serial) / float64(parallel)
	t.Logf("1 worker %v, 4 workers %v: speedup %.2fx", serial, parallel, speedup)
	if speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx < 1.5x (serial %v, parallel %v)", speedup, serial, parallel)
	}
}
