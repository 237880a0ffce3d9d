package graph

import (
	"fmt"
	"math"
	"testing"

	"bayesperf/internal/rng"
	"bayesperf/internal/stats"
	"bayesperf/internal/uarch"
)

// skylakeTruth returns an event-value vector for the Skylake catalog on
// which every declared invariant holds exactly.
func skylakeTruth(c *uarch.Catalog) []float64 {
	v := make([]float64, c.NumEvents())
	set := func(name string, x float64) { v[c.MustEvent(name)] = x }
	set("MEM_INST_RETIRED.ALL_LOADS", 3.0e8)
	set("MEM_INST_RETIRED.ALL_STORES", 1.5e8)
	set("BR_MISP_RETIRED.ALL_BRANCHES", 5.0e6)
	set("BR_PRED_RETIRED.ALL_BRANCHES", 9.5e7)
	set("BR_INST_RETIRED.ALL_BRANCHES", 1.0e8)
	set("INST_RETIRED.OTHER", 4.5e8)
	set("INST_RETIRED.ANY", 1.0e9)
	set("MEM_LOAD_RETIRED.L1_HIT", 2.85e8)
	set("MEM_LOAD_RETIRED.L1_MISS", 1.5e7)
	set("MEM_LOAD_RETIRED.L2_HIT", 1.2e7)
	set("MEM_LOAD_RETIRED.L3_HIT", 2.4e6)
	set("MEM_LOAD_RETIRED.L3_MISS", 6.0e5)
	set("OFFCORE_RESPONSE.DEMAND_DATA_RD", 3.0e6)
	set("OFFCORE_RESPONSE.DEMAND_DATA_RD.L3_MISS", 6.0e5)
	set("CPU_CLK_UNHALTED.THREAD", 8.0e8)
	set("CPU_CLK_UNHALTED.REF_TSC", 7.5e8)
	set("L1D_PEND_MISS.PENDING", 4.0e7)
	return v
}

func TestTruthVectorIsConsistent(t *testing.T) {
	c := uarch.Skylake()
	v := skylakeTruth(c)
	for _, r := range c.Rels {
		if res := math.Abs(r.Residual(v)); res > 1e-6*r.Magnitude(v) {
			t.Errorf("relation %s residual %g on truth vector", r.Name, res)
		}
	}
}

// TestInferRecoversTruth is the ISSUE acceptance criterion: with every
// event observed under small noise, inference recovers the ground truth
// within 2% mean relative error — and no worse than the raw observations.
func TestInferRecoversTruth(t *testing.T) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)
	r := rng.New(11)

	batch := Compile(c).NewBatch(1)
	var rawErr stats.Running
	for id, want := range truth {
		std := 0.01 * want
		obs := r.Gaussian(want, std)
		batch.Observe(0, uarch.EventID(id), obs, std)
		rawErr.Add(stats.RelErr(obs, want, 1))
	}
	res := batch.Execute(1, 200, 1e-9).Window(0)
	if !res.Converged {
		t.Fatalf("inference did not converge in %d iters", res.Iters)
	}

	var postErr stats.Running
	for id, want := range truth {
		postErr.Add(stats.RelErr(res.Mean[id], want, 1))
	}
	if postErr.Mean() > 0.02 {
		t.Errorf("posterior mean relative error %.4f > 2%%", postErr.Mean())
	}
	if postErr.Mean() >= rawErr.Mean() {
		t.Errorf("posterior error %.4f not below raw observation error %.4f",
			postErr.Mean(), rawErr.Mean())
	}
}

// TestInferFillsUnobserved checks that an unobserved event tied to observed
// ones through an invariant is recovered from the relations alone.
func TestInferFillsUnobserved(t *testing.T) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)
	missing := c.MustEvent("MEM_LOAD_RETIRED.L1_MISS")

	batch := Compile(c).NewBatch(1)
	for id, want := range truth {
		if uarch.EventID(id) == missing {
			continue
		}
		batch.Observe(0, uarch.EventID(id), want, 0.005*want)
	}
	res := batch.Execute(1, 200, 1e-9).Window(0)
	got, want := res.Mean[missing], truth[missing]
	if e := stats.RelErr(got, want, 1); e > 0.05 {
		t.Errorf("unobserved %s inferred as %.4g, want %.4g (rel err %.3f)",
			c.Event(missing).Name, got, want, e)
	}
	if res.Std[missing] <= 0 || math.IsInf(res.Std[missing], 0) {
		t.Errorf("unobserved event posterior std = %g", res.Std[missing])
	}
}

// TestInferTightensUncertainty checks the Bayesian value-add: posterior
// stds are no larger than the observation stds for events constrained by
// invariants.
func TestInferTightensUncertainty(t *testing.T) {
	c := uarch.Power9()
	batch := Compile(c).NewBatch(1)
	// A consistent Power9 vector.
	v := make([]float64, c.NumEvents())
	set := func(name string, x float64) { v[c.MustEvent(name)] = x }
	set("PM_LD_CMPL", 2.0e8)
	set("PM_ST_CMPL", 1.0e8)
	set("PM_BR_CMPL", 8.0e7)
	set("PM_BR_MPRED_CMPL", 4.0e6)
	set("PM_INST_OTHER_CMPL", 2.2e8)
	set("PM_INST_CMPL", 6.0e8)
	set("PM_LD_HIT_L1", 1.9e8)
	set("PM_LD_MISS_L1", 1.0e7)
	set("PM_DATA_FROM_L2", 8.0e6)
	set("PM_DATA_FROM_L3", 1.5e6)
	set("PM_DATA_FROM_MEM", 5.0e5)
	set("PM_RUN_CYC", 5.0e8)
	for _, r := range c.Rels {
		if res := math.Abs(r.Residual(v)); res > 1e-6*r.Magnitude(v) {
			t.Fatalf("relation %s residual %g on truth vector", r.Name, res)
		}
	}
	obsStd := make([]float64, c.NumEvents())
	for id, want := range v {
		obsStd[id] = 0.02 * want
		batch.Observe(0, uarch.EventID(id), want, obsStd[id])
	}
	res := batch.Execute(1, 200, 1e-9).Window(0)
	ld := c.MustEvent("PM_LD_CMPL")
	if res.Std[ld] >= obsStd[ld] {
		t.Errorf("posterior std %.4g not tighter than observation std %.4g",
			res.Std[ld], obsStd[ld])
	}
}

// TestClearObservationsReuse is the graph-reuse contract the stream workers
// rely on: clearing observations and re-observing must reproduce exactly
// what a freshly built graph infers, with no cross-window leakage.
func TestClearObservationsReuse(t *testing.T) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)
	reused := Compile(c).NewBatch(1)

	r := rng.New(21)
	for round := 0; round < 3; round++ {
		fresh := Compile(c).NewBatch(1)
		reused.ClearObservations()
		for id, want := range truth {
			std := 0.02 * want
			obs := r.Gaussian(want, std)
			// Leave one event unobserved each round to exercise the
			// observed-flag reset, a different one per round.
			if id == round {
				continue
			}
			fresh.Observe(0, uarch.EventID(id), obs, std)
			reused.Observe(0, uarch.EventID(id), obs, std)
		}
		fr := fresh.Execute(1, 200, 1e-9).Window(0)
		rr := reused.Execute(1, 200, 1e-9).Window(0)
		for id := range truth {
			if fr.Mean[id] != rr.Mean[id] || fr.Std[id] != rr.Std[id] {
				t.Fatalf("round %d: reused graph diverged on event %d: mean %v vs %v, std %v vs %v",
					round, id, rr.Mean[id], fr.Mean[id], rr.Std[id], fr.Std[id])
			}
		}
		if fr.Iters != rr.Iters || fr.Converged != rr.Converged {
			t.Fatalf("round %d: iteration trace diverged (%d/%v vs %d/%v)",
				round, rr.Iters, rr.Converged, fr.Iters, fr.Converged)
		}
	}
}

// TestDerivedPosteriorDeltaMethod checks the derived-event propagation at
// the graph level against the hand-derived delta-method formula for
// IPC = I/C: the posterior IPC mean is the formula at the posterior mean,
// and its std is √((σ_I/C)² + (I·σ_C/C²)²) over the posterior marginals.
func TestDerivedPosteriorDeltaMethod(t *testing.T) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)
	batch := Compile(c).NewBatch(1)
	for id, want := range truth {
		batch.Observe(0, uarch.EventID(id), want, 0.01*want)
	}
	res := batch.Execute(1, 200, 1e-9).Window(0)

	d := c.DerivedByName("IPC")
	mean, std := res.DerivedPosterior(d)
	instr, sigI := res.Posterior(c.MustEvent("INST_RETIRED.ANY"))
	cyc, sigC := res.Posterior(c.MustEvent("CPU_CLK_UNHALTED.THREAD"))
	if want := instr / cyc; math.Abs(mean-want) > 1e-12*want {
		t.Errorf("IPC posterior mean = %v, formula at posterior mean = %v", mean, want)
	}
	want := math.Sqrt(math.Pow(sigI/cyc, 2) + math.Pow(instr*sigC/(cyc*cyc), 2))
	if math.Abs(std-want) > 1e-9*want {
		t.Errorf("IPC posterior std = %g, hand-derived delta method %g", std, want)
	}
	if std <= 0 {
		t.Errorf("IPC posterior std = %g, want > 0", std)
	}
	// The posterior IPC must land near the truth's.
	trueIPC := truth[c.MustEvent("INST_RETIRED.ANY")] / truth[c.MustEvent("CPU_CLK_UNHALTED.THREAD")]
	if e := stats.RelErr(mean, trueIPC, 1e-9); e > 0.02 {
		t.Errorf("posterior IPC %v strays %.3f%% from truth %v", mean, 100*e, trueIPC)
	}
	// Every derived event in the catalog gets a finite, positive std.
	for di := range c.Derived {
		dm, ds := res.DerivedPosterior(&c.Derived[di])
		if math.IsNaN(dm) || math.IsInf(dm, 0) {
			t.Errorf("%s posterior mean = %v", c.Derived[di].Name, dm)
		}
		if ds <= 0 || math.IsNaN(ds) || math.IsInf(ds, 0) {
			t.Errorf("%s posterior std = %v", c.Derived[di].Name, ds)
		}
	}
}

// TestDerivedPosteriorUnobservedDenominator drives the safeDiv path at the
// graph level: with the cycle counter unobserved and unconstrained by any
// invariant, its posterior mean sits at the weak prior's 0 — the derived
// ratio must come back 0 with a finite std rather than NaN.
func TestDerivedPosteriorUnobservedDenominator(t *testing.T) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)
	cycID := c.MustEvent("CPU_CLK_UNHALTED.THREAD")
	batch := Compile(c).NewBatch(1)
	for id, want := range truth {
		if uarch.EventID(id) == cycID {
			continue // cycles take part in no invariant: posterior stays at the prior
		}
		batch.Observe(0, uarch.EventID(id), want, 0.01*want)
	}
	res := batch.Execute(1, 200, 1e-9).Window(0)
	if res.Mean[cycID] != 0 {
		t.Fatalf("unconstrained unobserved cycles inferred as %v, want prior 0", res.Mean[cycID])
	}
	mean, std := res.DerivedPosterior(c.DerivedByName("IPC"))
	if mean != 0 {
		t.Errorf("IPC with zero denominator = %v, want safeDiv's 0", mean)
	}
	if math.IsNaN(std) || std < 0 {
		t.Errorf("IPC std with zero denominator = %v", std)
	}
}

// benchObserveAll observes every event of lane 0 with noisy values.
func benchObserveAll(batch *Batch, truth []float64, r *rng.Rand) {
	for id, want := range truth {
		std := 0.05 * want
		batch.Observe(0, uarch.EventID(id), r.Gaussian(want, std), std)
	}
}

// BenchmarkInfer measures one-window inference from scratch: compile, a
// one-lane batch with covariance extraction, observe, execute.
func BenchmarkInfer(b *testing.B) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)
	r := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := Compile(c).NewBatch(1)
		batch.EnableCovariance()
		benchObserveAll(batch, truth, r)
		res := batch.Execute(1, 100, 1e-8).Window(0)
		if math.IsNaN(res.Mean[0]) {
			b.Fatal("NaN posterior")
		}
	}
}

// BenchmarkInferBatch is the inference trajectory's headline number: ns per
// window for batched message passing at B ∈ {1, 8, 64} on the Skylake
// catalog. The /exact variants force the exact kernel through the
// fastVecEnabled hook; the /fast variants run the host's own selection
// (the AVX2 vector kernel where the CPU has it, the exact kernel
// elsewhere). B=1 runs a one-lane batch and copies its Result out per
// window, as a single-window caller does; the wider batches walk the
// compiled schedule once per sweep for the whole batch, reusing one result
// via ExecuteInto the way the stream workers do. Every width extracts
// clique covariances, so the ns/window ratio credits schedule
// amortization, not skipped work. The per-window metric is emitted as
// ns/window so the trajectory stays comparable across PRs, batch widths,
// and kernels; cmd/benchjson snapshots it into BENCH_graph.json and CI
// gates regressions against that baseline.
func BenchmarkInferBatch(b *testing.B) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)
	for _, width := range []int{1, 8, 64} {
		for _, kernel := range []string{"exact", "fast"} {
			b.Run(fmt.Sprintf("B=%d/%s", width, kernel), func(b *testing.B) {
				if kernel == "exact" {
					forceExact(b)
				}
				// Pre-draw one observation set per lane so every run and width
				// measures identical inference problems.
				r := rng.New(3)
				obsMean := make([][]float64, width)
				obsStd := make([][]float64, width)
				for w := 0; w < width; w++ {
					obsMean[w] = make([]float64, len(truth))
					obsStd[w] = make([]float64, len(truth))
					for id, want := range truth {
						obsStd[w][id] = 0.05 * want
						obsMean[w][id] = r.Gaussian(want, obsStd[w][id])
					}
				}
				batch := Compile(c).NewBatch(width)
				batch.EnableCovariance()
				b.ReportAllocs()
				b.ResetTimer()
				var res *BatchResult
				for i := 0; i < b.N; i++ {
					batch.ClearObservations()
					for w := 0; w < width; w++ {
						for id := range truth {
							batch.Observe(w, uarch.EventID(id), obsMean[w][id], obsStd[w][id])
						}
					}
					if width == 1 {
						if win := batch.Execute(1, 100, 1e-8).Window(0); math.IsNaN(win.Mean[0]) {
							b.Fatal("NaN posterior")
						}
						continue
					}
					res = batch.ExecuteInto(res, width, 100, 1e-8)
					if math.IsNaN(res.Mean[0]) {
						b.Fatal("NaN posterior")
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/window")
			})
		}
	}
}

// BenchmarkInferReuse measures the window-to-window hot path of a
// long-lived one-lane batch: ClearObservations + re-Observe + Execute,
// against BenchmarkInfer's compile-per-window baseline.
func BenchmarkInferReuse(b *testing.B) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)
	r := rng.New(3)
	batch := Compile(c).NewBatch(1)
	batch.EnableCovariance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.ClearObservations()
		benchObserveAll(batch, truth, r)
		res := batch.Execute(1, 100, 1e-8).Window(0)
		if math.IsNaN(res.Mean[0]) {
			b.Fatal("NaN posterior")
		}
	}
}
