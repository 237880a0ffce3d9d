package graph

import (
	"fmt"
	"math"
	"testing"

	"bayesperf/internal/obs"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// fastAccuracyTol is the cross-host accuracy contract: relative posterior
// drift of the vector kernel vs the exact kernel. The kernels compute the
// same fixed-point update in a different floating-point summation order, so
// the observed drift at full convergence is ~1e-14; the gate leaves
// headroom for a lane converging one damped sweep earlier or later (a
// ≤ tol·scale mean wobble, ≤ ~5e-8 relative at the catalogs' scaled-mean
// magnitudes).
const fastAccuracyTol = 1e-7

// Derived-event posteriors are formulas over several marginals, so their
// gates are looser. A derived mean compounds its inputs' drift
// (fastDerivedTol). The covariance-aware derived std consumes clique
// correlations, and a correlation whose cavity precision sits near the
// vanishing floor is ill-conditioned in both kernels (see the conditioning
// note below); fastDerivedStdTol asserts the drift stays below anything a
// consumer of an uncertainty band could perceive, not bit-level agreement.
const (
	fastDerivedTol    = 1e-6
	fastDerivedStdTol = 1e-3
)

// forceExact clears the vector-kernel hook until the test ends, so every
// Execute runs the exact kernel on any host.
func forceExact(tb testing.TB) {
	saved := fastVecEnabled
	fastVecEnabled = false
	tb.Cleanup(func() { fastVecEnabled = saved })
}

// executeExact runs one Execute on the exact kernel, whatever the host.
func executeExact(b *Batch, n, maxIter int, tol float64) *BatchResult {
	saved := fastVecEnabled
	fastVecEnabled = false
	defer func() { fastVecEnabled = saved }()
	return b.Execute(n, maxIter, tol)
}

// vecKernel runs fn as the "vec" subtest on hosts whose CPU runs the
// vector kernel; elsewhere Execute only ever runs the exact kernel and
// there is nothing to compare.
func vecKernel(t *testing.T, fn func(t *testing.T)) {
	if !fastVecEnabled {
		t.Log("host has no AVX2+FMA: the vector kernel is not exercised")
		return
	}
	t.Run("vec", fn)
}

// TestFastMathAccuracyDelta is the vector kernel's accuracy gate: on all
// four catalogs, across batch widths, converged and unconverged iteration
// budgets, and with covariance extraction on, every posterior mean, std,
// tracked clique correlation and derived-event posterior must agree with
// the exact kernel within its gate, with iteration counts off by at most
// one sweep.
func TestFastMathAccuracyDelta(t *testing.T) {
	vecKernel(t, func(t *testing.T) {
		for _, cat := range identityCatalogs(t) {
			plan := Compile(cat)
			for _, bc := range []struct {
				lanes   int
				maxIter int
				tol     float64
				cov     bool
			}{
				{1, 200, 1e-9, false},
				{8, 200, 1e-9, true},
				{8, 3, 1e-9, true}, // budget too small to converge
				{13, 200, 1e-4, false},
			} {
				ex := plan.NewBatch(bc.lanes)
				fa := plan.NewBatch(bc.lanes)
				if bc.cov {
					ex.EnableCovariance()
					fa.EnableCovariance()
				}
				r := rng.New(7)
				for lane := 0; lane < bc.lanes; lane++ {
					observeRound(cat, r, func(id uarch.EventID, mean, std float64) {
						ex.Observe(lane, id, mean, std)
						fa.Observe(lane, id, mean, std)
					})
				}
				re := executeExact(ex, bc.lanes, bc.maxIter, bc.tol)
				rf := fa.Execute(bc.lanes, bc.maxIter, bc.tol)
				for i := range re.Mean {
					dm := math.Abs(rf.Mean[i]-re.Mean[i]) / math.Max(math.Abs(re.Mean[i]), 1)
					ds := math.Abs(rf.Std[i]-re.Std[i]) / math.Max(re.Std[i], 1)
					if dm > fastAccuracyTol || math.IsNaN(rf.Mean[i]) {
						t.Fatalf("%s lanes=%d iter=%d: slot %d mean %v vs exact %v (rel delta %.3g)",
							cat.Arch, bc.lanes, bc.maxIter, i, rf.Mean[i], re.Mean[i], dm)
					}
					if ds > fastAccuracyTol || math.IsNaN(rf.Std[i]) {
						t.Fatalf("%s lanes=%d iter=%d: slot %d std %v vs exact %v (rel delta %.3g)",
							cat.Arch, bc.lanes, bc.maxIter, i, rf.Std[i], re.Std[i], ds)
					}
				}
				for lane := 0; lane < bc.lanes; lane++ {
					di := rf.Iters[lane] - re.Iters[lane]
					if di < -1 || di > 1 {
						t.Fatalf("%s lanes=%d iter=%d: lane %d took %d sweeps, exact %d",
							cat.Arch, bc.lanes, bc.maxIter, lane, rf.Iters[lane], re.Iters[lane])
					}
					if rf.Converged[lane] != re.Converged[lane] {
						t.Fatalf("%s lanes=%d iter=%d: lane %d converged=%v, exact %v",
							cat.Arch, bc.lanes, bc.maxIter, lane, rf.Converged[lane], re.Converged[lane])
					}
					if !bc.cov {
						continue
					}
					// Clique correlations are only compared between events
					// whose cavity precision (belief minus the clique's own
					// message, the quantity extractCovariances inverts) is
					// well above the 1e-12 vanishing floor. A near-floor
					// cavity makes d = 1/(belief − msg) catastrophically
					// ill-conditioned: its correlation is noise in BOTH
					// kernels (the exact kernel's noise is merely
					// bit-reproducible), so no summation order can agree
					// there and no consumer can read meaning into it.
					cavityPrec := func(e int) float64 {
						B := ex.stride
						return ex.beliefPrec[plan.edgeVar[e]*B+lane] - ex.msgPrec[e*B+lane]
					}
					conditioned := func(a, b uarch.EventID) bool {
						loc, ok := plan.pairLoc[pairKey(a, b)]
						if !ok {
							return false // Corr returns 0 for both kernels
						}
						e0 := plan.factorOff[loc.rel]
						return cavityPrec(e0+loc.a) >= 1e-5 && cavityPrec(e0+loc.b) >= 1e-5
					}
					compared := 0
					for ri := range cat.Rels {
						for _, ta := range cat.Rels[ri].Terms {
							for _, tb := range cat.Rels[ri].Terms {
								if ta.Event == tb.Event || !conditioned(ta.Event, tb.Event) {
									continue
								}
								compared++
								ce := re.Corr(lane, ta.Event, tb.Event)
								cf := rf.Corr(lane, ta.Event, tb.Event)
								if math.Abs(cf-ce) > fastAccuracyTol {
									t.Fatalf("%s lane %d: corr(%d,%d) = %v vs exact %v",
										cat.Arch, lane, ta.Event, tb.Event, cf, ce)
								}
							}
						}
					}
					if compared == 0 {
						t.Fatalf("%s lane %d: conditioning gate compared no correlations", cat.Arch, lane)
					}
					// Derived events through the covariance-aware delta
					// method, the quantity the stream's covariance mode
					// stitches per interval. Means hold on every derived
					// event; the std is compared only where every coupled
					// input pair passes the conditioning gate above, since an
					// ill-conditioned correlation enters the std's cross term.
					wellConditioned := func(d *uarch.Derived) bool {
						for i, a := range d.Inputs {
							for _, b := range d.Inputs[i+1:] {
								if a != b && plan.SharesClique(a, b) && !conditioned(a, b) {
									return false
								}
							}
						}
						return true
					}
					we, wf := re.Window(lane), rf.Window(lane)
					stdCompared := 0
					for di := range cat.Derived {
						d := &cat.Derived[di]
						me, se := we.DerivedPosteriorCov(d)
						mf, sf := wf.DerivedPosteriorCov(d)
						if dm := math.Abs(mf-me) / math.Max(math.Abs(me), 1); dm > fastDerivedTol || math.IsNaN(mf) {
							t.Fatalf("%s lane %d: derived %s mean %v vs exact %v (rel delta %.3g)",
								cat.Arch, lane, d.Name, mf, me, dm)
						}
						if !wellConditioned(d) {
							continue
						}
						stdCompared++
						if ds := math.Abs(sf-se) / math.Max(se, 1); ds > fastDerivedStdTol || math.IsNaN(sf) {
							t.Fatalf("%s lane %d: derived %s cov-aware std %v vs exact %v (rel delta %.3g)",
								cat.Arch, lane, d.Name, sf, se, ds)
						}
					}
					if stdCompared == 0 {
						t.Fatalf("%s lane %d: conditioning gate compared no derived stds", cat.Arch, lane)
					}
				}
			}
		}
	})
}

// TestFastMathLaneInvariance is the vector kernel's batching contract — the
// same one TestExecuteLaneInvariance pins for the exact kernel: a window's
// posterior is bit-identical whether it runs alone in a 1-lane batch or
// packed into any lane of any wider batch (the vector kernel's arithmetic
// is elementwise per lane; the activeMask keeps padding and frozen lanes
// from perturbing live ones).
func TestFastMathLaneInvariance(t *testing.T) {
	vecKernel(t, func(t *testing.T) {
		for _, cat := range identityCatalogs(t) {
			plan := Compile(cat)
			const windows = 13
			type obs struct {
				id        uarch.EventID
				mean, std float64
			}
			jobs := make([][]obs, windows)
			solo := make([]Result, windows)
			one := plan.NewBatch(1)
			one.EnableCovariance()
			for w := 0; w < windows; w++ {
				r := rng.New(uint64(w)*31 + 5)
				observeRound(cat, r, func(id uarch.EventID, mean, std float64) {
					jobs[w] = append(jobs[w], obs{id, mean, std})
				})
				one.ClearObservations()
				for _, o := range jobs[w] {
					one.Observe(0, o.id, o.mean, o.std)
				}
				solo[w] = one.Execute(1, 200, 1e-9).Window(0)
			}
			for _, lanes := range []int{2, 5, 64} {
				batch := plan.NewBatch(lanes)
				batch.EnableCovariance()
				for start := 0; start < windows; start += lanes {
					n := windows - start
					if n > lanes {
						n = lanes
					}
					batch.ClearObservations()
					for lane := 0; lane < n; lane++ {
						for _, o := range jobs[start+lane] {
							batch.Observe(lane, o.id, o.mean, o.std)
						}
					}
					res := batch.Execute(n, 200, 1e-9)
					for lane := 0; lane < n; lane++ {
						got := res.Window(lane)
						want := solo[start+lane]
						if got.Iters != want.Iters || got.Converged != want.Converged {
							t.Fatalf("%s lanes=%d window %d: iteration trace (%d, %v) vs solo (%d, %v)",
								cat.Arch, lanes, start+lane, got.Iters, got.Converged, want.Iters, want.Converged)
						}
						for id := range want.Mean {
							if got.Mean[id] != want.Mean[id] || got.Std[id] != want.Std[id] {
								t.Fatalf("%s lanes=%d window %d event %d: mean %v vs %v, std %v vs %v",
									cat.Arch, lanes, start+lane, id,
									got.Mean[id], want.Mean[id], got.Std[id], want.Std[id])
							}
						}
						for ri := range cat.Rels {
							for _, ta := range cat.Rels[ri].Terms {
								for _, tb := range cat.Rels[ri].Terms {
									if got.Cov(ta.Event, tb.Event) != want.Cov(ta.Event, tb.Event) {
										t.Fatalf("%s lanes=%d window %d: clique cov (%d,%d) diverged",
											cat.Arch, lanes, start+lane, ta.Event, tb.Event)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// wideCatalog is a synthetic catalog whose one relation has nine terms
// (total = Σ parts), one more than the vector kernel's scratch holds, plus
// an observed-truth vector on which the invariant holds exactly.
func wideCatalog(t *testing.T) (*uarch.Catalog, []float64) {
	spec := uarch.Spec{Arch: "toy-wide", ProgCounters: 4}
	terms := []uarch.TermSpec{{Event: "total", Coeff: 1}}
	spec.Events = append(spec.Events, uarch.EventSpec{Name: "total"})
	for i := 1; i < vecMaxK+1; i++ {
		name := fmt.Sprintf("part%d", i)
		spec.Events = append(spec.Events, uarch.EventSpec{Name: name})
		terms = append(terms, uarch.TermSpec{Event: name, Coeff: -1})
	}
	spec.Relations = []uarch.RelationSpec{{Name: "sum", RelTol: 0.01, Terms: terms}}
	cat := toyCatalog(t, spec)
	truth := make([]float64, cat.NumEvents())
	for i := 1; i < len(truth); i++ {
		truth[i] = float64(i) * 1e6
		truth[0] += truth[i]
	}
	return cat, truth
}

// TestKernelSelection pins the selection rule in ExecuteInto: with the
// vector kernel available, a plan whose widest clique exceeds vecMaxK
// still runs the exact kernel, bit for bit, and the kernel metric counts
// the kernel that actually ran.
func TestKernelSelection(t *testing.T) {
	cat, truth := wideCatalog(t)
	run := func(vec bool) (Result, *obs.Registry) {
		saved := fastVecEnabled
		fastVecEnabled = vec
		defer func() { fastVecEnabled = saved }()
		reg := obs.NewRegistry()
		batch := Compile(cat).NewBatch(1)
		batch.SetMetrics(NewMetrics(reg))
		r := rng.New(17)
		for id, want := range truth {
			batch.Observe(0, uarch.EventID(id), r.Gaussian(want, 0.02*want), 0.02*want)
		}
		return batch.Execute(1, 200, 1e-9).Window(0), reg
	}
	exact, _ := run(false)
	got, reg := run(true) // the hook claims AVX2; the 9-term clique must veto it
	if got.Iters != exact.Iters || got.Converged != exact.Converged {
		t.Fatalf("iteration trace (%d, %v) vs exact (%d, %v)", got.Iters, got.Converged, exact.Iters, exact.Converged)
	}
	for id := range exact.Mean {
		if got.Mean[id] != exact.Mean[id] || got.Std[id] != exact.Std[id] {
			t.Fatalf("event %d: mean %v vs exact %v, std %v vs exact %v",
				id, got.Mean[id], exact.Mean[id], got.Std[id], exact.Std[id])
		}
	}
	snap := reg.Snapshot()
	for kernel, want := range map[string]float64{"exact": 1, "fast": 0} {
		if m := snap.Find("bayesperf_graph_kernel_windows_total", obs.Label{Key: "kernel", Value: kernel}); m == nil || m.Value != want {
			t.Errorf("kernel=%s windows = %+v, want %v", kernel, m, want)
		}
	}
}

// TestObserveRejectsInvalid: an observation the engine cannot use panics at
// Observe instead of poisoning the window's posterior. An infinite mean
// would otherwise turn every posterior mean NaN while the window still
// reports convergence.
func TestObserveRejectsInvalid(t *testing.T) {
	cat := uarch.Skylake()
	batch := Compile(cat).NewBatch(2)
	for _, bc := range []struct {
		name      string
		lane      int
		id        uarch.EventID
		mean, std float64
	}{
		{"lane out of range", 2, 0, 1, 1},
		{"negative lane", -1, 0, 1, 1},
		{"unknown event", 0, uarch.EventID(cat.NumEvents()), 1, 1},
		{"zero std", 0, 0, 1, 0},
		{"negative std", 0, 0, 1, -1},
		{"NaN std", 0, 0, 1, math.NaN()},
		{"NaN mean", 0, 0, math.NaN(), 1},
		{"+Inf mean", 0, 0, math.Inf(1), 1},
		{"-Inf mean", 0, 0, math.Inf(-1), 1},
	} {
		t.Run(bc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Observe(%d, %d, %v, %v) did not panic", bc.lane, bc.id, bc.mean, bc.std)
				}
			}()
			batch.Observe(bc.lane, bc.id, bc.mean, bc.std)
		})
	}
}
