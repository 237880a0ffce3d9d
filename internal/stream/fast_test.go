package stream

import (
	"math"
	"strconv"
	"testing"
	_ "unsafe" // for go:linkname

	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/timeseries"
	"bayesperf/internal/uarch"
)

// vecKernelEnabled is internal/graph's kernel-selection hook
// (fastVecEnabled), reached without exporting it so the stream-level
// kernel checks can pin the exact kernel as their reference. Clearing it
// makes every Batch run the exact kernel; its startup value is the host's
// own choice (the vector kernel on AVX2 hosts).
//
//go:linkname vecKernelEnabled bayesperf/internal/graph.fastVecEnabled
var vecKernelEnabled bool

// forceExactKernel clears the vector-kernel hook for the rest of the test.
func forceExactKernel(t *testing.T) {
	t.Helper()
	saved := vecKernelEnabled
	vecKernelEnabled = false
	t.Cleanup(func() { vecKernelEnabled = saved })
}

// fastStreamTol bounds the stitched host-kernel-vs-exact drift of the
// posterior mean and std series. It inherits the graph-level accuracy gate
// (fastAccuracyTol in internal/graph) with one decade of headroom for the
// stitcher's hop-overlap averaging accumulating per-window deltas.
const fastStreamTol = 1e-6

// fastDerivedStdTol bounds the covariance-aware derived-event posterior
// std series. It is looser than fastStreamTol because that series consumes
// clique correlations, and a correlation whose cavity precision sits near
// the vanishing floor is ill-conditioned in both kernels (see the
// conditioning note on the graph-level accuracy gate); the bound asserts
// the drift stays below anything a consumer of an uncertainty band could
// perceive, not bit-level agreement.
const fastDerivedStdTol = 1e-3

// TestStreamHostKernelAccuracy: a streaming run on the host's kernel must
// stitch the same story as the exact kernel on the same trace — every
// corrected event series (means and stds) within fastStreamTol relative,
// every derived posterior series within its gate — with covariance-aware
// derived stds on. On hosts without the vector kernel both runs are exact
// and agree bit for bit.
func TestStreamHostKernelAccuracy(t *testing.T) {
	hostVec := vecKernelEnabled
	for _, arch := range []*uarch.Catalog{uarch.Skylake(), uarch.Power9()} {
		tr := measure.GroundTruth(arch, measure.DefaultWorkload(60), rng.New(5))
		runWith := func(vec bool) *Result {
			saved := vecKernelEnabled
			vecKernelEnabled = vec
			defer func() { vecKernelEnabled = saved }()
			cfg := testConfig(2)
			cfg.Covariance = true
			return RunTrace(tr, measure.NewRoundRobin(arch), cfg, rng.New(6))
		}
		exact := runWith(false)
		fast := runWith(hostVec)
		if fast.Windows != exact.Windows || fast.Intervals != exact.Intervals {
			t.Fatalf("%s: fast shape %d/%d vs exact %d/%d", arch.Arch,
				fast.Windows, fast.Intervals, exact.Windows, exact.Intervals)
		}
		within := func(name string, a, b []timeseries.Series, tol float64) {
			t.Helper()
			for id := range b {
				for ti := range b[id] {
					d := math.Abs(a[id][ti]-b[id][ti]) / math.Max(math.Abs(b[id][ti]), 1)
					if d > tol || math.IsNaN(a[id][ti]) {
						t.Fatalf("%s: %s[%d][%d] = %v, exact %v (rel delta %.3g > %g)",
							arch.Arch, name, id, ti, a[id][ti], b[id][ti], d, tol)
					}
				}
			}
		}
		within("corrected", fast.Corrected, exact.Corrected, fastStreamTol)
		within("correctedStd", fast.CorrectedStd, exact.CorrectedStd, fastStreamTol)
		within("derivedCorrected", fast.DerivedCorrected, exact.DerivedCorrected, fastStreamTol)
		within("derivedCorrectedStd", fast.DerivedCorrectedStd, exact.DerivedCorrectedStd, fastDerivedStdTol)
	}
}

// TestStreamHostKernelDeterministic pins the host kernel's streaming
// contract: like the exact kernel (TestStreamDeterministicAcrossBatchSizes),
// its stitched output is bit-identical for any worker count × batch width
// (the vector kernel is lane-invariant, so no grouping of windows into
// Execute calls may leak into the result).
func TestStreamHostKernelDeterministic(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(60), rng.New(5))
	var base *Result
	var baseLabel string
	for _, batch := range []int{1, 3, 8, 64} {
		for _, workers := range []int{1, 4} {
			cfg := testConfig(workers)
			cfg.Batch = batch
			cfg.Covariance = true
			label := "batch=" + strconv.Itoa(batch) + " workers=" + strconv.Itoa(workers)
			res := RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(6))
			if base == nil {
				base, baseLabel = res, label
				continue
			}
			if res.Windows != base.Windows || res.Intervals != base.Intervals {
				t.Fatalf("%s: shape %d/%d vs %s %d/%d", label,
					res.Windows, res.Intervals, baseLabel, base.Windows, base.Intervals)
			}
			check := func(name string, a, b []timeseries.Series) {
				t.Helper()
				for id := range b {
					for ti := range b[id] {
						if a[id][ti] != b[id][ti] {
							t.Fatalf("%s: %s[%d][%d] = %v, want %v (%s)",
								label, name, id, ti, a[id][ti], b[id][ti], baseLabel)
						}
					}
				}
			}
			check("corrected", res.Corrected, base.Corrected)
			check("correctedStd", res.CorrectedStd, base.CorrectedStd)
			check("derivedCorrected", res.DerivedCorrected, base.DerivedCorrected)
			check("derivedCorrectedStd", res.DerivedCorrectedStd, base.DerivedCorrectedStd)
			if res.PostRelStd != base.PostRelStd {
				t.Errorf("%s: posterior-std pool diverged from %s", label, baseLabel)
			}
		}
	}
}
