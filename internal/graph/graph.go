// Package graph implements BayesPerf's inference layer: a Gaussian factor
// graph over the events of one uarch.Catalog, with a variable node per event
// and a factor node per measurement and per microarchitectural invariant
// (§4 of the paper). Inference runs iterative Gaussian message passing
// (loopy BP, the Gaussian special case of expectation propagation), which is
// exact on tree-structured relation sets and empirically convergent on the
// loopy catalogs used here thanks to damping.
//
// The engine is two-phase: Compile lowers a catalog once into a flat Plan
// (dense index arrays plus a precomputed message schedule), and
// Batch.Execute runs inference for many windows simultaneously over
// contiguous structure-of-arrays slabs (see plan.go). A single window is a
// one-lane batch: Compile(cat).NewBatch(1), Observe, Execute(1, …).Window(0).
//
// The graph works on whatever unit the caller observes (per-interval rates
// or whole-run totals); internally all quantities are rescaled to O(1) so
// the weak proper prior and the convergence tolerance are scale-free.
package graph

import (
	"bayesperf/internal/uarch"
)

// natural is a Gaussian in natural parameters: precision λ = 1/σ² and
// precision-adjusted mean h = μ/σ². The zero value is the (improper)
// uninformative message.
type natural struct {
	prec float64
	h    float64
}

func (n natural) add(o natural) natural { return natural{n.prec + o.prec, n.h + o.h} }
func (n natural) sub(o natural) natural { return natural{n.prec - o.prec, n.h - o.h} }

// minPrec is the vanishing-precision floor: messages and beliefs with
// precision below it behave as flat (mean 0, variance 1/minPrec). Both
// kernels share it so their guard semantics cannot drift.
const minPrec = 1e-12

// moments converts to (mean, variance), guarding against vanishing
// precision: messages with precision below minPrec behave as flat.
func (n natural) moments() (mean, variance float64) {
	if n.prec < minPrec {
		return 0, 1 / minPrec
	}
	return n.h / n.prec, 1 / n.prec
}

func fromMoments(mean, variance float64) natural {
	if variance <= 0 {
		variance = 1e-300
	}
	p := 1 / variance
	return natural{p, mean * p}
}

// damping applied to factor→variable messages (in natural parameters);
// stabilizes loopy message passing on catalogs whose relations share events.
const damping = 0.7

// Result holds one window's posterior marginals (one lane of a batch
// Execute, see BatchResult.Window), indexed by EventID, plus the
// per-relation-clique posterior covariances backing
// Cov/Corr/DerivedPosteriorCov (see cov.go).
type Result struct {
	Mean      []float64
	Std       []float64
	Iters     int
	Converged bool

	plan *Plan
	cov  []float64 // clique covariance blocks, covOff-indexed
}

// Posterior returns one event's posterior (mean, std) pair.
func (r *Result) Posterior(id uarch.EventID) (mean, std float64) {
	return r.Mean[id], r.Std[id]
}

// DerivedPosterior propagates the posterior through a derived-event
// formula (§2 "Errors in Derived Events"): the mean is the formula
// evaluated at the posterior mean, and the std is the first-order delta
// method over the posterior marginals (uarch.Derived.PropagateStd),
// treating the inputs as independent. DerivedPosteriorCov is the
// covariance-aware version.
func (r *Result) DerivedPosterior(d *uarch.Derived) (mean, std float64) {
	return d.PosteriorFrom(r.Mean, r.Std)
}
