package graph

import (
	"math"
	"path/filepath"
	"testing"

	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// This file freezes the pre-compilation message-passing implementation
// (the per-window, slice-of-slices loop that shipped before the
// compile/execute refactor) verbatim, as the bit-exactness oracle: the
// exact kernel on a one-lane batch — and therefore every lane of a
// compiled batch — must reproduce its posteriors bit for bit on every
// catalog, observed subset, and inference budget.

type refObservation struct {
	mean float64
	std  float64
}

type refGraph struct {
	cat      *uarch.Catalog
	obs      []refObservation
	observed []bool
}

func refBuild(cat *uarch.Catalog) *refGraph {
	nv := cat.NumEvents()
	return &refGraph{
		cat:      cat,
		obs:      make([]refObservation, nv),
		observed: make([]bool, nv),
	}
}

func (g *refGraph) observe(id uarch.EventID, mean, std float64) {
	g.obs[id] = refObservation{mean: mean, std: std}
	g.observed[id] = true
}

// refInfer is the legacy Infer, byte-for-byte in its arithmetic.
func (g *refGraph) refInfer(maxIter int, tol float64) Result {
	nv := g.cat.NumEvents()
	rels := g.cat.Rels

	scale := 1.0
	for i, o := range g.obs {
		if g.observed[i] && math.Abs(o.mean) > scale {
			scale = math.Abs(o.mean)
		}
	}

	const priorPrec = 1e-12
	unary := make([]natural, nv)
	scaledMeans := make([]float64, nv)
	for i, o := range g.obs {
		unary[i] = natural{prec: priorPrec}
		scaledMeans[i] = 0
		if g.observed[i] {
			m, s := o.mean/scale, o.std/scale
			unary[i] = unary[i].add(fromMoments(m, s*s))
			scaledMeans[i] = m
		}
	}

	relVar := make([]float64, len(rels))
	for ri, r := range rels {
		mag := r.Magnitude(scaledMeans)
		if mag < 1e-6 {
			mag = 1e-6
		}
		sd := r.RelTol * mag
		relVar[ri] = sd * sd
	}

	msg := make([][]natural, len(rels))
	for ri, r := range rels {
		msg[ri] = make([]natural, len(r.Terms))
	}
	belief := make([]natural, nv)
	copy(belief, unary)

	means := make([]float64, nv)
	for i := range means {
		means[i], _ = belief[i].moments()
	}

	iters := 0
	converged := false
	for iters = 1; iters <= maxIter; iters++ {
		maxDelta := 0.0
		for ri, r := range rels {
			for k, t := range r.Terms {
				muJ := 0.0
				varJ := relVar[ri]
				for k2, t2 := range r.Terms {
					if k2 == k {
						continue
					}
					m, v := belief[t2.Event].sub(msg[ri][k2]).moments()
					muJ += t2.Coeff * m
					varJ += t2.Coeff * t2.Coeff * v
				}
				cj := t.Coeff
				newMsg := fromMoments(-muJ/cj, varJ/(cj*cj))
				old := msg[ri][k]
				damped := natural{
					prec: damping*newMsg.prec + (1-damping)*old.prec,
					h:    damping*newMsg.h + (1-damping)*old.h,
				}
				belief[t.Event] = belief[t.Event].sub(old).add(damped)
				msg[ri][k] = damped
			}
		}
		for i := range means {
			m, _ := belief[i].moments()
			if d := math.Abs(m - means[i]); d > maxDelta {
				maxDelta = d
			}
			means[i] = m
		}
		if maxDelta < tol {
			converged = true
			break
		}
	}
	if iters > maxIter {
		iters = maxIter
	}

	res := Result{
		Mean:      make([]float64, nv),
		Std:       make([]float64, nv),
		Iters:     iters,
		Converged: converged,
	}
	for i := range res.Mean {
		m, v := belief[i].moments()
		res.Mean[i] = m * scale
		res.Std[i] = math.Sqrt(v) * scale
	}
	return res
}

// identityCatalogs returns every catalog the bit-identity contract is
// asserted on: both builder catalogs plus the JSON specs shipped under
// examples/catalogs.
func identityCatalogs(t *testing.T) []*uarch.Catalog {
	t.Helper()
	cats := uarch.Catalogs()
	for _, file := range []string{"zen.json", "neoverse.json"} {
		spec, err := uarch.LoadSpecFile(filepath.Join("..", "..", "examples", "catalogs", file))
		if err != nil {
			t.Fatalf("loading %s: %v", file, err)
		}
		cat, err := spec.Catalog()
		if err != nil {
			t.Fatalf("building %s: %v", file, err)
		}
		cats = append(cats, cat)
	}
	return cats
}

// observeRound observes a pseudo-random subset of events with noisy values
// on all targets identically. Roughly one event in six stays unobserved.
func observeRound(cat *uarch.Catalog, r *rng.Rand, observe func(id uarch.EventID, mean, std float64)) {
	for id := 0; id < cat.NumEvents(); id++ {
		if r.Float64() < 1.0/6 {
			continue
		}
		base := 1e6 * (1 + 50*r.Float64())
		std := (0.005 + 0.05*r.Float64()) * base
		observe(uarch.EventID(id), r.Gaussian(base, std), std)
	}
}

// TestInferBitIdenticalToReference is the acceptance criterion of the
// compile/execute refactor: the exact kernel on a one-lane batch
// reproduces the legacy implementation's posteriors bit for bit — Mean,
// Std, Iters and Converged — on both builder catalogs and both shipped
// JSON catalogs, across observed subsets and inference budgets (including
// budgets too small to converge).
func TestInferBitIdenticalToReference(t *testing.T) {
	forceExact(t)
	for _, cat := range identityCatalogs(t) {
		batch := Compile(cat).NewBatch(1)
		for round := 0; round < 4; round++ {
			r := rng.New(uint64(100*round) + 7)
			ref := refBuild(cat)
			batch.ClearObservations()
			observeRound(cat, r, func(id uarch.EventID, mean, std float64) {
				ref.observe(id, mean, std)
				batch.Observe(0, id, mean, std)
			})
			maxIter, tol := 200, 1e-9
			if round == 2 {
				maxIter = 3 // too few sweeps: the unconverged path must match too
			}
			if round == 3 {
				tol = 1e-4
			}
			want := ref.refInfer(maxIter, tol)
			got := batch.Execute(1, maxIter, tol).Window(0)
			if got.Iters != want.Iters || got.Converged != want.Converged {
				t.Fatalf("%s round %d: iteration trace (%d, %v) vs reference (%d, %v)",
					cat.Arch, round, got.Iters, got.Converged, want.Iters, want.Converged)
			}
			for id := range want.Mean {
				if got.Mean[id] != want.Mean[id] || got.Std[id] != want.Std[id] {
					t.Fatalf("%s round %d event %d (%s): mean %v vs %v, std %v vs %v",
						cat.Arch, round, id, cat.Event(uarch.EventID(id)).Name,
						got.Mean[id], want.Mean[id], got.Std[id], want.Std[id])
				}
			}
		}
	}
}

// TestExecuteLaneInvariance is the exact kernel's batching contract: a
// window's posterior is bit-identical whether it runs alone in a one-lane
// batch or packed into any lane of any wider batch, including partially
// filled ones.
func TestExecuteLaneInvariance(t *testing.T) {
	forceExact(t)
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
			batch.EnableCovariance() // solo Results carry cov; compare it too
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
}
