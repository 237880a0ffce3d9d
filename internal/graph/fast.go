// The fused-cavity message schedule run by the AVX2+FMA vector kernel
// (fast_amd64.s). The exact kernel (sweepExact) gathers, for every edge of
// a relation, the cavity moments of every *sibling* edge — an O(k²) walk
// per relation per sweep in which each cavity precision is re-inverted once
// per sibling. The vector kernel restructures the same fixed-point update
// into two O(k) passes per relation:
//
//  1. a backward cavity pass computes each edge's cavity moments (mean,
//     variance) exactly once — one precision inversion per edge — records
//     the weighted contributions w_mu = c·m and w_var = c²·v, and, running
//     j = k−1…0, also records each edge's *suffix* sums Σ_{j'>j} w;
//  2. a forward update pass accumulates the matching *prefix* sums
//     Σ_{j'<j} w, so each edge's sibling aggregate is prefix + suffix —
//     built from additions only, never by subtracting the edge out of a
//     grand total, which kills the catastrophic-cancellation hazard of a
//     pegged 1/minPrec cavity shadowing its tiny siblings. The damped
//     message then folds in with a single divide per edge: the
//     natural-parameter form of the new message is (c²/varJ, −c·muJ/varJ),
//     so no intermediate moments conversion.
//
// Convergence is detected without divisions: |h/p − h₀/p₀| < tol is tested
// as |h·p₀ − h₀·p| < tol·p·p₀ against the previous sweep's stored belief
// naturals (guarded the same way moments guards vanishing precision).
//
// Within one relation's pass the cavities are all read before any of the
// relation's messages update (Jacobi within the factor, Gauss–Seidel across
// factors). Updating edge e leaves its own cavity belief−msg unchanged, so
// on relations whose terms name distinct events — every shipped catalog —
// both kernels compute the same mathematical update and differ only in
// floating-point summation order and FMA contraction. The posteriors
// therefore agree with the exact kernel to a tight relative tolerance, not
// bit for bit; TestFastMathAccuracyDelta pins that delta on all four
// catalogs, including unconverged budgets and covariance mode. Within
// itself the vector kernel is lane-invariant bit for bit: its arithmetic is
// elementwise per lane, so a lane's posterior does not depend on the batch
// width or its neighbors.
package graph

// vecMaxK is the widest relation clique the vector kernel handles: its
// per-relation scratch lives in fixed 8-slot stack arrays. Plans with a
// wider clique run the exact kernel.
const vecMaxK = 8

// fastVecEnabled gates the vector kernel at runtime: CPU support detected
// on amd64 (fast_amd64.go), always false elsewhere. Tests clear it to force
// the exact kernel on vector-capable hosts; internal/stream's kernel tests
// reach it through go:linkname, so keep its name and type.
var fastVecEnabled = hasFastVec()
