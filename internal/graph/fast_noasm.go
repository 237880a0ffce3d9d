//go:build !amd64

package graph

// hasFastVec reports vector-kernel support; only the amd64 AVX2 kernel
// exists, so every other architecture runs the exact kernel.
func hasFastVec() bool { return false }

// sweepFastVec is unreachable off amd64 (fastVecEnabled is always false
// there); the stub keeps ExecuteInto's kernel selection portable.
func (b *Batch) sweepFastVec(n, maxIter int, tol float64) {
	panic("graph: vector kernel unavailable on this architecture")
}
