//go:build amd64

package graph

import "math"

// hasFastVec reports whether the host CPU can run the AVX2+FMA fast kernel:
// AVX2 and FMA present, and the OS saving YMM state (OSXSAVE + XCR0 bits
// 1-2). Detected once at startup; tests override fastVecEnabled directly.
func hasFastVec() bool {
	_, _, c, _ := cpuidex(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if c&osxsave == 0 || c&avx == 0 || c&fma == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}

// cpuidex executes CPUID with the given leaf/subleaf (fast_amd64.s).
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (fast_amd64.s).
func xgetbv0() (eax, edx uint32)

// fastRelAVX runs one relation's cavity + update passes (fast.go) over nVec
// 4-lane groups. bp/bh are the belief slab bases; mp/mh point at the
// relation's first message row; rv at the relation's noise row;
// coef/rowOff at the relation's first edge. mask gates all persistent
// writes (frozen and padding lanes keep their state bit for bit). stride8
// is the slab row stride in bytes.
//
//go:noescape
func fastRelAVX(bp, bh, mp, mh, rv, coef *float64, rowOff *int64, k int64, stride8 int64, mask *float64, nVec int64)

// fastConvAVX runs the divide-free convergence pass over nv variable rows ×
// nVec 4-lane groups, OR-ing all-ones into moved for every active lane
// whose belief mean moved by at least tol (relative, cross-multiplied), and
// refreshing the prev slabs.
//
//go:noescape
func fastConvAVX(bp, bh, pp, ph, mask, moved *float64, tol float64, nv int64, stride8 int64, nVec int64)

// laneMaskOn is the all-ones float64 bit pattern marking an active lane in
// the vector kernel's activeMask slab.
var laneMaskOn = math.Float64frombits(^uint64(0))

// ensureVecScratch sizes the lane-mask slab, the precomputed byte row
// offsets and the previous-sweep belief slabs on first use; steady-state
// vector sweeps reuse them, which is what lets sweepFastVec carry the
// hotpath annotation.
func (b *Batch) ensureVecScratch() {
	p := b.plan
	if len(b.activeMask) < b.stride {
		b.activeMask = make([]float64, b.stride)
		b.rowOff = make([]int64, p.nEdges)
		for e := 0; e < p.nEdges; e++ {
			b.rowOff[e] = int64(p.edgeVar[e]) * int64(b.stride) * 8
		}
		b.prevP = make([]float64, p.nv*b.stride)
		b.prevH = make([]float64, p.nv*b.stride)
	}
}

// sweepFastVec runs the fused-cavity schedule on the first n lanes until
// per-lane convergence or maxIter, with the same freeze-on-convergence
// semantics as sweepExact. The Go side keeps the per-sweep loop and the
// freeze bookkeeping; the two assembly routines do all lane math four
// lanes at a time.
//
//bayesperf:hotpath
func (b *Batch) sweepFastVec(n, maxIter int, tol float64) {
	p := b.plan
	nv, B := p.nv, b.stride
	b.ensureVecScratch()
	copy(b.prevP, b.beliefPrec)
	copy(b.prevH, b.beliefH)
	mask := b.activeMask[:B]
	for lane := 0; lane < B; lane++ {
		if lane < n {
			mask[lane] = laneMaskOn
		} else {
			mask[lane] = 0
		}
	}

	active := b.active[:n]
	remaining := n
	nVec := int64((n + LaneGroup - 1) / LaneGroup)
	stride8 := int64(B) * 8
	moved := b.maxDelta[:n]
	bPrec, bH := b.beliefPrec, b.beliefH
	for it := 1; it <= maxIter && remaining > 0; it++ {
		for ri := 0; ri < p.nRels; ri++ {
			eStart := p.factorOff[ri]
			k := int64(p.factorOff[ri+1] - eStart)
			fastRelAVX(
				&bPrec[0], &bH[0],
				&b.msgPrec[eStart*B], &b.msgH[eStart*B],
				&b.relVar[ri*B],
				&p.edgeCoeff[eStart], &b.rowOff[eStart],
				k, stride8, &mask[0], nVec,
			)
		}
		for lane := range moved {
			moved[lane] = 0
		}
		fastConvAVX(
			&bPrec[0], &bH[0], &b.prevP[0], &b.prevH[0],
			&mask[0], &moved[0], tol,
			int64(nv), stride8, nVec,
		)
		for lane := range active {
			if active[lane] && moved[lane] == 0 { //bayesvet:bitwise moved is a 0/1 flag slab, assigned never computed
				active[lane] = false
				mask[lane] = 0
				b.converged[lane] = true
				b.iters[lane] = it
				remaining--
			}
		}
	}
}
