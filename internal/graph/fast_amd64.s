// AVX2+FMA kernels for the fused-cavity message schedule (fast.go): the
// relation cavity+update body and the convergence test, four lanes per
// instruction. Per-lane branches are replaced by compare masks and blends.
// All persistent stores (messages, beliefs, moved flags) are blended
// against the active-lane mask, so frozen and padding lanes keep their
// state bit for bit and a lane's results never depend on its neighbors or
// the batch width.
//
// The accuracy-delta gate (TestFastMathAccuracyDelta) bounds the drift
// from the exact kernel.

#include "textflag.h"

// Float64 constants, broadcast at use sites.
DATA minPrecK<>+0(SB)/8, $0x3D719799812DEA11 // 1e-12, the vanishing-precision floor
DATA maxVarK<>+0(SB)/8, $0x426D1A94A2000000  // 1e12 = 1/minPrec, the flat-cavity variance
DATA oneK<>+0(SB)/8, $0x3FF0000000000000     // 1.0
DATA dampK<>+0(SB)/8, $0x3FE6666666666666    // damping = 0.7
DATA odampK<>+0(SB)/8, $0x3FD3333333333333   // 1 - damping
DATA negDampK<>+0(SB)/8, $0xBFE6666666666666 // -damping (folds the message-h sign flip)
GLOBL minPrecK<>(SB), RODATA, $8
GLOBL maxVarK<>(SB), RODATA, $8
GLOBL oneK<>(SB), RODATA, $8
GLOBL dampK<>(SB), RODATA, $8
GLOBL odampK<>(SB), RODATA, $8
GLOBL negDampK<>(SB), RODATA, $8

DATA absK<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA absK<>+8(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA absK<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA absK<>+24(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL absK<>(SB), RODATA, $32

// func fastRelAVX(bp, bh, mp, mh, rv, coef *float64, rowOff *int64,
//	k int64, stride8 int64, mask *float64, nVec int64)
//
// Frame: four maxK(=8)-slot YMM scratch arrays — wm at +0, wv at +256,
// sm at +512, sv at +768.
//
// Register plan: DI/SI belief slabs, R8/R9 message rows, R11 coefficients,
// R12 row offsets, R13 k, R14 row stride (bytes), R15 mask, CX block
// countdown, BX block byte offset, DX edge index, AX temp, R10 scratch
// base. Y7 relation noise, Y8/Y9 running sums, Y10 active mask,
// Y11-Y13 damping/one constants, Y14 maxVar, Y15 minPrec in the cavity
// pass and -damping in the update pass.
TEXT ·fastRelAVX(SB), $1024-88
	MOVQ bp+0(FP), DI
	MOVQ bh+8(FP), SI
	MOVQ mp+16(FP), R8
	MOVQ mh+24(FP), R9
	MOVQ coef+40(FP), R11
	MOVQ rowOff+48(FP), R12
	MOVQ k+56(FP), R13
	MOVQ stride8+64(FP), R14
	MOVQ mask+72(FP), R15
	MOVQ nVec+80(FP), CX
	LEAQ scratch-1024(SP), R10
	VBROADCASTSD oneK<>+0(SB), Y13
	VBROADCASTSD dampK<>+0(SB), Y12
	VBROADCASTSD odampK<>+0(SB), Y11
	XORQ BX, BX

relBlock:
	VMOVUPD (R15)(BX*1), Y10
	VPTEST  Y10, Y10
	JZ      relNext         // every lane frozen or padding: state untouched

	MOVQ         rv+32(FP), AX
	VMOVUPD      (AX)(BX*1), Y7
	VBROADCASTSD minPrecK<>+0(SB), Y15
	VBROADCASTSD maxVarK<>+0(SB), Y14

	// Backward cavity pass: j = k-1 … 0.
	VXORPD Y8, Y8, Y8       // accM
	VXORPD Y9, Y9, Y9       // accV
	MOVQ   R13, DX

relCavity:
	DECQ    DX
	MOVQ    (R12)(DX*8), AX
	ADDQ    BX, AX
	VMOVUPD (DI)(AX*1), Y0  // belief prec
	VMOVUPD (SI)(AX*1), Y5  // belief h
	MOVQ    DX, AX
	IMULQ   R14, AX
	ADDQ    BX, AX
	VMOVUPD (R8)(AX*1), Y1  // msg prec
	VMOVUPD (R9)(AX*1), Y6  // msg h

	VSUBPD    Y1, Y0, Y0    // cp = belief - msg precision
	VCMPPD    $13, Y15, Y0, Y2 // cp >= minPrec (GE_OS)
	VDIVPD    Y0, Y13, Y3   // 1/cp (garbage where flat, blended away)
	VBLENDVPD Y2, Y3, Y14, Y3 // vv = informative ? 1/cp : maxVar
	VSUBPD    Y6, Y5, Y5    // belief h - msg h
	VMULPD    Y3, Y5, Y5
	VXORPD    Y4, Y4, Y4
	VBLENDVPD Y2, Y5, Y4, Y5 // mm = informative ? (Δh)·vv : 0

	VBROADCASTSD (R11)(DX*8), Y6 // c
	VMULPD       Y6, Y5, Y5     // wm = c·mm
	MOVQ         DX, AX
	SHLQ         $5, AX
	VMOVUPD      Y8, 512(R10)(AX*1) // sm[j] = suffix mean sum
	VMOVUPD      Y9, 768(R10)(AX*1) // sv[j] = suffix var sum
	VMOVUPD      Y5, 0(R10)(AX*1)   // wm[j]
	VADDPD       Y5, Y8, Y8
	VMULPD       Y6, Y6, Y6
	VMULPD       Y3, Y6, Y6         // wv = c²·vv
	VMOVUPD      Y6, 256(R10)(AX*1) // wv[j]
	VADDPD       Y6, Y9, Y9
	TESTQ        DX, DX
	JNZ          relCavity

	// Forward update pass: j = 0 … k-1, prefix sums in Y8/Y9.
	VBROADCASTSD negDampK<>+0(SB), Y15
	VXORPD       Y8, Y8, Y8
	VXORPD       Y9, Y9, Y9
	XORQ         DX, DX

relUpdate:
	MOVQ    DX, AX
	SHLQ    $5, AX
	VMOVUPD 512(R10)(AX*1), Y0 // sm[j]
	VADDPD  Y8, Y0, Y0         // muJ = prefix + suffix
	VMOVUPD 768(R10)(AX*1), Y1 // sv[j]
	VADDPD  Y9, Y1, Y1
	VADDPD  Y7, Y1, Y1         // varJ = σ_r² + prefix + suffix
	VMOVUPD 0(R10)(AX*1), Y2   // wm[j]
	VADDPD  Y2, Y8, Y8
	VMOVUPD 256(R10)(AX*1), Y3 // wv[j]
	VADDPD  Y3, Y9, Y9

	VDIVPD       Y1, Y13, Y1   // inv = 1/varJ
	VBROADCASTSD (R11)(DX*8), Y2
	VMULPD       Y2, Y2, Y3
	VMULPD       Y1, Y3, Y3    // newP = c²·inv
	VMULPD       Y0, Y2, Y4
	VMULPD       Y1, Y4, Y4    // c·muJ·inv (newH = its negation)

	MOVQ    DX, AX
	IMULQ   R14, AX
	ADDQ    BX, AX
	VMOVUPD (R8)(AX*1), Y5     // old msg prec
	VMOVUPD (R9)(AX*1), Y6     // old msg h

	VMULPD      Y12, Y3, Y3    // damping·newP
	VFMADD231PD Y11, Y5, Y3    // + (1-damping)·oldP
	VMULPD      Y15, Y4, Y4    // (-damping)·(c·muJ·inv) = damping·newH
	VFMADD231PD Y11, Y6, Y4    // + (1-damping)·oldH

	VBLENDVPD Y10, Y3, Y5, Y0  // masked message stores
	VMOVUPD   Y0, (R8)(AX*1)
	VBLENDVPD Y10, Y4, Y6, Y1
	VMOVUPD   Y1, (R9)(AX*1)

	VSUBPD Y5, Y3, Y5          // ΔP = damped - old
	VSUBPD Y6, Y4, Y6          // ΔH

	MOVQ      (R12)(DX*8), AX
	ADDQ      BX, AX
	VMOVUPD   (DI)(AX*1), Y2
	VADDPD    Y5, Y2, Y5
	VBLENDVPD Y10, Y5, Y2, Y5  // masked belief prec update
	VMOVUPD   Y5, (DI)(AX*1)
	VMOVUPD   (SI)(AX*1), Y2
	VADDPD    Y6, Y2, Y6
	VBLENDVPD Y10, Y6, Y2, Y6  // masked belief h update
	VMOVUPD   Y6, (SI)(AX*1)

	INCQ DX
	CMPQ DX, R13
	JL   relUpdate

relNext:
	ADDQ $32, BX
	DECQ CX
	JNZ  relBlock
	VZEROUPPER
	RET

// func fastConvAVX(bp, bh, pp, ph, mask, moved *float64, tol float64,
//	nv int64, stride8 int64, nVec int64)
//
// Divide-free convergence test: for every active lane of every variable,
// OR all-ones into moved when |hN·pO − hO·pN| ≥ tol·pN·pO (with the
// vanishing-precision guard selecting the degenerate forms), and refresh
// the prev slabs with the current beliefs.
TEXT ·fastConvAVX(SB), NOSPLIT, $0-80
	MOVQ bp+0(FP), DI
	MOVQ bh+8(FP), SI
	MOVQ pp+16(FP), R8
	MOVQ ph+24(FP), R9
	MOVQ mask+32(FP), R10
	MOVQ moved+40(FP), R11
	MOVQ nv+56(FP), R13
	MOVQ stride8+64(FP), R14
	MOVQ nVec+72(FP), CX

	VBROADCASTSD oneK<>+0(SB), Y13
	VBROADCASTSD tol+48(FP), Y14
	VBROADCASTSD minPrecK<>+0(SB), Y15
	XORQ         BX, BX

convBlock:
	VMOVUPD (R10)(BX*1), Y10
	VPTEST  Y10, Y10
	JZ      convNext

	VMOVUPD (R11)(BX*1), Y12 // moved accumulator for this block
	XORQ    DX, DX
	XORQ    AX, AX           // row byte offset

convVar:
	LEAQ    (AX)(BX*1), R12
	VMOVUPD (DI)(R12*1), Y0  // pN
	VMOVUPD (SI)(R12*1), Y1  // hN
	VMOVUPD (R8)(R12*1), Y2  // pO
	VMOVUPD (R9)(R12*1), Y3  // hO
	VMOVUPD Y0, (R8)(R12*1)  // prev ← current
	VMOVUPD Y1, (R9)(R12*1)

	VCMPPD $13, Y15, Y0, Y4  // pN informative
	VCMPPD $13, Y15, Y2, Y5  // pO informative

	// Start from the both-flat case (d=0, bound=1: no movement), then
	// blend in the one-sided and two-sided forms.
	VXORPD    Y6, Y6, Y6
	VMOVUPD   Y13, Y7
	VMULPD    Y14, Y2, Y8    // tol·pO
	VBLENDVPD Y5, Y3, Y6, Y6 // pO-only: d = hO
	VBLENDVPD Y5, Y8, Y7, Y7
	VMULPD    Y14, Y0, Y8    // tol·pN
	VBLENDVPD Y4, Y1, Y6, Y6 // pN-only (or both, fixed below): d = hN
	VBLENDVPD Y4, Y8, Y7, Y7

	VANDPD Y5, Y4, Y8        // both informative
	VMULPD Y2, Y1, Y9        // hN·pO
	VMULPD Y2, Y0, Y2        // pN·pO
	VMULPD Y14, Y2, Y2       // tol·pN·pO
	VMULPD Y0, Y3, Y3        // hO·pN
	VSUBPD Y3, Y9, Y9        // hN·pO − hO·pN
	VBLENDVPD Y8, Y9, Y6, Y6
	VBLENDVPD Y8, Y2, Y7, Y7

	VANDPD absK<>+0(SB), Y6, Y6
	VCMPPD $13, Y7, Y6, Y6   // |d| >= bound
	VANDPD Y10, Y6, Y6       // only active lanes count
	VORPD  Y6, Y12, Y12

	ADDQ R14, AX             // next variable row
	INCQ DX
	CMPQ DX, R13
	JL   convVar

	VMOVUPD Y12, (R11)(BX*1)

convNext:
	ADDQ $32, BX
	DECQ CX
	JNZ  convBlock
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
