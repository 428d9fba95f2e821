#include "textflag.h"

// Native bodies of the lean packed trellis ops (see kern.go for the
// contract). Conventions shared by every kernel below:
//
//   K1   the lane mask: bit i set for lane i < L. Arena lines are only
//        ever loaded (zeroing) and stored under it, so no byte past an
//        L-lane line is read or written.
//   Z15  zero: the second table of every VPERMI2W. A table entry is a lane
//        below L or the sentinel 32, whose bit 5 selects Z15.
//
// Go operand order: VPERMI2W tableB, tableA, idx (idx becomes the result);
// VPSUBSW b, a, d computes d = a - b.

// func alphaStepAVX512(q *int16, alpha *[regStride]int16, out *int16, g0, g1, g2, g3, gn *[regStride]uint16, mask uint64)
TEXT ·alphaStepAVX512(SB), NOSPLIT, $0-72
	MOVQ  q+0(FP), AX
	MOVQ  alpha+8(FP), BX
	MOVQ  out+16(FP), CX
	MOVQ  g0+24(FP), R8
	MOVQ  g1+32(FP), R9
	MOVQ  g2+40(FP), R10
	MOVQ  g3+48(FP), R11
	MOVQ  gn+56(FP), R12
	MOVQ  mask+64(FP), DX
	KMOVD DX, K1
	VPXORQ Z15, Z15, Z15

	VMOVDQU16.Z (AX), K1, Z0 // quad branch metrics
	VMOVDQU16.Z (BX), K1, Z1 // alpha
	VMOVDQU16 (R8), Z2
	VMOVDQU16 (R9), Z3
	VMOVDQU16 (R10), Z4
	VMOVDQU16 (R11), Z5
	VPERMI2W Z15, Z0, Z2     // bm0
	VPERMI2W Z15, Z0, Z3     // bm1
	VPERMI2W Z15, Z1, Z4     // a0
	VPERMI2W Z15, Z1, Z5     // a1
	VPADDSW  Z2, Z4, Z4      // c0 = a0 + bm0
	VPADDSW  Z3, Z5, Z5      // c1 = a1 + bm1
	VPMAXSW  Z5, Z4, Z4      // new alpha
	VMOVDQU16 (R12), Z6
	VPERMI2W Z15, Z4, Z6     // norm
	VPSUBSW  Z6, Z4, Z4      // alpha - norm
	VMOVDQU16 Z4, K1, (BX)
	VMOVDQU16 Z4, K1, (CX)
	VZEROUPPER
	RET

// func betaStepAVX512(q *int16, beta *[regStride]int16, g0, g1, g2, g3, gn *[regStride]uint16, mask uint64, al *int16, h0, h1, h2 *[regStride]uint16, dv *[regStride]int16)
TEXT ·betaStepAVX512(SB), NOSPLIT, $0-104
	MOVQ  q+0(FP), AX
	MOVQ  beta+8(FP), BX
	MOVQ  g0+16(FP), R8
	MOVQ  g1+24(FP), R9
	MOVQ  g2+32(FP), R10
	MOVQ  g3+40(FP), R11
	MOVQ  gn+48(FP), R12
	MOVQ  mask+56(FP), DX
	MOVQ  al+64(FP), SI
	KMOVD DX, K1
	VPXORQ Z15, Z15, Z15

	VMOVDQU16.Z (AX), K1, Z0 // quad branch metrics
	VMOVDQU16.Z (BX), K1, Z1 // beta
	VMOVDQU16 (R8), Z2
	VMOVDQU16 (R9), Z3
	VMOVDQU16 (R10), Z4
	VMOVDQU16 (R11), Z5
	VPERMI2W Z15, Z0, Z2     // bm0
	VPERMI2W Z15, Z0, Z3     // bm1
	VPERMI2W Z15, Z1, Z4     // b0
	VPERMI2W Z15, Z1, Z5     // b1
	VPADDSW  Z2, Z4, Z4      // v0 = b0 + bm0
	VPADDSW  Z3, Z5, Z5      // v1 = b1 + bm1
	VPMAXSW  Z5, Z4, Z6      // new beta

	TESTQ SI, SI
	JZ    norm

	// Posterior extraction: e = al + v, three vpermw+pmax stages over each
	// of e0 and e1 with shared tables, dv = m0 - m1.
	MOVQ  h0+72(FP), R8
	MOVQ  h1+80(FP), R9
	MOVQ  h2+88(FP), R10
	MOVQ  dv+96(FP), DI
	VMOVDQU16.Z (SI), K1, Z7
	VPADDSW  Z4, Z7, Z8      // e0
	VPADDSW  Z5, Z7, Z9      // e1
	VMOVDQU16 (R8), Z10
	VMOVDQA64 Z10, Z11
	VPERMI2W Z15, Z8, Z10
	VPERMI2W Z15, Z9, Z11
	VPMAXSW  Z10, Z8, Z8
	VPMAXSW  Z11, Z9, Z9
	VMOVDQU16 (R9), Z10
	VMOVDQA64 Z10, Z11
	VPERMI2W Z15, Z8, Z10
	VPERMI2W Z15, Z9, Z11
	VPMAXSW  Z10, Z8, Z8
	VPMAXSW  Z11, Z9, Z9
	VMOVDQU16 (R10), Z10
	VMOVDQA64 Z10, Z11
	VPERMI2W Z15, Z8, Z10
	VPERMI2W Z15, Z9, Z11
	VPMAXSW  Z10, Z8, Z8     // m0
	VPMAXSW  Z11, Z9, Z9     // m1
	VPSUBSW  Z9, Z8, Z8      // dv = m0 - m1
	VMOVDQU16 Z8, (DI)

norm:
	VMOVDQU16 (R12), Z7
	VPERMI2W Z15, Z6, Z7     // norm
	VPSUBSW  Z7, Z6, Z6      // beta - norm
	VMOVDQU16 Z6, K1, (BX)
	VZEROUPPER
	RET

// func quadMergeAVX512(dst *int16, srcs *[maxQuadSrcs]*int16, tabs *[maxQuadSrcs]*[regStride]uint16, ns int, mask uint64)
TEXT ·quadMergeAVX512(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), AX
	MOVQ  srcs+8(FP), SI
	MOVQ  tabs+16(FP), DI
	MOVQ  ns+24(FP), CX
	MOVQ  mask+32(FP), DX
	KMOVD DX, K1
	VPXORQ Z15, Z15, Z15
	VPXORQ Z0, Z0, Z0

merge:
	MOVQ  (SI), R8
	MOVQ  (DI), R9
	VMOVDQU16.Z (R8), K1, Z1
	VMOVDQU16 (R9), Z2
	VPERMI2W Z15, Z1, Z2
	VPORQ Z2, Z0, Z0
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   merge

	VMOVDQU16 Z0, K1, (AX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
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
