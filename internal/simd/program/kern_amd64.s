#include "textflag.h"
#include "go_asm.h"

// runStreamAVX512 walks the descriptor stream lower (finalize.go) built;
// kern.go defines the record kinds and states the contract. One body
// serves W128, W256 and W512: every instruction is 512 bits wide and the
// lane mask decides what reaches memory.
//
// Registers held for the whole call:
//
//   SI   the record being executed
//   R8   arena          R9   register file
//   R10  index tables   R11  their AND masks (0xffff valid, 0 sentinel)
//   K1   the lane mask: bit i set for lane i < L
//
// In a record's body DX is the header's count n; AX, BX, CX, DI, R12 and
// R13 are scratch. A sweep also holds
//
//   Z15      the carried alpha or beta, written back when the sweep ends
//   Z16-Z20  tables g0 g1 g2 g3 gn     Z21-Z23  tables h0 h1 h2
//   Z24-Z25  AND masks of g0 g1        Z26      the lanes a beta step
//   K2-K4    valid lanes of g2 g3 gn            extracts, as a permute
//   K5-K7    valid lanes of h0 h1 h2
//
// Six of a step's eight tables zero their sentinel lanes through a k-mask,
// which costs no instruction; there are seven mask registers, so the two
// permutes of the quad line, which are off the carried chain, AND instead.
//
// A table entry is a lane below L or the sentinel 32, which VPERMW reads as
// lane 0: the AND mask (or k-mask) turns exactly those lanes to the zero
// the Go bodies gather from the upper half of a gatherSrc. Entries for
// lanes >= L are sentinels, so every vector computed from a permute is
// zero there.
//
// Go operand order: VPERMW src, idx, dst; VPSUBSW b, a, d computes
// d = a - b; VPANDNQ b, a, d computes d = ^a & b.

// PERMA is vpermw with the sentinel lanes zeroed by AND.
#define PERMA(src, idx, and, dst) \
	VPERMW src, idx, dst; \
	VPANDQ and, dst, dst

// BINOP is one lane-wise op over the register file: d = a INSN b.
#define BINOP(INSN) \
	MOVL 8(SI), AX; \
	MOVL 12(SI), BX; \
	MOVL 4(SI), CX; \
	VMOVDQU16 (R9)(AX*1), Z0; \
	INSN (R9)(BX*1), Z0, Z0; \
	VMOVDQU16 Z0, K1, (R9)(CX*1); \
	ADDQ $16, SI; \
	JMP  dispatch

// SWEEPTABS loads a sweep's five recursion tables and its carried register
// (offset kept in R12) from the record at SI.
#define SWEEPTABS \
	MOVL 8(SI), AX; \
	VMOVDQU16 (R10)(AX*1), Z16; \
	VMOVDQU16 (R11)(AX*1), Z24; \
	MOVL 12(SI), AX; \
	VMOVDQU16 (R10)(AX*1), Z17; \
	VMOVDQU16 (R11)(AX*1), Z25; \
	MOVL 16(SI), AX; \
	VMOVDQU16 (R10)(AX*1), Z18; \
	VMOVDQU16 (R11)(AX*1), Z0; \
	VPMOVW2M Z0, K2; \
	MOVL 20(SI), AX; \
	VMOVDQU16 (R10)(AX*1), Z19; \
	VMOVDQU16 (R11)(AX*1), Z0; \
	VPMOVW2M Z0, K3; \
	MOVL 24(SI), AX; \
	VMOVDQU16 (R10)(AX*1), Z20; \
	VMOVDQU16 (R11)(AX*1), Z0; \
	VPMOVW2M Z0, K4; \
	MOVL 4(SI), R12; \
	VMOVDQU16 (R9)(R12*1), Z15

// BRANCHES is the first half of a trellis step: the quad line at arena
// offset AX and the carried Z15 permuted into the two branch sums Z3, Z4.
#define BRANCHES \
	VMOVDQU16.Z (R8)(AX*1), K1, Z0; \
	PERMA(Z0, Z16, Z24, Z1); \
	PERMA(Z0, Z17, Z25, Z2); \
	VPERMW.Z Z15, Z18, K2, Z3; \
	VPERMW.Z Z15, Z19, K3, Z4; \
	VPADDSW Z1, Z3, Z3; \
	VPADDSW Z2, Z4, Z4

// RENORM is the second half: Z15 = max(Z3, Z4) less its normalising lane.
#define RENORM \
	VPMAXSW Z4, Z3, Z5; \
	VPERMW.Z Z5, Z20, K4, Z6; \
	VPSUBSW Z6, Z5, Z15

// HMAX is one stage of both horizontal-max butterflies, over Z8 and Z9.
#define HMAX(idx, valid) \
	VPERMW.Z Z8, idx, valid, Z10; \
	VPERMW.Z Z9, idx, valid, Z11; \
	VPMAXSW Z10, Z8, Z8; \
	VPMAXSW Z11, Z9, Z9

// func runStreamAVX512(code *uint32, pc int, arena, regs *int16, gat, gatAnd *[regStride]uint16, pats *[regStride]int16, mask uint64) int
TEXT ·runStreamAVX512(SB), NOSPLIT, $0-72
	MOVQ  code+0(FP), SI
	MOVQ  pc+8(FP), AX
	LEAQ  (SI)(AX*4), SI
	MOVQ  arena+16(FP), R8
	MOVQ  regs+24(FP), R9
	MOVQ  gat+32(FP), R10
	MOVQ  gatAnd+40(FP), R11
	MOVQ  mask+56(FP), AX
	KMOVD AX, K1

dispatch:
	MOVL (SI), DX
	MOVL DX, AX
	SHRL $8, DX
	ANDL $0xff, AX
	// Most frequent first.
	CMPL AX, $const_nMergeReg
	JEQ  mergeReg
	CMPL AX, $const_nLoad
	JEQ  load
	CMPL AX, $const_nSubS
	JEQ  subS
	CMPL AX, $const_nAddS
	JEQ  addS
	CMPL AX, $const_nExtVec
	JEQ  extVec
	CMPL AX, $const_nMergeMem
	JEQ  mergeMem
	CMPL AX, $const_nClear
	JEQ  clear
	CMPL AX, $const_nStore
	JEQ  store
	CMPL AX, $const_nSra
	JEQ  sra
	CMPL AX, $const_nStop
	JEQ  stop
	CMPL AX, $const_nAlphaSweep
	JEQ  alphaSweep
	CMPL AX, $const_nBetaExtSweep
	JEQ  betaExtSweep
	CMPL AX, $const_nBetaSweep
	JEQ  betaSweep
	CMPL AX, $const_nExtrW
	JEQ  extrW
	CMPL AX, $const_nAnd
	JEQ  and
	CMPL AX, $const_nOr
	JEQ  or
	CMPL AX, $const_nPermute
	JEQ  permute
	CMPL AX, $const_nLoadReg
	JEQ  loadReg
	CMPL AX, $const_nXor
	JEQ  xor
	CMPL AX, $const_nMaxS
	JEQ  maxS
	CMPL AX, $const_nMinS
	JEQ  minS
	CMPL AX, $const_nAndN
	JEQ  andN
	CMPL AX, $const_nBcastImm
	JEQ  bcastImm
	CMPL AX, $const_nBcastMem
	JEQ  bcastMem
	CMPL AX, $const_nSetImm
	JEQ  setImm
	CMPL AX, $const_nCopyRun
	JEQ  copyRun
	// lower emits no other code; an unknown one stops the stream here.

stop:
	MOVQ code+0(FP), AX
	SUBQ AX, SI
	SHRQ $2, SI
	MOVQ SI, ret+64(FP)
	VZEROUPPER
	RET

clear:
	MOVL      4(SI), AX
	VPXORQ    Z0, Z0, Z0
	VMOVDQU16 Z0, (R9)(AX*1)
	ADDQ      $8, SI
	JMP       dispatch

addS:
	BINOP(VPADDSW)

subS:
	BINOP(VPSUBSW)

maxS:
	BINOP(VPMAXSW)

minS:
	BINOP(VPMINSW)

and:
	BINOP(VPANDQ)

or:
	BINOP(VPORQ)

xor:
	BINOP(VPXORQ)

andN:
	BINOP(VPANDNQ)

sra:
	VMOVQ     DX, X1
	MOVL      8(SI), AX
	MOVL      4(SI), CX
	VMOVDQU16 (R9)(AX*1), Z0
	VPSRAW    X1, Z0, Z0
	VMOVDQU16 Z0, K1, (R9)(CX*1)
	ADDQ      $12, SI
	JMP       dispatch

bcastImm:
	MOVL         4(SI), CX
	VPBROADCASTW DX, Z0
	VMOVDQU16    Z0, K1, (R9)(CX*1)
	ADDQ         $8, SI
	JMP          dispatch

bcastMem:
	MOVL         8(SI), AX
	MOVL         4(SI), CX
	VPBROADCASTW (R8)(AX*1), Z0
	VMOVDQU16    Z0, K1, (R9)(CX*1)
	ADDQ         $12, SI
	JMP          dispatch

setImm:
	MOVQ      pats+48(FP), BX
	MOVL      8(SI), AX
	MOVL      4(SI), CX
	VMOVDQU16 (BX)(AX*1), Z0
	VMOVDQU16 Z0, (R9)(CX*1)
	ADDQ      $12, SI
	JMP       dispatch

permute:
	MOVL      8(SI), AX
	MOVL      12(SI), BX
	MOVL      4(SI), CX
	VMOVDQU16 (R10)(BX*1), Z1
	VPERMW    (R9)(AX*1), Z1, Z0
	VPANDQ    (R11)(BX*1), Z0, Z0
	VMOVDQU16 Z0, K1, (R9)(CX*1)
	ADDQ      $16, SI
	JMP       dispatch

load:
	MOVL        12(SI), BX
	MOVL        8(SI), AX
	MOVL        4(SI), CX
	KMOVD       BX, K5
	VMOVDQU16.Z (R8)(AX*1), K5, Z0
	VMOVDQU16   Z0, (R9)(CX*1)
	ADDQ        $16, SI
	JMP         dispatch

loadReg:
	MOVL        12(SI), BX
	MOVL        8(SI), AX
	MOVL        4(SI), CX
	KMOVD       BX, K5
	VMOVDQU16.Z (R9)(AX*1), K5, Z0
	VMOVDQU16   Z0, (R9)(CX*1)
	ADDQ        $16, SI
	JMP         dispatch

store:
	MOVL      12(SI), BX
	MOVL      4(SI), AX
	MOVL      8(SI), CX
	KMOVD     BX, K5
	VMOVDQU16 (R9)(AX*1), Z0
	VMOVDQU16 Z0, K5, (R8)(CX*1)
	ADDQ      $16, SI
	JMP       dispatch

extrW:
	MOVL    4(SI), AX
	MOVL    8(SI), BX
	MOVWLZX (R9)(AX*1), AX
	MOVW    AX, (R8)(BX*1)
	ADDQ    $12, SI
	JMP     dispatch

copyRun:
	ADDQ $4, SI

copyOne:
	MOVL    4(SI), AX
	MOVL    (SI), BX
	MOVWLZX (R8)(AX*1), AX
	MOVW    AX, (R8)(BX*1)
	ADDQ    $8, SI
	DECL    DX
	JNZ     copyOne
	JMP     dispatch

extVec:
	VMOVQ       DX, X6
	MOVL        12(SI), AX
	VMOVDQU16.Z (R8)(AX*1), K1, Z0 // dv
	MOVL        16(SI), AX
	VMOVDQU16.Z (R8)(AX*1), K1, Z1 // s
	MOVL        20(SI), AX
	VMOVDQU16.Z (R8)(AX*1), K1, Z2 // la
	VPADDSW     Z2, Z1, Z1         // t = s + la
	VPSRAW      X6, Z0, Z0
	VPSUBSW     Z1, Z0, Z0         // half = (dv >> n) - t
	MOVL        4(SI), AX
	VPMINSW     (R9)(AX*1), Z0, Z0 // lim
	MOVL        8(SI), AX
	VPMAXSW     (R9)(AX*1), Z0, Z0 // nlim
	MOVL        24(SI), AX
	VMOVDQU16   Z0, K1, (R8)(AX*1)
	ADDQ        $28, SI
	JMP         dispatch

mergeReg:
	VPXORQ Z0, Z0, Z0
	MOVL   4(SI), CX
	ADDQ   $8, SI

mergeRegSrc:
	MOVL       (SI), AX
	MOVL       4(SI), BX
	VMOVDQU16  (R10)(BX*1), Z1
	VPERMW     (R9)(AX*1), Z1, Z2
	VPTERNLOGQ $0xf8, (R11)(BX*1), Z2, Z0 // acc |= permuted & valid
	ADDQ       $8, SI
	DECL       DX
	JNZ        mergeRegSrc
	VMOVDQU16  Z0, K1, (R8)(CX*1)
	JMP        dispatch

mergeMem:
	VPXORQ Z0, Z0, Z0
	MOVL   4(SI), CX
	ADDQ   $8, SI

mergeMemSrc:
	MOVL        (SI), AX
	MOVL        4(SI), BX
	VMOVDQU16.Z (R8)(AX*1), K1, Z3
	VMOVDQU16   (R10)(BX*1), Z1
	VPERMW      Z3, Z1, Z2
	VPTERNLOGQ  $0xf8, (R11)(BX*1), Z2, Z0
	ADDQ        $8, SI
	DECL        DX
	JNZ         mergeMemSrc
	// Every source line is loaded before the store, as in the Go body.
	VMOVDQU16   Z0, K1, (R8)(CX*1)
	JMP         dispatch

alphaSweep:
	SWEEPTABS
	ADDQ $28, SI

alphaStep:
	MOVL      (SI), AX
	MOVL      4(SI), BX
	BRANCHES
	RENORM
	VMOVDQU16 Z15, K1, (R8)(BX*1)
	ADDQ      $8, SI
	DECL      DX
	JNZ       alphaStep
	VMOVDQU16 Z15, K1, (R9)(R12*1)
	JMP       dispatch

betaSweep:
	SWEEPTABS
	ADDQ $28, SI

betaStep:
	MOVL (SI), AX
	BRANCHES
	RENORM
	ADDQ $4, SI
	DECL DX
	JNZ  betaStep
	VMOVDQU16 Z15, K1, (R9)(R12*1)
	JMP  dispatch

betaExtSweep:
	SWEEPTABS
	MOVL      28(SI), AX
	VMOVDQU16 (R10)(AX*1), Z21
	VMOVDQU16 (R11)(AX*1), Z0
	VPMOVW2M  Z0, K5
	MOVL      32(SI), AX
	VMOVDQU16 (R10)(AX*1), Z22
	VMOVDQU16 (R11)(AX*1), Z0
	VPMOVW2M  Z0, K6
	MOVL      36(SI), AX
	VMOVDQU16 (R10)(AX*1), Z23
	VMOVDQU16 (R11)(AX*1), Z0
	VPMOVW2M  Z0, K7
	MOVL      40(SI), R13              // nx
	VMOVDQU16 44(SI), Z26              // the nx lanes to extract, as a permute
	ADDQ      $108, SI                 // first step

betaExtStep:
	MOVL        (SI), AX
	BRANCHES
	MOVL        4(SI), AX
	VMOVDQU16.Z (R8)(AX*1), K1, Z7     // alpha history line
	RENORM
	VPADDSW     Z3, Z7, Z8             // e0
	VPADDSW     Z4, Z7, Z9             // e1
	HMAX(Z21, K5)
	HMAX(Z22, K6)
	HMAX(Z23, K7)
	VPSUBSW     Z9, Z8, Z8             // dv = m0 - m1

	// The extracted lanes go to their words four at a time through a
	// general register: word loads from a stored ZMM do not forward.
	VPERMW Z8, Z26, Z10
	LEAQ   8(SI), DI
	MOVL   R13, CX

betaExtract:
	VMOVQ   X10, AX
	MOVL    (DI), BX
	MOVW    AX, (R8)(BX*1)
	DECL    CX
	JZ      betaExtracted
	SHRQ    $16, AX
	MOVL    4(DI), BX
	MOVW    AX, (R8)(BX*1)
	DECL    CX
	JZ      betaExtracted
	SHRQ    $16, AX
	MOVL    8(DI), BX
	MOVW    AX, (R8)(BX*1)
	DECL    CX
	JZ      betaExtracted
	SHRQ    $16, AX
	MOVL    12(DI), BX
	MOVW    AX, (R8)(BX*1)
	DECL    CX
	JZ      betaExtracted
	ADDQ    $16, DI
	VALIGNQ $1, Z10, Z10, Z10
	JMP     betaExtract

betaExtracted:
	LEAQ      8(SI)(R13*4), SI
	DECL      DX
	JNZ       betaExtStep
	VMOVDQU16 Z15, K1, (R9)(R12*1)
	JMP       dispatch

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
