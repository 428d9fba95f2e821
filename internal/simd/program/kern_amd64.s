#include "textflag.h"
#include "go_asm.h"

// runStreamAVX512 walks the descriptor stream the Emitter (emit.go,
// loop.go) wrote; kern.go defines the record kinds and states the
// contract. One body serves W128, W256 and W512: every instruction is 512
// bits wide and the lane mask decides what reaches memory.
//
// Registers held for the whole call:
//
//   SI   the record being executed
//   R8   the arena, or where a loop trip moved the base of a class
//   R9   register file
//   R10  index tables   R11  their AND masks (0xffff valid, 0 sentinel)
//   K1   the lane mask: bit i set for lane i < L
//
// In a record's body DX is the header's count n; AX, BX, CX, DI, R12,
// R13 and R14 are scratch (ABI0 leaves R14 to the callee; the wrapper
// restores g). A sweep also holds
//
//   CX       the quad line's arena offset, R12 a beta sweep's alpha line's
//   DI       an alpha sweep's output line, or the row of the extraction
//            table a beta sweep is at, and R14 what the table has moved by
//   Z15      the carried alpha or beta, written back when the sweep ends
//   Z16-Z20  tables g0 g1 g2 g3 gn     Z21-Z23  tables h0 h1 h2
//   Z24-Z25  AND masks of g0 g1        Z26      the lanes a beta step
//   K2-K4    valid lanes of g2 g3 gn            extracts, as a permute
//   K5-K7    valid lanes of h0 h1 h2
//
// and a gamma sweep
//
//   CX, R12, R13  the group's S, P and La lines
//   R14      its first quad line, DI the quad line being written
//   Z0-Z2    S, La and P; Z0 then t = s + la  Z31  zero
//   Z3-Z6    g0 g1 n0 n1                      Z7   a line's table
//   Z8       a permuted source                Z9   the line being merged
//
// Six of a step's eight tables zero their sentinel lanes through a k-mask,
// which costs no instruction; there are seven mask registers, so the two
// permutes of the quad line, which are off the carried chain, AND instead.
//
// A loop runs its body in place, a trip at a time. A base record naming
// class c loads R8 from base c of the frame, which the loop record sets to
// its first trip's and the nEnd record that closes the body moves by the
// class's stride a trip, and points R8 at base 1 for the trip to start
// from; the loop's end sets R8 back to the region's start. R15 counts the
// trips left. The frame also holds the loop's trips left, the record after it,
// its definition and its body's start, and a beta sweep's extraction table
// bounds (row0, rowEnd).
//
// A table entry is a lane below L or the sentinel 32, which VPERMW reads as
// lane 0: the AND mask (or k-mask) turns exactly those lanes to the zero
// the Go bodies gather from the upper half of a gatherSrc. Entries for
// lanes >= L are sentinels, so every vector computed from a permute is
// zero there.
//
// Go operand order: VPERMW src, idx, dst; VPSUBSW b, a, d computes
// d = a - b.

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
// offset q and the carried Z15 permuted into the two branch sums Z3, Z4.
#define BRANCHES(q) \
	VMOVDQU16.Z (R8)(q*1), K1, Z0; \
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

// GAMMAPERM ORs src permuted by the table whose offset is the stream word
// at off(SI) into Z9, under the table's AND mask.
#define GAMMAPERM(off, src) \
	MOVL       off(SI), AX; \
	VMOVDQU16  (R10)(AX*1), Z7; \
	VPERMW     src, Z7, Z8; \
	VPTERNLOGQ $0xf8, (R11)(AX*1), Z8, Z9

// GAMMALINE is one quad line of a gamma group, from g0 g1 n0 n1 (Z3-Z6)
// by the four tables at t0..t3(SI), stored at DI, which then moves a line.
#define GAMMALINE(t0, t1, t2, t3) \
	MOVL      t0(SI), AX; \
	VMOVDQU16 (R10)(AX*1), Z7; \
	VPERMW    Z3, Z7, Z9; \
	VPANDQ    (R11)(AX*1), Z9, Z9; \
	GAMMAPERM(t1, Z4); \
	GAMMAPERM(t2, Z5); \
	GAMMAPERM(t3, Z6); \
	VMOVDQU16 Z9, K1, (R8)(DI*1); \
	ADDL      36(SI), DI

// func runStreamAVX512(code *uint32, pc int, arena, regs *int16, gat, gatAnd *[regStride]uint16, pats *[regStride]int16, mask uint64) int
TEXT ·runStreamAVX512(SB), NOSPLIT, $104-72
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
	// Most frequent first, by the records serving dispatches
	// (TestDispatchChainByFrequency): the arrangement's lane ops and
	// stores, the gathers, extrinsic groups and loop bookkeeping, and last
	// the sweeps, each of which runs a whole phase.
	CMPL AX, $const_nAnd
	JEQ  and
	CMPL AX, $const_nStore
	JEQ  store
	CMPL AX, $const_nOr
	JEQ  or
	CMPL AX, $const_nLoad
	JEQ  load
	CMPL AX, $const_nMergeMem
	JEQ  mergeMem
	CMPL AX, $const_nExtVec
	JEQ  extVec
	CMPL AX, $const_nExtrW
	JEQ  extrW
	CMPL AX, $const_nEnd
	JEQ  end
	CMPL AX, $const_nSra
	JEQ  sra
	CMPL AX, $const_nBase
	JEQ  base
	CMPL AX, $const_nClear
	JEQ  clear
	CMPL AX, $const_nStop
	JEQ  stop
	CMPL AX, $const_nLoop
	JEQ  loop
	CMPL AX, $const_nAlphaSweep
	JEQ  alphaSweep
	CMPL AX, $const_nBetaExtSweep
	JEQ  betaExtSweep
	CMPL AX, $const_nGammaSweep
	JEQ  gammaSweep
	CMPL AX, $const_nSetImm
	JEQ  setImm
	CMPL AX, $const_nBcastImm
	JEQ  bcastImm
	CMPL AX, $const_nXor
	JEQ  xor
	CMPL AX, $const_nBetaSweep
	JEQ  betaSweep
	CMPL AX, $const_nLoadReg
	JEQ  loadReg
	// The Emitter writes no other kind; an unknown one stops the stream here.

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

and:
	BINOP(VPANDQ)

or:
	BINOP(VPORQ)

xor:
	BINOP(VPXORQ)

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

setImm:
	MOVQ      pats+48(FP), BX
	MOVL      8(SI), AX
	MOVL      4(SI), CX
	VMOVDQU16 (BX)(AX*1), Z0
	VMOVDQU16 Z0, (R9)(CX*1)
	ADDQ      $12, SI
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

gammaSweep:
	MOVL   4(SI), CX                   // s
	MOVL   12(SI), R12                 // p
	MOVL   20(SI), R13                 // la
	MOVL   28(SI), R14                 // the group's first quad line
	VPXORQ Z31, Z31, Z31

gammaGroup:
	VMOVDQU16.Z (R8)(CX*1), K1, Z0
	VMOVDQU16.Z (R8)(R13*1), K1, Z1
	VMOVDQU16.Z (R8)(R12*1), K1, Z2
	VPADDSW     Z1, Z0, Z0             // t = s + la
	VPADDSW     Z2, Z0, Z3             // g0 = t + p
	VPSUBSW     Z2, Z0, Z4             // g1 = t - p
	VPSUBSW     Z3, Z31, Z5            // n0 = -g0
	VPSUBSW     Z4, Z31, Z6            // n1 = -g1
	MOVL        R14, DI
	GAMMALINE(40, 44, 48, 52)
	GAMMALINE(56, 60, 64, 68)
	GAMMALINE(72, 76, 80, 84)
	GAMMALINE(88, 92, 96, 100)
	GAMMALINE(104, 108, 112, 116)
	GAMMALINE(120, 124, 128, 132)
	GAMMALINE(136, 140, 144, 148)
	GAMMALINE(152, 156, 160, 164)
	ADDL        8(SI), CX
	ADDL        16(SI), R12
	ADDL        24(SI), R13
	ADDL        32(SI), R14
	DECL        DX
	JNZ         gammaGroup
	ADDQ        $168, SI
	JMP         dispatch

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
	MOVL 28(SI), CX
	MOVL 36(SI), DI

alphaStep:
	BRANCHES(CX)
	RENORM
	VMOVDQU16 Z15, K1, (R8)(DI*1)
	ADDL      32(SI), CX
	ADDL      40(SI), DI
	DECL      DX
	JNZ       alphaStep
	VMOVDQU16 Z15, K1, (R9)(R12*1)
	ADDQ      $44, SI
	JMP       dispatch

betaSweep:
	SWEEPTABS
	MOVL 28(SI), CX

betaStep:
	BRANCHES(CX)
	RENORM
	ADDL      32(SI), CX
	DECL      DX
	JNZ       betaStep
	VMOVDQU16 Z15, K1, (R9)(R12*1)
	ADDQ      $36, SI
	JMP       dispatch

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
	VMOVDQU16 44(SI), Z26              // the nx lanes to extract, as a permute
	MOVL      108(SI), CX              // quad line
	MOVL      116(SI), R12             // alpha line
	XORL      R14, R14                 // what the table has moved by
	LEAQ      132(SI), DI              // row 0 of the extraction table
	MOVQ      DI, row0-8(SP)
	MOVL      128(SI), AX
	IMULL     40(SI), AX               // np × nx
	LEAQ      (DI)(AX*4), AX
	MOVQ      AX, rowEnd-16(SP)        // also the end of the record

betaExtStep:
	BRANCHES(CX)
	VMOVDQU16.Z (R8)(R12*1), K1, Z7    // alpha history line
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
	MOVL   40(SI), R13

betaExtract:
	VMOVQ   X10, AX
	MOVL    (DI), BX
	ADDL    R14, BX
	MOVW    AX, (R8)(BX*1)
	ADDQ    $4, DI
	DECL    R13
	JZ      betaExtracted
	SHRQ    $16, AX
	MOVL    (DI), BX
	ADDL    R14, BX
	MOVW    AX, (R8)(BX*1)
	ADDQ    $4, DI
	DECL    R13
	JZ      betaExtracted
	SHRQ    $16, AX
	MOVL    (DI), BX
	ADDL    R14, BX
	MOVW    AX, (R8)(BX*1)
	ADDQ    $4, DI
	DECL    R13
	JZ      betaExtracted
	SHRQ    $16, AX
	MOVL    (DI), BX
	ADDL    R14, BX
	MOVW    AX, (R8)(BX*1)
	ADDQ    $4, DI
	DECL    R13
	JZ      betaExtracted
	VALIGNQ $1, Z10, Z10, Z10
	JMP     betaExtract

betaExtracted:
	// Past the last row the table starts over, moved by dout.
	CMPQ      DI, rowEnd-16(SP)
	JNE       betaExtNext
	MOVQ      row0-8(SP), DI
	ADDL      124(SI), R14

betaExtNext:
	ADDL      112(SI), CX
	ADDL      120(SI), R12
	DECL      DX
	JNZ       betaExtStep
	MOVL      4(SI), R12
	VMOVDQU16 Z15, K1, (R9)(R12*1)
	MOVQ      rowEnd-16(SP), SI
	JMP       dispatch

base:
	MOVQ bases-104(SP)(DX*8), R8
	ADDQ $4, SI
	JMP  dispatch

loop:
	// DI = the definition, AX = the record after this one.
	MOVQ  DX, R15
	MOVQ  SI, DI
	LEAQ  12(SI), AX
	MOVL  8(SI), BX                    // back
	TESTL BX, BX
	JZ    loopDef
	SHLQ  $2, BX
	SUBQ  BX, DI
	JMP   loopBases

loopDef:
	MOVL 12(SI), CX                    // nc
	MOVL 16(SI)(CX*4), BX              // B
	LEAQ 20(SI)(CX*4), AX
	LEAQ (AX)(BX*4), AX

loopBases:
	// Base c is the region's start moved t0 strides.
	MOVQ    AX, next-40(SP)
	MOVQ    DI, def-32(SP)
	MOVL    12(DI), CX                 // nc
	LEAQ    20(DI)(CX*4), AX
	MOVQ    AX, body-24(SP)
	MOVL    4(SI), DX                  // t0
	LEAQ    bases-104(SP), R12
	MOVQ    arena+16(FP), R13
	MOVQ    R13, 8(R12)
	XORL    BX, BX
	TESTL   CX, CX
	JZ      loopRun

loopBase:
	MOVLQSX 16(DI)(BX*4), AX
	IMULQ   DX, AX
	ADDQ    R13, AX
	MOVQ    AX, 8(R12)(BX*8)
	INCL    BX
	CMPL    BX, CX
	JB      loopBase

loopRun:
	// A trip starts with R8 at base 1: the body names its first class
	// only if it changes to another.
	MOVQ 8(R12), R8
	MOVQ body-24(SP), SI
	JMP  dispatch

end:
	// A trip is done: move every class's base a stride, then run the next
	// trip, or go on after the loop record from the region's start.
	MOVQ  def-32(SP), DI
	MOVL  12(DI), CX
	LEAQ  bases-104(SP), R12
	XORL  BX, BX
	TESTL CX, CX
	JZ    endMoved

endBase:
	MOVLQSX 16(DI)(BX*4), AX
	ADDQ    AX, 8(R12)(BX*8)
	INCL    BX
	CMPL    BX, CX
	JB      endBase

endMoved:
	DECQ R15
	JZ   endDone
	MOVQ 8(R12), R8
	MOVQ body-24(SP), SI
	JMP  dispatch

endDone:
	MOVQ next-40(SP), SI
	MOVQ arena+16(FP), R8
	JMP  dispatch

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
