package program

import (
	"sync/atomic"
	"unsafe"
)

// Execution. The records of a program stand for vpermw, vpaddsw,
// vpmaxsw, vpsubsw, vpand, vpor and friends. The Emitter writes each
// segment as a descriptor stream, the one executable form of a program on
// every host. Two executors run the same bytes: on a CPU that has those
// instructions, runStreamAVX512 (kern_amd64.s) executes them as the
// instructions themselves, one call running whole gamma, alpha and beta
// sweeps, extrinsic, interleave and arrangement runs without returning to
// Go; elsewhere runStreamGo (run.go) executes them record kind by record
// kind. The Go executor is the assembly's twin and the per-record
// reference it is differentially tested against; the interpreter
// (internal/simd.Engine) stays the program-level oracle.
//
// The stream is []uint32. A record is a header word, record kind in the
// low byte and a count n above it, followed by the operand words its kind
// defines below. A record's addresses are its words plus a base: the
// region's start, or in a loop's body the base of the class the last base
// record named, which moves by the class's stride a trip. A trip starts at
// class 1, the class of the body's first record that addresses the
// region, and a base record goes wherever the class changes. Operands are
// byte offsets — into the state region and the register file of whichever
// Exec is running, the index-table pool p.gat / p.gatAnd, the pattern pool
// p.pats — never Go pointers, so a program stays GC-inert,
// position-independent and shareable: the five base pointers are passed
// per call. The table pool holds each distinct index vector once (the
// Emitter interns them by content), so every table operand of a W512
// program points into 51 to 68 vectors, 6.5 to 8.7 KB with their masks:
// the gathers of a K=6144 sweep read the pool from L1.
//
// What keeps the assembly as safe as the Go executor, which indexes Go
// slices and keeps their bounds checks:
//
//   - Every operand word is written by an Emitter method, which checks it
//     as it writes it: a register offset inside the register file, which
//     is sized to the highest register named; a table or pattern offset
//     inside its pool; an address non-negative, even and at most
//     MaxUint32. An address that moves, in a sweep or a loop, is checked
//     at its first and its last step or trip, so every one between is in
//     range too, and the highest byte any address reaches is the program's
//     extent. NewExec's extent check against the region it is handed stays
//     the one bounds gate in front of native code.
//   - Arena lines are read and written only under the lane mask (or the
//     narrower mask of a partial load or store): lanes >= L of a register
//     and bytes past an L-lane line are never written.
//   - Tables are the ones the Emitter interned: every entry is a lane below
//     L or the sentinel, and gatAnd zeroes exactly the sentinel lanes of a
//     VPERMW result, as gatherSrc's upper half does in Go.
//   - No call runs more than yieldEvery units of work: assembly cannot be
//     preempted, and a GC stop-the-world waits for it.
//   - VZEROUPPER precedes the one RET.

// useNative selects the executor of the Execs made from now on. It starts
// as what the CPU and OS report (nativeAvailable); nothing a user passes
// changes it. It is read where an Exec is made, on worker goroutines.
var useNative atomic.Bool

func init() { useNative.Store(nativeAvailable) }

// Kernel names the executor the Execs made now run on: "avx512bw" or
// "go".
func Kernel() string {
	if useNative.Load() {
		return "avx512bw"
	}
	return "go"
}

// UseNativeKernel is a test seam, for _test.go files and the decode bench
// only: it turns the native executor off for the Execs made after it, or
// back on where the host has it, and reports the previous setting so the
// caller can restore it (t.Cleanup). An Exec already made keeps the
// executor it was made with; the programs are the same bytes either way.
func UseNativeKernel(on bool) (was bool) {
	return useNative.Swap(on && nativeAvailable)
}

// Record kinds of the descriptor stream, with their operand words after
// the header (n is the header's count). d, a, b, src are register-file byte
// offsets; addr, dst, q, out, al, s, p, la are arena byte offsets; tab, g*, h* are
// byte offsets into the index-table pool; a d-prefixed word is a byte
// stride, a two's-complement int32. A kind's number is part of every
// stream that holds it (and of its program's Checksum), so a kind that no
// plan needs leaves its number unused rather than renumber the rest.
const (
	nStop         = iota // a preemption point, or the end of the stream
	nClear               // d
	_                    //
	_                    //
	_                    //
	_                    //
	nAnd                 // d a b, and the two lane ops after it
	nOr                  //
	nXor                 //
	_                    //
	nSra                 // d a; n = shift
	nBcastImm            // d; n = the 16-bit value
	_                    //
	nSetImm              // d pat
	_                    //
	nLoad                // d addr mask: d = the masked lanes of the line, zero elsewhere
	nLoadReg             // d src mask: the same from the register file (Ext)
	nStore               // a addr mask
	nExtrW               // src addr; src is the byte offset of the lane itself
	_                    //
	nExtVec              // lim nlim dv sv lv out; n = shift
	_                    //
	nMergeMem            // dst, n × (addr tab): OR of permuted lines (QuadGather)
	nAlphaSweep          // alpha g0 g1 g2 g3 gn q dq out dout: n steps, step s reading quad line q+s·dq and storing to out+s·dout
	nBetaSweep           // beta g0 g1 g2 g3 gn q dq
	nBetaExtSweep        // beta g0 g1 g2 g3 gn h0 h1 h2 nx, the nx extracted lanes as a register of index words, q dq al dal dout np, np × nx addr: step s reads alpha line al+s·dal and stores its words to row s mod np, moved by (s/np)·dout
	nLoop                // t0 back, and when back is 0 the definition: nc, d of each class 1..nc, B, B words of body ending in nEnd; n trips from trip t0, trip t running the body with each class's base at t times its d; back > 0 names the definition that many words back
	nEnd                 // the end of a loop body
	nBase                // n = the class whose base the records after it add their words to
	nGammaSweep          // s ds p dp la dla q dq dl, 8 × 4 tab: n groups, group g reading lines s+g·ds, p+g·dp, la+g·dla and storing quad line j at q+g·dq+j·dl

	numRecordKinds
)

// gammaWords is the length of a gamma sweep record in words.
const gammaWords = 10 + 4*GammaLines

// maxClasses bounds the stride classes of a loop's body.
const maxClasses = 7

// yieldEvery bounds the work between two returns to Go, in units of one
// record, one trellis step or one loop trip's records (about 10 ns each):
// at most ~5 µs a call, where a K=6144 segment run in one would hold its P
// for 0.5 ms. A sweep or loop longer than the room left is cut into pieces,
// each a record of its own.
const yieldEvery = 512

// laneMask is the k-mask of the low n lanes.
func laneMask(n int) uint32 { return uint32(1<<uint(n) - 1) }

// runStream executes a segment's stream on the native kernel: the assembly
// runs records up to each stop record, where Go may preempt it, until the
// stream ends.
func (p *Program) runStream(x *Exec, code []uint32) {
	arena, regs := unsafe.SliceData(x.m), unsafe.SliceData(x.regs)
	gat, gatAnd, pats := unsafe.SliceData(p.gat), unsafe.SliceData(p.gatAnd), unsafe.SliceData(p.pats)
	mask := uint64(laneMask(p.lanes))
	for pc := 0; pc < len(code); pc++ {
		pc = runStreamAVX512(&code[0], pc, arena, regs, gat, gatAnd, pats, mask)
	}
}
