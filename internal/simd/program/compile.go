// Package program makes replay programs of a decode. The interpreter
// (internal/simd.Engine) pays per-µop overhead on every call — method
// dispatch, a closure call per 16-bit lane, dependency bookkeeping — even
// though the µop stream per (K, width, strategy) is deterministic: the same
// instructions touch the same arena addresses with the same index tables
// every decode, only the data differs. This package exploits that. A
// program has two segments, a "first" one (the prefix: setup and
// constants, run once a decode) and a "steady" one (one iteration,
// identical for every iteration, the first included). Each is written as a
// slice of width-specialized ops in which the packed decode stream's hot
// patterns — whole alpha and beta trellis steps, quad branch-metric
// scatters, interleave gathers, the extrinsic group — are single fused
// ops, and each run the caller states as a Loop is a loop when its trips
// repeat trip 0 with their addresses moving by fixed strides (loop.go),
// and then lowered to a descriptor stream that runs them directly over a
// state region.
//
// There is one compiler. An Emitter (emit.go) is handed the ops by a
// caller that describes the decode from its plan, fused ops whole, with no
// engine and no recording: internal/turbo's planEmitter writes the packed
// plans of the paper's two arrangements so. Emit ends in finish: finalize,
// the one validator (bounds, extent, live masks) and the one lowering
// (descriptor streams), then the release of the fused ops.
//
// What Emit returns is split in two. The Program is immutable, holds one
// executable form on every host — the descriptor streams and the tables
// they address, each distinct table once however many ops refer to it, run
// by the AVX-512BW assembly or by its Go twin (kern.go) — and holds
// addresses only as offsets from the start of a state region, so a process
// compiles a (K, width, strategy) once and every worker shares the result.
// What a replay mutates is an Exec: a register file, one such region of
// the worker's own, and the executor it was made with (run.go).
//
// Replay is bit-identical to interpretation where the observable state is
// the region (the register file is private to the Exec): each op an
// Emitter appends stands for the engine sequence its method documents, and
// preserves that sequence's memory effects and its register effects
// wherever a later op reads them — lowering refuses a fused op with such a
// reader, so every op the streams run writes no intermediate register at
// all, and a fused method refuses register aliasing and overlapping load
// and store ranges that would make one pass differ from the sequence. The
// caller's description is held to the interpreter by decode differentials
// (internal/turbo), not by construction.
package program

import (
	"crypto/sha256"
	"encoding/binary"

	"vransim/internal/simd"
)

// mop is one executable replay op. Singleton kinds stand for one engine
// op each; fused kinds carry their operand lists (register lane offsets,
// table ids and addresses) in the program's aux pool at [tab, tab+...).
type mop struct {
	kind    uint8
	d, a, b int32 // register lane offsets (regID * regStride)
	addr    int64
	imm     int64
	tab     int32
	n       int32
	// live is derived by finalize: bit k is set when the k-th register
	// write visitEffects reports for this op is read by a later op before
	// it is overwritten.
	live uint64
}

// Executable op kinds.
const (
	mClear uint8 = iota
	mAddS
	mSubS
	mAnd
	mOr
	mXor
	mSra
	mBcastImm
	mSetImm
	mExt128
	mExt256
	mLoad
	mStore
	mExtrW

	// Fused kinds (the Emitter's fused methods spell out their engine
	// sequences): the shapes of the packed decode stream. Each replaces a
	// whole phase step with one single-pass op that writes memory and the
	// carried state; lowering refuses one whose intermediate registers a
	// later op reads. Every kind from firstFused on must occur in some
	// packed plan (TestEveryFusedKindOccurs); one that does not is dead
	// code.
	mExtVec      // load dvec,s,la + padds + psraw + psubs + pmin + pmax + store
	mQuadScatter // vpermw + (vpermw+por)×m + store: quad branch-metric scatter
	mQuadGather  // load+vpermw (+load+vpermw+por)×m + store: interleave gather
	mAlphaStepP  // load quad + 4 vpermw + 2 padds + pmax + norm + store: alpha step
	mBetaStepP   // beta recursion step, optionally with fused posterior extract

	// mLoop heads a loop Emitter.Loop wrote (loop.go): n body ops follow,
	// run imm times; its aux holds a stride per address of the body.
	mLoop

	numKinds
	firstFused = mExtVec
)

// regStride is the register-file stride in lanes. Every register gets
// the full 32 lanes (W512) regardless of the compiled width, so partial
// loads and 128/256-bit extracts behave exactly like the engine's
// 64-byte Vec storage (inactive lanes read as zero).
const regStride = 32

// SegFirst and SegSteady select the two replay segments: the first
// segment is the prefix (setup and constants), run once a decode, and the
// steady segment one iteration, run for every iteration, the first
// included.
const (
	SegFirst  = 0
	SegSteady = 1
)

// Program is a compiled replay program: the register dataflow of the
// decode it was written from, over addresses that are byte offsets from
// the start of a state region. It is immutable once Emit returns and holds
// no mutable state: any number of
// goroutines may Run it at once, each over its own Exec (the register file
// and one such region, wherever in that worker's arena it lies). A process
// therefore holds one Program per (K, width, strategy); evicting a
// worker's region drops its Exec and never the Program.
//
// A finished program holds one executable form on every host: the
// descriptor streams and the pools they address, which the native kernel
// and the Go executor run alike (kern.go).
type Program struct {
	w     simd.Width
	lanes int

	// nregs is the size of the register file an Exec carries, in lanes.
	nregs int32

	// What the Emitter fills and finalize lowers from: the fused segments,
	// and the interned index tables, lane patterns and operand pool they
	// address; and tabSlot, which resolve fills, the vector of gat each
	// index table resolved to. finish releases them.
	segs     [2][]mop
	idxTabs  [][]int32
	lanePats [][]int16
	aux      []int32
	tabSlot  []int32

	// extent is the end of the highest byte range of the region any op
	// touches, recorded by analyze; NewExec refuses a smaller region.
	extent int64

	// code holds each segment lowered to its descriptor stream, and gat,
	// gatAnd and pats the pools the streams address: the distinct vectors
	// idxTabs resolve to, one word per lane (the index operand VPERMI2W
	// takes), invalid and inactive entries pointing at the zero sentinel
	// lane; per vector the mask that zeroes a VPERMW result's sentinel
	// lanes; and lanePats zero-extended to whole registers.
	code   [2][]uint32
	gat    [][regStride]uint16
	gatAnd [][regStride]uint16
	pats   [][regStride]int16
}

// Width reports the register width the program was compiled for.
func (p *Program) Width() simd.Width { return p.w }

// GatherPool reports how many distinct index vectors the program's
// gather pool holds.
func (p *Program) GatherPool() int { return len(p.gat) }

// Extent reports how many bytes of its state region the program touches:
// the least a region handed to NewExec may hold.
func (p *Program) Extent() int64 { return p.extent }

// Checksum digests everything Run reads of the program: the width, the
// lane and register counts, the extent, the descriptor streams and the
// pools they address. Two programs with one checksum replay identically; a
// program whose checksum moves was written to after Emit.
func (p *Program) Checksum() [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	put := func(xs ...int64) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	// Every variable-length part is preceded by its length, so no two
	// different programs flatten to the same words.
	put(int64(p.w), int64(p.lanes), int64(p.nregs), p.extent)
	for _, tabs := range [][][regStride]uint16{p.gat, p.gatAnd} {
		put(int64(len(tabs)))
		for i := range tabs {
			for _, x := range tabs[i] {
				put(int64(x))
			}
		}
	}
	put(int64(len(p.pats)))
	for i := range p.pats {
		for _, x := range p.pats[i] {
			put(int64(x))
		}
	}
	for _, code := range p.code {
		put(int64(len(code)))
		for _, x := range code {
			put(int64(x))
		}
	}
	h.Write(buf)
	return [sha256.Size]byte(h.Sum(nil))
}

// finish makes p runnable (finalize) and releases what only the lowering
// read: the fused segments and their pools. It ends Emit.
func (p *Program) finish() (*Program, error) {
	if err := p.finalize(); err != nil {
		return nil, err
	}
	p.segs = [2][]mop{}
	p.idxTabs, p.lanePats, p.aux, p.tabSlot = nil, nil, nil, nil
	return p, nil
}

// off converts a register id to its lane offset (-1 stays -1; only
// kinds that ignore the operand carry -1).
func off(id int16) int32 {
	if id < 0 {
		return -1
	}
	return int32(id) * regStride
}
