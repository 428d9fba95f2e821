package program

import (
	"crypto/sha256"
	"encoding/binary"

	"vransim/internal/simd"
)

// mop is one executable replay op. Singleton kinds mirror the recorded
// ops one-to-one; fused kinds carry their operand lists (register lane
// offsets and addresses) in the program's aux pool at [tab, tab+...).
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
	mMaxS
	mMinS
	mAnd
	mOr
	mXor
	mAndN
	mSra
	mBcastImm
	mBcastMem
	mSetImm
	mPermute
	mExt128
	mExt256
	mLoad
	mStore
	mExtrW

	// Fused kinds (see fuse.go for the matched patterns): the shapes the
	// packed decode stream records. Each replaces a whole recorded phase
	// step with one single-pass op that writes memory and the carried
	// state; lowering refuses one whose intermediate registers a later op
	// reads. Every kind from firstFused on must occur in some packed plan
	// (TestEveryFusedKindOccurs); one that does not is dead code.
	mCopyRun     // run of element copies; aux: n × (dst, src) addresses
	mExtVec      // load dvec,s,la + padds + psraw + psubs + pmin + pmax + store
	mQuadScatter // vpermw + (vpermw+por)×m + store: quad branch-metric scatter
	mQuadGather  // load+vpermw (+load+vpermw+por)×m + store: interleave gather
	mAlphaStepP  // load quad + 4 vpermw + 2 padds + pmax + norm + store: alpha step
	mBetaStepP   // beta recursion step, optionally with fused posterior extract

	// mLoop heads a loop the roller folded (roll.go): n body ops follow,
	// run imm times; its aux holds a stride per address of the body.
	mLoop

	numKinds
	firstFused = mCopyRun
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
// decode it was recorded from, over addresses that are byte offsets from
// the start of the state region the recording ran in (the recording arena
// is that region, so they are region-relative by construction). It is
// immutable once Compile returns and holds no mutable state: any number of
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

	// What the compilers fill and finalize lowers from: the fused
	// segments, and the interned index tables, lane patterns and operand
	// pool they address; and tabSlot, which resolve fills, the vector of
	// gat each index table resolved to. finish releases them.
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

	// RawOps and FusedOps count the recorded ops and the executable ops
	// per segment — the compression the fusion pass achieved.
	RawOps   [2]int
	FusedOps [2]int
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
// program whose checksum moves was written to after Compile.
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

// Compile lowers the recorded stream into a replay program for the width
// the builder was made for and leaves the builder empty. It fails (and the
// caller stays on the interpreter) when fewer than two iterations were
// recorded, when any iteration diverged from the steady segment, when
// recording hit an unsupported op, or when an op does not lower to a
// record (finalize).
func (b *Builder) Compile() (*Program, error) {
	p, err := b.fused()
	if err != nil {
		return nil, err
	}
	return p.finish()
}

// fused ends the recording: it fuses the steady segment and returns the
// program with both fused segments, not yet finalized.
func (b *Builder) fused() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.marks < 2 {
		return nil, errNoSteady
	}
	if b.verifying && b.vpos != len(b.ops) {
		// Recording stopped mid-iteration: the stream is malformed.
		return nil, ErrUnstable
	}
	p := b.p
	p.nregs = int32(b.nreg * regStride)
	p.RawOps[SegSteady] = len(b.ops)
	steady, fused, err := p.fuse(b.ops)
	// The raw steady iteration (24 B an op: 16 MB at W512 K=6144) is dead
	// from here; let go of it before finalize allocates the descriptor
	// streams, so the raw, fused and lowered forms are never all live at
	// once.
	b.ops, b.p, b.err = nil, nil, errSpent
	if err != nil {
		return nil, err
	}
	p.segs[SegSteady], p.FusedOps[SegSteady] = steady, fused
	return p, nil
}

// finish makes p runnable (finalize) and releases what only the lowering
// read: the fused segments and their pools. It ends Compile and Emit
// alike.
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

// single lowers one recorded op to its executable singleton. It reports
// false for an op that has none: a PInsrW, or a PCopy16 outside a copy
// run, which no packed plan records.
func single(r rawOp) (mop, bool) {
	m := mop{
		d: off(r.d), a: off(r.a), b: off(r.b),
		addr: int64(r.addr), imm: int64(r.imm),
		tab: r.tab,
	}
	switch r.kind {
	case simd.PClear:
		m.kind = mClear
	case simd.PAddS:
		m.kind = mAddS
	case simd.PSubS:
		m.kind = mSubS
	case simd.PMaxS:
		m.kind = mMaxS
	case simd.PMinS:
		m.kind = mMinS
	case simd.PAnd:
		m.kind = mAnd
	case simd.POr:
		m.kind = mOr
	case simd.PXor:
		m.kind = mXor
	case simd.PAndN:
		m.kind = mAndN
	case simd.PSra:
		m.kind = mSra
	case simd.PBcastImm:
		m.kind = mBcastImm
	case simd.PBcastMem:
		m.kind = mBcastMem
	case simd.PSetImm:
		m.kind = mSetImm
	case simd.PPermute:
		m.kind = mPermute
	case simd.PExt128:
		m.kind = mExt128
	case simd.PExt256:
		m.kind = mExt256
	case simd.PLoad:
		m.kind = mLoad
	case simd.PStore:
		m.kind = mStore
	case simd.PExtrW:
		m.kind = mExtrW
	default:
		return m, false
	}
	return m, true
}
