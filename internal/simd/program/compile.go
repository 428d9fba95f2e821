package program

import (
	"slices"

	"vransim/internal/simd"
)

// mop is one executable replay op. Singleton kinds mirror the recorded
// ops one-to-one; fused kinds carry their operand lists (register lane
// offsets and addresses) in the program's aux pool at [tab, tab+...).
type mop struct {
	kind    uint8
	d, a, b int32 // register lane offsets (regID * regStride)
	addr    int64
	addr2   int64
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
	mInsrW
	mCopy16
	mGammaPoint
	mExtPoint

	// Fused kinds (see fuse.go for the matched patterns): the shapes the
	// packed decode stream records. Each replaces a whole recorded phase
	// step with one single-pass op that writes memory, the carried state
	// and whichever intermediate registers a later op still reads. Every
	// kind from firstFused on must occur in some packed plan
	// (TestEveryFusedKindOccurs); one that does not is dead code.
	mCopyRun     // run of element copies; aux: n × (dst, src) addresses
	mExtVec      // load dvec,s,la + padds + psraw + psubs + pmin + pmax + store
	mQuadScatter // vpermw + (vpermw+por)×m + store: quad branch-metric scatter
	mQuadGather  // load+vpermw (+load+vpermw+por)×m + store: interleave gather
	mAlphaStepP  // load quad + 4 vpermw + 2 padds + pmax + norm + store: alpha step
	mBetaStepP   // beta recursion step, optionally with fused posterior extract

	numKinds
	firstFused = mCopyRun
)

// regStride is the register-file stride in lanes. Every register gets
// the full 32 lanes (W512) regardless of the compiled width, so partial
// loads and 128/256-bit extracts behave exactly like the engine's
// 64-byte Vec storage (inactive lanes read as zero).
const regStride = 32

// SegFirst and SegSteady select the two replay segments: the first
// segment is setup + constants + iteration 0, the steady segment is one
// mid-decode iteration (identical for every iteration after the first).
const (
	SegFirst  = 0
	SegSteady = 1
)

// Program is a compiled replay program bound to the arena addresses and
// register dataflow of the decode it was recorded from. It is not safe
// for concurrent use (the register file is owned by the program);
// serving code keeps one per worker, exactly like the engine it
// replaces. Arena eviction invalidates it.
type Program struct {
	w     simd.Width
	lanes int

	regs     []int16
	segs     [2][]mop
	idxTabs  [][]int32
	lanePats [][]int16
	aux32    []int32
	aux      []int64

	// gat is idxTabs resolved for Run by finalize: one word per lane (the
	// index operand VPERMI2W takes, and what the Go bodies index through),
	// invalid and inactive entries pointing at the zero sentinel lane.
	gat [][regStride]uint16

	// extent is the end of the highest arena byte range any op touches,
	// recorded by analyze; Run refuses a smaller arena.
	extent int64

	// native is each segment lowered to the descriptor stream
	// runStreamAVX512 executes (nil where the host has no native kernel),
	// gatAnd and pats the pools it addresses beside gat: per index table the
	// mask that zeroes a VPERMW result's sentinel lanes, and lanePats
	// zero-extended to whole registers.
	native [2][]uint32
	gatAnd [][regStride]uint16
	pats   [][regStride]int16

	// RawOps and FusedOps count the recorded ops and the executable ops
	// per segment — the compression the fusion pass achieved.
	RawOps   [2]int
	FusedOps [2]int
}

// Width reports the register width the program was compiled for.
func (p *Program) Width() simd.Width { return p.w }

// Compile lowers the recorded stream into a replay program for width w.
// It fails (and the caller stays on the interpreter) when fewer than
// two iterations were recorded, when any iteration diverged from the
// steady segment, or when recording hit an unsupported op.
func (b *Builder) Compile(w simd.Width) (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.cuts) < 2 {
		return nil, ErrTooFewIterations
	}
	if b.verifying && b.vpos != len(b.steady()) {
		// Recording stopped mid-iteration: the stream is malformed.
		return nil, ErrUnstable
	}
	p := &Program{
		w:        w,
		lanes:    w.Lanes16(),
		regs:     make([]int16, b.nreg*regStride),
		idxTabs:  b.idxTabs,
		lanePats: b.lanePats,
		aux32:    b.aux32,
	}
	first := b.ops[:b.cuts[1]]
	steady := b.steady()
	p.RawOps = [2]int{len(first), len(steady)}
	p.segs[SegFirst] = p.fuse(first)
	p.segs[SegSteady] = p.fuse(steady)
	p.aux = slices.Clone(p.aux) // drop append's growth slack, as fuse does
	p.FusedOps = [2]int{len(p.segs[SegFirst]), len(p.segs[SegSteady])}
	if err := p.finalize(); err != nil {
		return nil, err
	}
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

// single lowers one recorded op to its executable singleton.
func single(r rawOp) mop {
	m := mop{
		d: off(r.d), a: off(r.a), b: off(r.b),
		addr: int64(r.addr), addr2: int64(r.addr2), imm: int64(r.imm),
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
	case simd.PInsrW:
		m.kind = mInsrW
	case simd.PCopy16:
		m.kind = mCopy16
	case simd.PGammaPoint:
		m.kind = mGammaPoint
	case simd.PExtPoint:
		m.kind = mExtPoint
	default:
		panic("program: unknown recorded op kind")
	}
	return m
}
