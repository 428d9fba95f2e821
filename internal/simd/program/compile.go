package program

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
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
// therefore holds one Program per (K, width, strategy, kernel); evicting a
// worker's region drops its Exec and never the Program.
//
// A program holds the one executable form its kernel runs (Kernel). The
// Go form is the fused segments and the pools their operands live in;
// the native form is the descriptor streams and the pools they address.
// A native program keeps the Go form as well only when a stream hands
// some op to its Go body, which no packed plan does.
type Program struct {
	w     simd.Width
	lanes int

	// nregs is the size of the register file an Exec carries, in lanes.
	nregs int32

	// The Go form: the fused segments, and the interned index tables,
	// lane patterns and operand pools they address.
	segs     [2][]mop
	idxTabs  [][]int32
	lanePats [][]int16
	aux32    []int32
	aux      []int32

	// gat is idxTabs resolved for Run by finalize: one word per lane (the
	// index operand VPERMI2W takes, and what the Go bodies index through),
	// invalid and inactive entries pointing at the zero sentinel lane.
	// Both forms read it.
	gat [][regStride]uint16

	// extent is the end of the highest byte range of the region any op
	// touches, recorded by analyze; NewExec refuses a smaller region.
	extent int64

	// The native form: each segment lowered to the descriptor stream
	// runStreamAVX512 executes (nil in a program compiled for the Go
	// kernel), gatAnd and pats the pools it addresses beside gat: per
	// index table the mask that zeroes a VPERMW result's sentinel lanes,
	// and lanePats zero-extended to whole registers.
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

// Extent reports how many bytes of its state region the program touches:
// the least a region handed to NewExec may hold.
func (p *Program) Extent() int64 { return p.extent }

// Checksum digests everything Run reads of the program, in whichever
// form it holds: both fused segments op by op with their live masks, every
// table and pool, the descriptor streams, the width, the register count
// and the extent. Two programs with one checksum replay identically; a
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
	for _, seg := range p.segs {
		put(int64(len(seg)))
		for i := range seg {
			op := &seg[i]
			put(int64(op.kind), int64(op.d), int64(op.a), int64(op.b), op.addr, op.addr2, op.imm,
				int64(op.tab), int64(op.n), int64(op.live))
		}
	}
	put(int64(len(p.idxTabs)))
	for _, t := range p.idxTabs {
		put(int64(len(t)))
		for _, x := range t {
			put(int64(x))
		}
	}
	put(int64(len(p.lanePats)))
	for _, t := range p.lanePats {
		put(int64(len(t)))
		for _, x := range t {
			put(int64(x))
		}
	}
	put(int64(len(p.aux32)))
	for _, x := range p.aux32 {
		put(int64(x))
	}
	put(int64(len(p.aux)))
	for _, x := range p.aux {
		put(int64(x))
	}
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
	for _, code := range p.native {
		put(int64(len(code)))
		for _, x := range code {
			put(int64(x))
		}
	}
	h.Write(buf)
	return [sha256.Size]byte(h.Sum(nil))
}

// Compile lowers the recorded stream into a replay program for the width
// the builder was made for and leaves the builder empty. The program is
// lowered to descriptor streams when the native kernel is on (Kernel)
// and keeps the Go form only where a stream needs it. It fails (and the
// caller stays on the interpreter) when fewer than two iterations were
// recorded, when any iteration diverged from the steady segment, or when
// recording hit an unsupported op.
func (b *Builder) Compile() (*Program, error) {
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
	p.segs[SegSteady] = p.fuse(b.ops)
	p.FusedOps = [2]int{len(p.segs[SegFirst]), len(p.segs[SegSteady])}
	// The raw steady iteration (24 B an op: 16 MB at W512 K=6144) is dead
	// from here; let go of it before finalize allocates the descriptor
	// streams, so the raw, fused and lowered forms are never all live at
	// once.
	b.ops, b.p, b.err = nil, nil, errSpent
	return p.finish()
}

// finish makes p runnable (finalize) and keeps the one form its kernel
// runs: the Go form is dropped once the streams name no op for it. It ends
// Compile and Emit alike.
func (p *Program) finish() (*Program, error) {
	goBodies, err := p.finalize()
	if err != nil {
		return nil, err
	}
	if p.native[SegFirst] != nil && goBodies == 0 {
		p.dropGoForm()
	} else if cap(p.aux)-len(p.aux) > len(p.aux)/8 {
		p.aux = slices.Clone(p.aux) // drop the slack, as fuse does
	}
	return p, nil
}

// dropGoForm releases everything only the Go bodies read, once the
// streams name no op for them: the program then holds the native form
// alone.
func (p *Program) dropGoForm() {
	p.segs = [2][]mop{}
	p.idxTabs, p.lanePats, p.aux32, p.aux = nil, nil, nil, nil
}

// Kernel reports the kernel p runs on: "avx512bw" when Compile lowered it
// to descriptor streams, "go" when it was compiled with the native kernel
// off or unavailable. A program runs on the kernel it was compiled for,
// whatever UseNativeKernel says later.
func (p *Program) Kernel() string {
	if p.native[SegFirst] != nil {
		return "avx512bw"
	}
	return "go"
}

// GoForm reports whether p holds the fused segments and their pools: a
// program compiled for the Go kernel always does, a native one only when
// some op of its streams runs as its Go body.
func (p *Program) GoForm() bool {
	return p.segs[SegFirst] != nil || p.segs[SegSteady] != nil
}

// Lowered returns what Compile makes of p's recording with the native
// kernel on: p's segments lowered to descriptor streams and, unless a
// stream hands an op to its Go body, the Go form dropped. p must be a
// program compiled for the Go kernel, and is not changed; the two share
// their tables. It is a test seam, like UseNativeKernel: it shows what
// the native form is lowered from.
func (p *Program) Lowered() (*Program, error) {
	if !nativeAvailable {
		return nil, errNoNative
	}
	if p.Kernel() != "go" {
		return nil, errors.New("program: already lowered")
	}
	q := *p
	goBodies, err := q.lowerNative()
	if err != nil {
		return nil, err
	}
	if goBodies == 0 {
		q.dropGoForm()
	}
	return &q, nil
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
