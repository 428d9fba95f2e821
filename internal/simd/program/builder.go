// Package program makes fused replay programs of a decode. The
// interpreter (internal/simd.Engine) pays per-µop overhead on every call —
// method dispatch, a closure call per 16-bit lane, dependency bookkeeping —
// even though the µop stream per (K, width, strategy) is deterministic: the
// same instructions touch the same arena addresses with the same index
// tables every decode, only the data differs. This package exploits that.
// A program has two segments, a "first" one (the prefix: setup and
// constants, run once a decode) and a "steady" one (one iteration,
// identical for every iteration, the first included). Each is compiled to
// a slice of width-specialized ops in which the packed decode stream's hot
// patterns — whole alpha and beta trellis steps, quad branch-metric
// scatters, interleave gathers, the extrinsic group, scalar element-copy
// runs — are single ops, and runs of them that repeat with their addresses
// moving by fixed strides are loops (roll.go), and then lowered to a
// descriptor stream that runs them directly over a state region.
//
// There are two ways to make one, and one way to finish it. An Emitter
// (emit.go) is handed the ops by a caller that describes the decode from
// its plan, fused ops whole: the serving decoder's APCM plans are made so,
// with no engine and no recording. A Builder attached as an engine's
// ProgSink records the semantic operation stream of one interpreted
// decode; Compile cuts it at the decoder's first iteration mark and fuses the
// patterns (fuse.go). That is the compiler of every other strategy and the
// oracle the emitter is tested against: the two make checksum-equal
// programs of one plan. Both end in finish: finalize, the one validator
// (bounds, extent, live masks) and the one lowering (descriptor streams),
// then the release of the fused ops. No flag chooses between the two
// compilers; the caller's coverage does.
//
// What Compile and Emit return is split in two. The Program is immutable,
// holds one executable form on every host — the descriptor streams and the
// tables they address, each distinct table once however many ops refer to
// it, run by the AVX-512BW assembly or by its Go twin (kern.go) — and
// holds addresses only as offsets from the start of a state region (a
// recording's whole arena is one), so a process compiles a (K, width,
// strategy) once and every worker shares the result. What a replay mutates
// is an Exec: a register file, one such region of the worker's own, and
// the executor it was made with (run.go).
//
// Replay is bit-identical to interpretation by construction, where the
// observable state is the region (the register file is private to the
// Exec): every fused op preserves the exact memory effects of the
// sequence it replaces, and its register effects wherever a later op
// reads them — lowering refuses a fused op with such a reader, so every
// op the streams run writes no intermediate register at all (lane-local
// op runs execute per lane in original op order, which is equivalent
// under any register aliasing; fusions spanning loads and stores are only
// formed when their address ranges are provably disjoint; an Emitter
// forms a fused op only under the same conditions), and every recorded
// iteration after the first is verified op-by-op against the steady
// segment — any divergence aborts compilation and the caller stays on the
// interpreter.
package program

import (
	"errors"
	"fmt"
	"math"

	"vransim/internal/simd"
)

// Compilation errors (callers fall back to the interpreter on any of
// them; they are ordinary conditions, not bugs).
var (
	// ErrUnstable: an iteration after the first diverged from the
	// steady segment, so the kernel's op stream is not iteration-
	// invariant and cannot be replayed.
	ErrUnstable = errors.New("program: op stream differs across iterations")
	// errNoSteady: the recording ran fewer than two iterations, so no
	// iteration verified the steady segment. Serving code records two.
	errNoSteady = errors.New("program: need >= 2 recorded iterations to compile")
	// errSpent: Compile consumed the builder's stream.
	errSpent = errors.New("program: builder already compiled")
	// errUnsupported: the recording holds an op with no executable kind:
	// an insert, or a copy outside a copy run, which no packed plan
	// records.
	errUnsupported = errors.New("program: unsupported op")
)

// rawOp is the compact lowered form of one recorded simd.ProgOp: register
// pointers interned to small ids, index tables and lane patterns interned
// into side pools. It is comparable field-by-field,
// which is what the cross-iteration stability check relies on. Keeping
// it at 24 bytes matters: a W512 K=6144 decode records 0.67 M ops an
// iteration, and the builder holds iteration 0 raw.
type rawOp struct {
	kind    simd.ProgKind
	d, a, b int16 // register ids, -1 when absent
	imm     int32
	addr    int32
	addr2   int32
	tab     int32 // idxTabs / lanePats pool reference, -1 when absent
}

// Builder is a simd.ProgSink that records one decode and compiles it.
// It is single-use: attach to an engine, run one decode, detach, call
// Compile once.
//
// It stores at most one segment raw. When the first iteration mark
// arrives the prefix is complete: it is fused into the program under
// construction at once as the first segment, and its raw buffer is reused
// for iteration 0, the steady segment and the only raw ops Compile still
// needs.
type Builder struct {
	// p is the program under construction: its idxTabs and lanePats are
	// the pools lower interns into, and segs[SegFirst] is filled at the
	// first mark.
	p *Program

	ops   []rawOp // the segment being recorded
	marks int     // "iteration" marks seen

	regs map[*simd.Vec]int16
	nreg int

	idxByPtr map[*int]int32

	err error

	// After the second iteration mark the stored stream is frozen and
	// further ops are verified against the steady segment instead.
	verifying bool
	vpos      int

	// Verification register bijection: live Vec pointers -> steady
	// register ids. Seeded with identity at freeze time and rebound at
	// every fully-overwriting destination, so the stability check is
	// insensitive to Vec pool identity churn — the engine's bounded
	// free list makes reacquired pointers differ across iterations even
	// when the computation is identical. A read through an unbound (or
	// wrongly bound) pointer is a real divergence and aborts.
	vfwd map[*simd.Vec]int16
	vrev map[int16]*simd.Vec
}

// NewBuilder returns an empty recording sink for a program of width w,
// with room for ops recorded ops (0 when the caller cannot say): the
// longest stretch stored raw, the prefix or iteration 0. A decode
// kernel's op count is linear in the elements it works on, so the caller
// that knows those can spare the stream its regrowth — a fifth of a
// compile's CPU, and what kept several copies of a K=6144 recording in
// the peak RSS.
func NewBuilder(w simd.Width, ops int) *Builder {
	return &Builder{
		p:        &Program{w: w, lanes: w.Lanes16()},
		ops:      make([]rawOp, 0, ops),
		regs:     make(map[*simd.Vec]int16),
		idxByPtr: make(map[*int]int32),
	}
}

// Err reports the first recording error (nil while the stream is still
// compilable).
func (b *Builder) Err() error { return b.err }

// Iterations reports how many iteration marks were seen.
func (b *Builder) Iterations() int { return b.marks }

// Mark implements simd.ProgSink. Only "iteration" marks are structural;
// anything else is ignored.
func (b *Builder) Mark(name string) {
	if name != "iteration" || b.err != nil {
		return
	}
	if b.verifying {
		if b.vpos != len(b.ops) {
			b.err = ErrUnstable
		}
		b.vpos = 0
		return
	}
	b.marks++
	switch b.marks {
	case 1:
		// The prefix has just ended, so the first segment is complete.
		// Fuse it now; its raw buffer then takes iteration 0, the steady
		// segment, without regrowing when the caller sized it.
		p := b.p
		p.RawOps[SegFirst] = len(b.ops)
		p.segs[SegFirst], p.FusedOps[SegFirst], b.err = p.fuse(b.ops)
		b.ops = b.ops[:0]
	case 2:
		b.verifying = true
		b.vpos = 0
		// At freeze time the replay state corresponds to the recorded
		// state under the identity mapping built during lowering.
		b.vfwd = make(map[*simd.Vec]int16, len(b.regs))
		b.vrev = make(map[int16]*simd.Vec, len(b.regs))
		for v, id := range b.regs {
			b.vfwd[v] = id
			b.vrev[id] = v
		}
	}
}

// Record implements simd.ProgSink.
func (b *Builder) Record(op simd.ProgOp) {
	if b.err != nil {
		return
	}
	if b.verifying {
		b.verify(op)
		return
	}
	r, err := b.lower(op)
	if err != nil {
		b.err = err
		return
	}
	b.ops = append(b.ops, r)
}

func (b *Builder) regID(v *simd.Vec) int16 {
	if v == nil {
		return -1
	}
	if id, ok := b.regs[v]; ok {
		return id
	}
	id := int16(b.nreg)
	b.nreg++
	b.regs[v] = id
	return id
}

func checkAddr(a int64) (int32, error) {
	if a < 0 || a > math.MaxInt32 {
		return 0, fmt.Errorf("program: address %d outside compilable range", a)
	}
	return int32(a), nil
}

// lower converts a recorded op to its compact form, interning tables
// into the builder pools.
func (b *Builder) lower(op simd.ProgOp) (rawOp, error) {
	r := rawOp{kind: op.Kind, d: b.regID(op.Dst), a: b.regID(op.A), b: b.regID(op.B), tab: -1}
	var err error
	if r.addr, err = checkAddr(op.Addr); err != nil {
		return r, err
	}
	if r.addr2, err = checkAddr(op.Addr2); err != nil {
		return r, err
	}
	if op.Imm < math.MinInt32 || op.Imm > math.MaxInt32 {
		return r, fmt.Errorf("program: immediate %d outside compilable range", op.Imm)
	}
	r.imm = int32(op.Imm)
	switch op.Kind {
	case simd.PSetImm:
		pat := make([]int16, len(op.Lanes))
		copy(pat, op.Lanes)
		r.tab = int32(len(b.p.lanePats))
		b.p.lanePats = append(b.p.lanePats, pat)
	case simd.PPermute:
		if len(op.Idx) == 0 {
			return r, errors.New("program: empty permute index table")
		}
		key := &op.Idx[0]
		id, ok := b.idxByPtr[key]
		if !ok {
			t := make([]int32, len(op.Idx))
			for i, x := range op.Idx {
				t[i] = int32(x)
			}
			id = int32(len(b.p.idxTabs))
			b.p.idxTabs = append(b.p.idxTabs, t)
			b.idxByPtr[key] = id
		}
		r.tab = id
	}
	return r, nil
}

// verify compares an op recorded during iteration >= 1 against the
// frozen steady segment, without growing any pool.
func (b *Builder) verify(op simd.ProgOp) {
	if b.vpos >= len(b.ops) {
		b.err = ErrUnstable
		return
	}
	e := b.ops[b.vpos]
	b.vpos++
	if e.kind != op.Kind ||
		int64(e.addr) != op.Addr || int64(e.addr2) != op.Addr2 || int64(e.imm) != op.Imm {
		b.err = ErrUnstable
		return
	}
	// Source operands must read through the current bijection: the
	// iteration's pointer must be bound to exactly the steady register
	// the replay would read.
	expect := func(v *simd.Vec, want int16) bool {
		if v == nil {
			return want == -1
		}
		id, ok := b.vfwd[v]
		return ok && id == want
	}
	if !expect(op.A, e.a) || !expect(op.B, e.b) {
		b.err = ErrUnstable
		return
	}
	switch {
	case op.Dst == nil:
		if e.d != -1 {
			b.err = ErrUnstable
			return
		}
	default:
		// Every other destination is fully overwritten (all active
		// lanes), so the iteration pointer rebinds to the steady
		// register here — displacing any stale pair, whose later reads
		// would then correctly fail the expect check above.
		if e.d == -1 {
			b.err = ErrUnstable
			return
		}
		if old, ok := b.vfwd[op.Dst]; ok && old != e.d {
			delete(b.vrev, old)
		}
		if oldV, ok := b.vrev[e.d]; ok && oldV != op.Dst {
			delete(b.vfwd, oldV)
		}
		b.vfwd[op.Dst] = e.d
		b.vrev[e.d] = op.Dst
	}
	switch op.Kind {
	case simd.PSetImm:
		pat := b.p.lanePats[e.tab]
		if len(pat) != len(op.Lanes) {
			b.err = ErrUnstable
			return
		}
		for i, x := range op.Lanes {
			if pat[i] != x {
				b.err = ErrUnstable
				return
			}
		}
	case simd.PPermute:
		var t []int32
		if len(op.Idx) > 0 {
			if id, ok := b.idxByPtr[&op.Idx[0]]; ok && id == e.tab {
				return
			}
			t = b.p.idxTabs[e.tab]
		}
		if len(t) != len(op.Idx) {
			b.err = ErrUnstable
			return
		}
		for i, x := range op.Idx {
			if t[i] != int32(x) {
				b.err = ErrUnstable
				return
			}
		}
	}
}
