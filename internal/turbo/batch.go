package turbo

import (
	"fmt"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// decodePlan is the cached per-K decode state: the immutable plan
// (code tables, constant registers, permutation indices — everything
// initConstants derives from (K, width, strategy)) together with the
// reusable scratch arena regions and output buffers, and — the third
// stage — the compiled replay program recorded from this plan's first
// interpreted decode. Building one is the expensive cold path;
// afterwards every Decode for this K rewinds and rewrites the same
// memory, allocating nothing.
type decodePlan struct {
	code *Code
	// pst is the cross-block SoA-packed working set (nil until the first
	// decode, and again after an eviction).
	pst *packedState
	dec *MultiSIMDDecoder

	// prog is the compiled replay program (nil until the first decode
	// of this K records and compiles one; see BatchDecoder.Compile).
	// It embeds absolute arena addresses, so eviction must discard it
	// with the state.
	prog *program.Program
	// noCompile latches a compilation failure no retry can cure, so the
	// plan does not re-record on every decode; eviction resets it with
	// the state.
	noCompile bool
}

// BatchDecoder is the serving-side entry point for lane-parallel
// decoding: it owns one untraced engine (and its memory arena) and a
// per-K plan cache, so a long-lived worker can decode an unbounded
// stream of batches with ~zero steady-state heap allocation. The first
// Decode of a block size builds that size's plan (arena regions,
// constant registers, index tables); subsequent Decodes of the same K
// reuse it, rewriting the scratch in place. If the arena cannot fit a
// new K's plan, all cached plans are evicted and the arena rewound.
// There is one decode path: blocks packed across lanes at the element
// level, recorded on the first decode of a K and replayed afterwards.
// It is NOT safe for concurrent use — give each worker goroutine its
// own BatchDecoder.
type BatchDecoder struct {
	eng *simd.Engine
	ar  core.Arranger
	// plans is keyed by K: width and strategy are fixed per BatchDecoder
	// (one engine, one arranger).
	plans map[int]*decodePlan

	// lastIters holds the per-block iterations-to-converge of the most
	// recent successful Decode (reused backing array; see BlockIters).
	lastIters []int

	// MaxIters and EarlyExit configure every decode (defaults: 6, true).
	MaxIters  int
	EarlyExit bool

	// ItersOverride, when positive, clamps the effective iteration
	// budget to min(MaxIters, ItersOverride) without touching the
	// configured MaxIters — the graceful-degradation knob a serving
	// worker turns under overload and releases (set 0) when the backlog
	// clears. It never raises the budget above MaxIters.
	ItersOverride int

	// CompileGate, when non-nil, is consulted before each program
	// compilation is accepted; returning false discards the compiled
	// program as if verification had failed, latching the plan onto the
	// interpreter (the chaos hook for compile-verify failures). Same
	// single-goroutine rules as OnDecode.
	CompileGate func(k int) bool

	// Compile enables the plan -> scratch -> program third stage: the
	// first Decode for a K runs interpreted with the engine's semantic
	// recorder attached, the recorded stream is compiled into a fused
	// replay program, and every later Decode for that K replays it
	// directly over the arena (bit-identical, no per-µop dispatch).
	// Defaults to true; engines with a trace recorder attached always
	// stay interpreted (replay emits no µops, which would silently
	// starve the timing model).
	Compile bool

	// OnCompile, when non-nil, is called synchronously after each
	// successful program compilation with the block size and the
	// wall-clock compile time (the telemetry hook for the compile
	// span). Same single-goroutine rules as OnDecode.
	OnCompile func(k int, elapsed time.Duration)

	// Evictions counts how many times the arena filled up and the plan
	// cache was flushed (a serving gauge; 0 in any sane configuration).
	Evictions uint64

	// Program-cache counters (see ProgramStats). compiledPlans is the
	// number of plans holding a program: counted where one is installed and
	// zeroed where EvictAll drops them all, so a worker can read the stats
	// after every batch without walking the plan map.
	progHits, progMisses, compiles uint64
	compileNs                      int64
	compiledPlans                  int

	// OnDecode, when non-nil, is called synchronously after every
	// successful Decode with the block size, batch fill, iteration count
	// and the measured wall-clock decode time — the telemetry hook that
	// lets a serving worker attribute decode cost without wrapping the
	// call in its own clock. When nil, Decode skips the clock reads
	// entirely. Like the decoder itself it is used from one goroutine
	// only.
	OnDecode func(k, blocks, iters int, elapsed time.Duration)
}

// NewBatchDecoder builds a decoder for width w and arrangement strategy
// s with a memBytes emulated-memory arena (32 MiB comfortably fits the
// largest supported K at W512).
func NewBatchDecoder(w simd.Width, s core.Strategy, memBytes int) *BatchDecoder {
	return &BatchDecoder{
		eng:       simd.NewEngine(w, simd.NewMemory(memBytes), nil),
		ar:        core.ByStrategy(s),
		plans:     make(map[int]*decodePlan),
		MaxIters:  6,
		EarlyExit: true,
		Compile:   true,
	}
}

// Lanes returns how many same-K blocks one Decode call carries.
func (bd *BatchDecoder) Lanes() int { return BlocksPerRegister(bd.eng.W) }

// Plans returns how many block sizes have a cached plan.
func (bd *BatchDecoder) Plans() int { return len(bd.plans) }

// Code returns the cached turbo code for block size k (building the
// code alone, without any decode state, if k has not been decoded yet).
func (bd *BatchDecoder) Code(k int) (*Code, error) {
	p, err := bd.plan(k)
	if err != nil {
		return nil, err
	}
	return p.code, nil
}

// BlockIters reports the per-block iterations-to-converge of the most
// recent successful Decode, one entry per submitted word: a block that
// froze via per-block early exit records the iteration that latched it,
// the rest record the batch's total iteration count. The slice is
// reused across Decodes — read it before the next call.
func (bd *BatchDecoder) BlockIters() []int { return bd.lastIters }

// plan returns the cached plan for block size k, creating it (code only
// — the decode state is built lazily on first Decode) on miss.
func (bd *BatchDecoder) plan(k int) (*decodePlan, error) {
	if p, ok := bd.plans[k]; ok {
		return p, nil
	}
	c, err := NewCode(k)
	if err != nil {
		return nil, err
	}
	p := &decodePlan{code: c}
	bd.plans[k] = p
	return p, nil
}

// EvictAll flushes every cached plan's decode state, scratch and
// compiled program and rewinds the arena — the reset an arena-pressure
// eviction performs, driven explicitly (the chaos injector's
// eviction-storm hook, and a recovery lever after a suspected arena
// corruption). The next Decode of each K rebuilds its plan from the
// cached code tables; results are unaffected.
func (bd *BatchDecoder) EvictAll() {
	for _, q := range bd.plans {
		q.pst = nil
		q.dec = nil
		// Compiled programs address the evicted arena regions directly;
		// replaying one after the reset would corrupt whatever the arena
		// now holds.
		q.prog = nil
		q.noCompile = false
	}
	bd.compiledPlans = 0
	bd.eng.Mem.AllocReset()
	bd.Evictions++
}

// effIters is the iteration budget decodes actually run under:
// MaxIters clamped by ItersOverride when the override is engaged.
func (bd *BatchDecoder) effIters() int {
	if bd.ItersOverride > 0 && bd.ItersOverride < bd.MaxIters {
		return bd.ItersOverride
	}
	return bd.MaxIters
}

// buildState allocates plan p's packed decode state, evicting every
// cached state if the remaining arena space cannot hold it. Scratch
// contents are rewritten on every decode, so eviction never affects
// results — it only costs the rebuild.
func (bd *BatchDecoder) buildState(p *decodePlan) error {
	nb := bd.Lanes()
	need := packedStateBytes(p.code, bd.ar.Layout(bd.eng.W), bd.eng.W, nb)
	if bd.eng.Mem.Remaining() < need {
		bd.EvictAll()
		if bd.eng.Mem.Remaining() < need {
			return fmt.Errorf("turbo: arena too small for K=%d at %v (need %d bytes)", p.code.K, bd.eng.W, need)
		}
	}
	p.pst = newPackedState(bd.eng, bd.ar, p.code, nb)
	p.dec = NewMultiSIMDDecoder(p.code)
	return nil
}

// Decode lane-decodes 1..Lanes() same-K words and returns the per-block
// hard decisions plus the iteration count. The blocks are packed at the
// element level (multidecoder_packed.go), so every K-indexed phase runs
// once per iteration for the whole batch; a one-block batch is the
// fill-1 case of the same path. Results are bit-identical to decoding
// each word alone, on the lane-parallel or the scalar decoder. The
// returned slices are owned by the caller (they are fresh copies, safe
// to retain across Decodes).
func (bd *BatchDecoder) Decode(k int, words []*LLRWord) ([][]byte, int, error) {
	if len(words) == 0 {
		return nil, 0, fmt.Errorf("turbo: empty batch")
	}
	p, err := bd.plan(k)
	if err != nil {
		return nil, 0, err
	}
	if p.pst == nil {
		if err := bd.buildState(p); err != nil {
			return nil, 0, err
		}
	}
	p.dec.MaxIters = bd.effIters()
	p.dec.EarlyExit = bd.EarlyExit
	var start time.Time
	if bd.OnDecode != nil {
		start = time.Now()
	}
	var bits [][]byte
	var iters int
	compiling := bd.Compile && bd.eng.Recorder() == nil
	switch {
	case p.prog != nil:
		bd.progHits++
		bits, iters, err = bd.runCompiled(p, words)
	case compiling && !p.noCompile && p.dec.MaxIters >= 2:
		// A budget of one iteration (MaxIters, or the overload clamp)
		// records no steady segment; such a decode runs interpreted below
		// and the next one with a larger budget records.
		bd.progMisses++
		bits, iters, err = bd.recordAndCompile(p, words)
	default:
		if compiling {
			bd.progMisses++
		}
		bits, iters, err = p.dec.runPacked(p.pst, words)
	}
	if err != nil {
		return nil, 0, err
	}
	bd.lastIters = append(bd.lastIters[:0], p.pst.itersB[:len(words)]...)
	if bd.OnDecode != nil {
		bd.OnDecode(k, len(words), iters, time.Since(start))
	}
	// The state's bit buffers are rewritten by the next decode of this K;
	// hand the caller stable copies in one backing array (the only
	// steady-state allocations of the entire call: two objects).
	out := make([][]byte, len(bits))
	backing := make([]byte, len(bits)*k)
	for i, b := range bits {
		out[i] = backing[i*k : (i+1)*k : (i+1)*k]
		copy(out[i], b)
	}
	return out, iters, nil
}
