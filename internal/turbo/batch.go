package turbo

import (
	"fmt"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// decodePlan is one decoder's entry for a block size: the immutable plan
// (code, region layout, index tables — everything derived from (K, width,
// strategy)) and, once a decode has needed it, this decoder's own state
// for it. The plan is the process-wide shared one (plancache.go) when the
// decoder compiles, so building the entry costs this decoder nothing but
// the state; eviction drops the state and keeps the plan.
type decodePlan struct {
	k int
	// code is nil until something needs it: Code builds a private one, a
	// decode that adopts the shared plan takes the plan's.
	code *Code
	// plan is nil until the first decode. shared is the cache entry it
	// came from; nil when the decoder does not compile and plan is private
	// to it.
	plan   *packedPlan
	shared *sharedPlan

	// pst is the cross-block SoA-packed working set over a state region of
	// its own, the whole memory of its own engine (nil until the first
	// decode, and again after an eviction), and exactly one of exec and dec
	// drives it: exec replays shared.prog over that region — the program
	// holds region-relative offsets only, so any decoder's region serves —
	// on a decoder that compiles, and dec interprets on one that does not.
	pst  *packedState
	exec *program.Exec
	dec  *MultiSIMDDecoder
}

// BatchDecoder is the serving-side entry point for lane-parallel
// decoding: it owns a per-K plan table and, per block size it decodes, a
// state region and an engine over it, so a long-lived worker can decode an
// unbounded stream of batches with ~zero steady-state heap allocation. The
// first
// Decode of a block size adopts that size's shared plan and compiled
// program from the process-wide cache — compiling them there, from a
// synthetic word and never from the batch in hand, only if no decoder of
// the process has asked for that (K, width, strategy) before — and
// allocates this decoder's state for it: a region of exactly the plan's
// size, a register file and the output buffers. Subsequent Decodes of the
// same K reuse the state, rewriting it in place. If a new K's region would
// take the regions past the decoder's budget, every state is dropped first
// (an eviction); plans and programs are not the decoder's to evict.
// There is one decode path: blocks packed across lanes at the element
// level, replayed through the compiled program. A block size whose program
// did not compile is not decoded at all: every Decode of it returns the
// error the cache holds for it.
// It is NOT safe for concurrent use — give each worker goroutine its
// own BatchDecoder; they share what can be shared by themselves.
type BatchDecoder struct {
	w simd.Width
	// memBytes caps stateBytes, the bytes of the state regions this
	// decoder holds (buildState).
	memBytes, stateBytes int64
	ar                   core.Arranger
	s                    core.Strategy
	// plans is keyed by K: width and strategy are fixed per BatchDecoder
	// (one width, one arranger).
	plans map[int]*decodePlan

	// lastIters holds the per-block iterations-to-converge of the most
	// recent successful Decode (reused backing array; see BlockIters).
	lastIters []int

	// MaxIters and EarlyExit configure every decode (defaults: 6, true).
	// Neither is part of a program: one compiled program serves any
	// budget from one iteration up.
	MaxIters  int
	EarlyExit bool

	// Compile enables the compiled path: a block size's state is driven
	// by the process-wide replay program for (K, width, strategy)
	// (bit-identical to interpretation, no per-µop dispatch), and a size
	// with no program fails every decode with the cached compile error.
	// It is read when a block size is first decoded. Defaults to true;
	// with it off the decoder builds a private plan, interprets, and never
	// consults the cache — the reference the compiled path is measured
	// and tested against.
	Compile bool

	// OnCompile, when non-nil, is called synchronously when a Decode of
	// this decoder was the one that compiled a block size's program for
	// the process — the first to ask for it — with the block size and the
	// wall-clock compile time (the telemetry hook for the compile span).
	// Decoders that adopt a program already compiled do not fire it. Same
	// single-goroutine rules as OnDecode.
	OnCompile func(k int, elapsed time.Duration)

	// Evictions counts how many times the state regions reached the budget
	// and were all dropped, or EvictAll dropped them (a serving gauge; 0 in
	// any sane configuration).
	Evictions uint64

	// Program counters (see ProgramStats). compiledPlans is the number of
	// states driven by a program: counted where one is installed and zeroed
	// where EvictAll drops them all.
	compiles      uint64
	compileNs     int64
	compiledPlans int

	// OnDecode, when non-nil, is called synchronously after every
	// successful Decode with the block size, batch fill, iteration count
	// and the measured wall-clock decode time — the telemetry hook that
	// lets a serving worker attribute decode cost without wrapping the
	// call in its own clock. The time is the decode's own: building the
	// state a first decode needs (and compiling, when that decode is the
	// process's first sight of the size) comes before the clock starts.
	// When nil, Decode skips the clock reads entirely. Like the decoder
	// itself it is used from one goroutine only.
	OnDecode func(k, blocks, iters int, elapsed time.Duration)

	// Accept, when non-nil, is early exit's second stop test: from the
	// second iteration on, a block whose hard decisions moved in that
	// iteration but pass Accept freezes there, as one whose decisions
	// repeated does (OAI's code-block CRC test after every iteration from
	// the second). block is the word's index in the batch and bits its
	// decisions after the iteration, valid only during the call. It is
	// called synchronously from Decode, with EarlyExit on, at most once a
	// block and iteration and never for a block whose decisions repeated,
	// so it must be cheap and must answer from the bits alone. Nil keeps
	// the repeat test alone. Not part of a program: the same program
	// serves either rule.
	Accept func(block int, bits []byte) bool
}

// NewBatchDecoder builds a decoder for width w and arrangement strategy
// s whose state regions together hold at most memBytes bytes of emulated
// memory (the largest supported K takes 1.4 MiB at W512, the 188 LTE
// sizes together some 80 MiB). Plans and programs live in the
// process-wide cache, outside it: 0.04 MB at K=512 and 0.39 MB at K=6144
// a W512 size, 25 MB for all 188.
func NewBatchDecoder(w simd.Width, s core.Strategy, memBytes int) *BatchDecoder {
	return &BatchDecoder{
		w:         w,
		memBytes:  int64(memBytes),
		ar:        core.ByStrategy(s),
		s:         s,
		plans:     make(map[int]*decodePlan),
		MaxIters:  6,
		EarlyExit: true,
		Compile:   true,
	}
}

// Lanes returns how many same-K blocks one Decode call carries.
func (bd *BatchDecoder) Lanes() int { return BlocksPerRegister(bd.w) }

// Plans returns how many block sizes have a cached plan.
func (bd *BatchDecoder) Plans() int { return len(bd.plans) }

// Code returns the cached turbo code for block size k (building the
// code alone, without any decode state, if k has not been decoded yet).
func (bd *BatchDecoder) Code(k int) (*Code, error) {
	p, err := bd.plan(k)
	if err != nil {
		return nil, err
	}
	if p.code == nil {
		p.code, err = NewCode(k)
	}
	return p.code, err
}

// BlockIters reports the per-block iterations-to-converge of the most
// recent successful Decode, one entry per submitted word: a block that
// froze via per-block early exit records the iteration that latched it,
// the rest record the batch's total iteration count. The slice is
// reused across Decodes — read it before the next call.
func (bd *BatchDecoder) BlockIters() []int { return bd.lastIters }

// plan returns the entry for block size k, creating it empty (the plan
// and the decode state are built on first Decode) on miss.
func (bd *BatchDecoder) plan(k int) (*decodePlan, error) {
	if p, ok := bd.plans[k]; ok {
		return p, nil
	}
	if err := checkBlockSize(k); err != nil {
		return nil, err
	}
	p := &decodePlan{k: k}
	bd.plans[k] = p
	return p, nil
}

// EvictAll drops every block size's decode state and its region — what
// reaching the budget does, driven explicitly (the chaos injector's
// eviction-storm hook, and a recovery lever after a suspected state
// corruption). The next Decode of each K builds a fresh state over a fresh
// region from the plan it kept, and installs the same shared program on
// it: an eviction costs allocations, never a compile. Results are
// unaffected.
func (bd *BatchDecoder) EvictAll() {
	for _, q := range bd.plans {
		q.pst, q.exec, q.dec = nil, nil, nil
	}
	bd.stateBytes, bd.compiledPlans = 0, 0
	bd.Evictions++
}

// regionBytes is the memory a state of plan pl takes: its region, rounded
// up to the 64-byte alignment regions keep.
func regionBytes(pl *packedPlan) int64 { return (pl.size + 63) &^ 63 }

// buildState gives plan p a decode state: the plan itself on the first
// decode of its K (adopted from the process-wide cache, which compiles it
// if no decoder has asked before, or built privately when this decoder
// does not compile), then a region of its own — evicting every state
// first if the regions would pass the budget — an engine over it, the
// Go-side buffers, and the compiled program's execution state or, on a
// decoder that does not compile, the interpreter. A key the cache holds
// as a compile error gets no state: the error is returned instead, on
// this and every later decode of the size. Scratch contents are rewritten
// on every decode, so eviction never affects results — it only costs the
// rebuild.
func (bd *BatchDecoder) buildState(p *decodePlan) error {
	k := p.k
	if p.plan == nil {
		if bd.Compile {
			var led bool
			p.shared, led = sharedPlanFor(planKey{k, bd.w, bd.s})
			p.plan, p.code = p.shared.packedPlan, p.shared.code
			if led && p.shared.err == nil && bd.OnCompile != nil {
				bd.OnCompile(k, p.shared.compileTime)
			}
		} else {
			c, err := bd.Code(k)
			if err != nil {
				return err
			}
			p.plan = newPackedPlan(c, bd.ar.Layout(bd.w), bd.w, bd.Lanes())
		}
	}
	if p.shared != nil && p.shared.err != nil {
		return p.shared.err
	}
	need := regionBytes(p.plan)
	if need > bd.memBytes {
		return fmt.Errorf("turbo: state budget too small for K=%d at %v (need %d bytes)", k, bd.w, need)
	}
	if bd.stateBytes+need > bd.memBytes {
		bd.EvictAll()
	}
	bd.stateBytes += need
	e := simd.NewEngine(bd.w, simd.NewMemory(int(need)), nil)
	p.pst = newPackedState(e, bd.ar, p.plan)
	if sp := p.shared; sp != nil {
		p.exec = sp.prog.NewExec(e.Mem, 0)
		bd.compiledPlans++
		bd.compiles++
		bd.compileNs += sp.compileTime.Nanoseconds()
	} else {
		p.dec = NewMultiSIMDDecoder(p.plan.code)
		p.dec.RearrangePerHalfIter = false
	}
	return nil
}

// Decode lane-decodes 1..Lanes() same-K words and returns the per-block
// hard decisions plus the iteration count. The blocks are packed at the
// element level (multidecoder_packed.go), so every K-indexed phase runs
// once per iteration for the whole batch; a one-block batch is the
// fill-1 case of the same path. Results are bit-identical to decoding
// each word alone, on the lane-parallel or the scalar decoder. The
// returned slices are owned by the caller (they are fresh copies, safe
// to retain across Decodes). It fails the whole batch, decoding nothing,
// for a block size that is not valid or — on a decoder that compiles —
// whose program did not compile, with an error naming the size.
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
	var start time.Time
	if bd.OnDecode != nil {
		start = time.Now()
	}
	var bits [][]byte
	var iters int
	if p.exec != nil {
		bits, iters, err = bd.runCompiled(p, words)
	} else {
		p.dec.MaxIters, p.dec.EarlyExit, p.dec.Accept = bd.MaxIters, bd.EarlyExit, bd.Accept
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
