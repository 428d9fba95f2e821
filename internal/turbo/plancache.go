package turbo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// This file is the process-wide plan cache. Everything about decoding
// block size K at width w under arrangement strategy s that does not
// depend on the words — the code, the state-region layout, the index
// tables and the compiled replay program — is a pure function of those
// three, so a process builds it once, here, and every BatchDecoder (each runtime worker, every shard
// of an in-process fleet, a benchmark's pool decoder) adopts it: a
// decoder's own cost for a K is a state region of its arena and the
// Go-side buffers. The program is compiled off the live path by whichever
// caller asks for the key first; callers that arrive while that flight is
// up wait for it instead of compiling their own. A plan of the serving
// strategy is emitted from the plan itself (emit.go); any other is
// recorded from a synthetic word on a throwaway engine (recordProgram),
// whose interpreter tables go with it. Either way the plan holds no
// interpreter tables until a decoder interprets it
// (packedPlan.interpreterTables).
//
// A key that cannot compile is cached too, as its error: every decoder
// learns it from the one attempt and serves that K interpreted (counted as
// program misses, which a serving runtime without chaos configured turns
// into an unhealthy /healthz), instead of each worker compiling it again.
// Nothing is ever evicted: a W512 entry is about 0.04 MB at K=512 and
// 0.39 MB at K=6144 (all 188 LTE sizes 25 MB), and the key space is the
// block sizes a deployment serves. A
// program is the same bytes whichever executor runs it
// (program.UseNativeKernel picks that per Exec), so the kernel is no part
// of the key.

// planKey names a cache entry.
type planKey struct {
	k int
	w simd.Width
	s core.Strategy
}

// sharedPlan is what a cache entry holds once its flight has landed. It is
// immutable from then on.
type sharedPlan struct {
	*packedPlan
	// prog is the compiled replay program, nil when err says why there is
	// none. compileTime is what compiling it took: the emission, or
	// Builder.Compile of a recording (the recording decode before it is not
	// counted, as it never was).
	prog        *program.Program
	err         error
	compileTime time.Duration
}

// planFlight is one cache entry: the Once is the singleflight.
type planFlight struct {
	once   sync.Once
	landed atomic.Bool
	plan   *sharedPlan
}

var planCache struct {
	mu      sync.Mutex
	flights map[planKey]*planFlight

	compiles, recordings, waiters, failures atomic.Uint64
	compileNs                               atomic.Int64
}

// CacheStats is a snapshot of the process-wide plan cache counters.
type CacheStats struct {
	// Compiles counts programs compiled in this process, one per
	// (K, width, strategy) that compiled; CompileTime is their
	// cumulative cost: the whole emission of an emitted program,
	// Builder.Compile of a recorded one (not the recording decode before
	// it).
	Compiles    uint64
	CompileTime time.Duration
	// Recordings counts the plans compiled from a recorded decode: those
	// of the strategies the emitter does not cover (emits). A W512/APCM
	// serving process reads 0.
	Recordings uint64
	// Waiters counts callers that found a key's compile in flight and
	// waited for it instead of starting their own.
	Waiters uint64
	// Failures counts keys cached as unable to compile.
	Failures uint64
}

// PlanCacheStats reports the process-wide plan cache counters. Safe for
// concurrent use.
func PlanCacheStats() CacheStats {
	return CacheStats{
		Compiles:    planCache.compiles.Load(),
		CompileTime: time.Duration(planCache.compileNs.Load()),
		Recordings:  planCache.recordings.Load(),
		Waiters:     planCache.waiters.Load(),
		Failures:    planCache.failures.Load(),
	}
}

// Precompile builds the shared plan and compiles the replay program of
// every block size in ks at width w under strategy s, so that no decoder
// of the process meets them cold: a serving binary calls it with the
// sizes its configuration names before it admits traffic. Sizes already
// cached cost nothing. It reports the sizes that are not valid or did not
// compile; those still decode, interpreted.
func Precompile(w simd.Width, s core.Strategy, ks ...int) error {
	var errs []error
	for _, k := range ks {
		if err := checkBlockSize(k); err != nil {
			errs = append(errs, err)
			continue
		}
		if sp, _ := sharedPlanFor(planKey{k, w, s}); sp.err != nil {
			errs = append(errs, fmt.Errorf("turbo: K=%d at %v/%v does not compile: %w", k, w, s, sp.err))
		}
	}
	return errors.Join(errs...)
}

// sharedPlanFor returns the cache entry for key, a valid block size,
// building it if this is the first caller to ask (led) and waiting for
// the caller that is building it otherwise.
func sharedPlanFor(key planKey) (sp *sharedPlan, led bool) {
	planCache.mu.Lock()
	f := planCache.flights[key]
	if f == nil {
		if planCache.flights == nil {
			planCache.flights = make(map[planKey]*planFlight)
		}
		f = new(planFlight)
		planCache.flights[key] = f
	} else if !f.landed.Load() {
		planCache.waiters.Add(1)
	}
	planCache.mu.Unlock()
	f.once.Do(func() {
		f.plan = buildSharedPlan(key)
		f.landed.Store(true)
		led = true
	})
	return f.plan, led
}

// recordIters is how many iterations a program is recorded over: the
// prefix before the first makes SegFirst, the first SegSteady, and the
// second is checked op for op against the first through the builder's
// register bijection, so every recording proves the stream
// iteration-invariant rather than only those whose live word happened to
// need a second iteration. It is a variable for one test: recorded over
// one iteration nothing compiles, which is the only way to reach the
// cache's failure entries on demand.
var recordIters = 2

// buildSharedPlan compiles key's plan: from the plan alone when the
// emitter covers its strategy, else from a recording of a synthetic decode.
func buildSharedPlan(key planKey) *sharedPlan {
	c, err := NewCode(key.k)
	if err != nil {
		panic(err) // callers validate the block size
	}
	ar := core.ByStrategy(key.s)
	nb := BlocksPerRegister(key.w)
	pl := newPackedPlan(c, ar.Layout(key.w), key.w, nb)
	sp := &sharedPlan{packedPlan: pl}
	if emits(key.s) {
		start := time.Now()
		sp.prog, sp.err = emitProgram(pl)
		sp.compileTime = time.Since(start)
	} else {
		planCache.recordings.Add(1)
		// The op stream does not depend on the words (iterPacked), so the
		// all-zero batch records the program every batch replays.
		words := make([]*LLRWord, nb)
		for b := range words {
			words[b] = NewLLRWord(key.k)
		}
		sp.prog, sp.compileTime, sp.err = recordProgram(pl, ar, words, recordIters, false)
	}
	if sp.err == nil {
		sp.err = pl.checkExtent(sp.prog)
	}
	if sp.err != nil {
		sp.prog = nil
		planCache.failures.Add(1)
	} else {
		planCache.compiles.Add(1)
		planCache.compileNs.Add(sp.compileTime.Nanoseconds())
	}
	return sp
}

// checkExtent refuses a program that would reach past the plan's state
// region.
func (pl *packedPlan) checkExtent(prog *program.Program) error {
	if prog.Extent() > pl.size {
		return fmt.Errorf("turbo: program touches %d bytes of a %d-byte state region", prog.Extent(), pl.size)
	}
	return nil
}

// recordProgram interprets one decode of words under plan pl on a
// throwaway engine whose whole arena is the plan's state region — so every
// address the recorder sees is already an offset from the region's start —
// and compiles the recorded stream. The engine, its arena and the builder
// are garbage when it returns; elapsed is the time Builder.Compile took.
func recordProgram(pl *packedPlan, ar core.Arranger, words []*LLRWord, maxIters int, earlyExit bool) (prog *program.Program, elapsed time.Duration, err error) {
	e := simd.NewEngine(pl.w, simd.NewMemory(int(pl.size)), nil)
	st := newPackedState(e, ar, pl)
	d := NewMultiSIMDDecoder(pl.code)
	d.MaxIters, d.EarlyExit, d.RearrangePerHalfIter = maxIters, earlyExit, false
	// The recording interprets on tables of its own, garbage with the
	// engine: the plan holds none unless a decoder interprets it.
	st.interpTables = pl.newInterpTables()
	b := program.NewBuilder(pl.w, recordedOps(pl))
	e.SetProgSink(b)
	_, _, err = d.runPacked(st, words)
	e.SetProgSink(nil)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	prog, err = b.Compile()
	return prog, time.Since(start), err
}

// recordedOps bounds the ops a recording of plan pl stores raw at once:
// one iteration, the longest stretch (the builder fuses the prefix at the
// first iteration mark and records iteration 0 into the same buffer; a
// second is only compared), so the builder takes its stream in one
// allocation. The packed stream is linear in the plan's size: an
// iteration records about 102 ops a trellis step (two halves of alpha,
// beta + extraction and the gamma scatter) and up to 2 an element (gamma,
// extrinsic, interleave and hard-decision groups). Measured over all six
// strategies at K 40 and 512 and APCM to K 6144, at the three widths, the
// bound is 3 to 4 % above the count; a stream that outgrows it appends.
func recordedOps(pl *packedPlan) int {
	return 104*pl.code.K + 2*pl.n + 64
}
