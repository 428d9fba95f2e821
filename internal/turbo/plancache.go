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
// up wait for it instead of compiling their own. The program is emitted
// from the plan itself (emit.go), for the paper's two arrangements; no
// engine runs and no word is decoded, and no decoder ever interprets a
// shared plan, so it holds no interpreter tables.
//
// A key that cannot compile — one whose strategy the emitter does not
// cover (Emits) — is cached too, as its error: every decoder learns it
// from the one attempt and fails each batch of that K with it, instead of
// each worker compiling it again. A serving binary meets the error at
// start-up (Precompile) and refuses to start.
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
	// none; err names the key. compileTime is what compiling it took: the
	// whole emission.
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

	compiles, waiters, failures atomic.Uint64
	compileNs                   atomic.Int64
}

// CacheStats is a snapshot of the process-wide plan cache counters.
type CacheStats struct {
	// Compiles counts programs compiled in this process, one per
	// (K, width, strategy) that compiled; CompileTime is their
	// cumulative cost, each the whole emission of its program.
	Compiles    uint64
	CompileTime time.Duration
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
		Waiters:     planCache.waiters.Load(),
		Failures:    planCache.failures.Load(),
	}
}

// Precompile builds the shared plan and compiles the replay program of
// every block size in ks at width w under strategy s, so that no decoder
// of the process meets them cold: a serving binary calls it with the
// sizes its configuration names before it admits traffic. Sizes already
// cached cost nothing. It reports the sizes that are not valid or did not
// compile: a decoder that compiles fails every batch of those, so a
// serving binary refuses to start on this error.
func Precompile(w simd.Width, s core.Strategy, ks ...int) error {
	var errs []error
	for _, k := range ks {
		if err := checkBlockSize(k); err != nil {
			errs = append(errs, err)
			continue
		}
		if sp, _ := sharedPlanFor(planKey{k, w, s}); sp.err != nil {
			errs = append(errs, sp.err)
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

// buildSharedPlan builds key's plan and emits its program.
func buildSharedPlan(key planKey) *sharedPlan {
	c, err := NewCode(key.k)
	if err != nil {
		panic(err) // callers validate the block size
	}
	pl := newPackedPlan(c, core.ByStrategy(key.s).Layout(key.w), key.w, BlocksPerRegister(key.w))
	sp := &sharedPlan{packedPlan: pl}
	start := time.Now()
	sp.prog, sp.err = emitProgram(pl, key.s)
	sp.compileTime = time.Since(start)
	if sp.err == nil {
		sp.err = pl.checkExtent(sp.prog)
	}
	if sp.err != nil {
		sp.prog = nil
		sp.err = fmt.Errorf("turbo: K=%d at %v/%v does not compile: %w", key.k, key.w, key.s, sp.err)
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
