package turbo

import (
	"strings"
	"sync"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// scalarDecode is the oracle: each word alone through the scalar decoder.
func scalarDecode(t testing.TB, c *Code, words []*LLRWord, maxIters int) [][]byte {
	t.Helper()
	out := make([][]byte, len(words))
	for b, w := range words {
		d := NewDecoder(c)
		d.MaxIters = maxIters
		bits, _, err := d.Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		out[b] = bits
	}
	return out
}

// TestSharedPlanCompiledOnce: N goroutines, each with a fresh decoder,
// meet the same cold block size at the same moment. One of them compiles
// it, the rest wait for that flight, and every one of them decodes its own
// batch bit-exactly against the scalar decoder through the one program.
func TestSharedPlanCompiledOnce(t *testing.T) {
	resetPlanCache()
	const k, workers, maxIters = 512, 6, 4
	c, err := NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		words []*LLRWord
		want  [][]byte
	}
	jobs := make([]job, workers)
	for i := range jobs {
		words, _ := buildWords(t, c, BlocksPerRegister(simd.W512), int64(4000+i), i%2 == 0)
		jobs[i] = job{words, scalarDecode(t, c, words, maxIters)}
	}
	start := make(chan struct{})
	progs := make([]any, workers)
	led := make([]int, workers)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
			bd.MaxIters = maxIters
			bd.OnCompile = func(int, time.Duration) { led[i]++ }
			<-start
			for round := 0; round < 3; round++ {
				bits, _, err := bd.Decode(k, jobs[i].words)
				if err != nil {
					t.Error(err)
					return
				}
				for b := range bits {
					if !equalBits(bits[b], jobs[i].want[b]) {
						t.Errorf("worker %d round %d block %d: differs from the scalar decoder", i, round, b)
					}
				}
			}
			if s := bd.ProgramStats(); s.Hits != 3 || s.Misses != 0 || s.Compiles != 1 {
				t.Errorf("worker %d: %+v, want 3 hits on one installed program", i, s)
			}
			progs[i] = bd.PlanProgram(k)
		}(i)
	}
	close(start)
	wg.Wait()
	cs := PlanCacheStats()
	if cs.Compiles != 1 || cs.Failures != 0 {
		t.Errorf("%d decoders met K=%d cold at once: %d compiles, %d failures; want 1 and 0", workers, k, cs.Compiles, cs.Failures)
	}
	if cs.Waiters > workers-1 {
		t.Errorf("%d waiters among %d decoders", cs.Waiters, workers)
	}
	leaders := 0
	for i := range progs {
		leaders += led[i]
		if progs[i] == nil || progs[i] != progs[0] {
			t.Errorf("worker %d runs program %p, worker 0 runs %p", i, progs[i], progs[0])
		}
	}
	if leaders != 1 {
		t.Errorf("OnCompile fired %d times across the decoders, want 1", leaders)
	}
}

// TestSharedProgramIsImmutable: two workers replay the same two programs
// a thousand times between them, interleaved and at once, each decode
// checked; the programs' checksums — segments, tables, pools, descriptor
// streams — are what they were before the first. Under -race this is also
// the proof that Run only reads its program.
func TestSharedProgramIsImmutable(t *testing.T) {
	resetPlanCache()
	const maxIters, decodes = 4, 500
	ks := []int{40, 104}
	if err := Precompile(simd.W512, core.StrategyAPCM, ks...); err != nil {
		t.Fatal(err)
	}
	var sums [][32]byte
	for _, k := range ks {
		sp, _ := sharedPlanFor(planKey{k, simd.W512, core.StrategyAPCM})
		sums = append(sums, sp.prog.Checksum())
	}
	var wg sync.WaitGroup
	for wkr := 0; wkr < 2; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
			bd.MaxIters = maxIters
			type batch struct {
				words []*LLRWord
				want  [][]byte
			}
			pools := make(map[int][]batch)
			for _, k := range ks {
				c, err := bd.Code(k)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 4; i++ {
					words, _ := buildWords(t, c, 1+(i+wkr)%bd.Lanes(), int64(5000+100*wkr+10*k+i), i%2 == 0)
					pools[k] = append(pools[k], batch{words, scalarDecode(t, c, words, maxIters)})
				}
			}
			for n := 0; n < decodes; n++ {
				k := ks[(n+wkr)%len(ks)]
				bt := pools[k][n%len(pools[k])]
				bits, _, err := bd.Decode(k, bt.words)
				if err != nil {
					t.Error(err)
					return
				}
				for b := range bits {
					if !equalBits(bits[b], bt.want[b]) {
						t.Errorf("worker %d decode %d (K=%d) block %d: differs from the scalar decoder", wkr, n, k, b)
						return
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	for i, k := range ks {
		sp, led := sharedPlanFor(planKey{k, simd.W512, core.StrategyAPCM})
		if led {
			t.Fatalf("K=%d was compiled again", k)
		}
		if sp.prog.Checksum() != sums[i] {
			t.Errorf("K=%d: the shared program changed under %d decodes", k, 2*decodes)
		}
	}
	if cs := PlanCacheStats(); cs.Compiles != uint64(len(ks)) {
		t.Errorf("%d compiles for %d block sizes", cs.Compiles, len(ks))
	}
}

// TestSharedCompileFailureIsCached: a (K, width, strategy) that cannot
// compile is attempted once, cached as its error, and served interpreted —
// correctly — by every decoder, each decode a counted miss; Precompile
// names it. The strategy is one the emitter does not cover. The failure is
// the key's alone: the same size under a strategy it covers compiles.
func TestSharedCompileFailureIsCached(t *testing.T) {
	resetPlanCache()
	t.Cleanup(resetPlanCache)
	const k, s = 40, core.StrategyShuffle
	if Emits(s) {
		t.Fatalf("the emitter covers %v: the failure entry needs a strategy it does not", s)
	}
	c, err := NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := buildWords(t, c, BlocksPerRegister(simd.W256), 77, true)
	for i := 0; i < 3; i++ {
		bd := NewBatchDecoder(simd.W256, s, 32<<20)
		bd.MaxIters = 4
		bd.OnCompile = func(int, time.Duration) { t.Error("OnCompile fired for a failed compile") }
		for round := 0; round < 2; round++ {
			bits, _, err := bd.Decode(k, words)
			if err != nil {
				t.Fatal(err)
			}
			for b := range bits {
				if !equalBits(bits[b], truth[b]) {
					t.Errorf("decoder %d round %d block %d: wrong bits on the interpreter", i, round, b)
				}
			}
		}
		if s := bd.ProgramStats(); s.Misses != 2 || s.Hits != 0 || s.Compiles != 0 || s.CompiledPlans != 0 {
			t.Errorf("decoder %d: %+v, want 2 misses and nothing installed", i, s)
		}
	}
	if cs := PlanCacheStats(); cs.Failures != 1 || cs.Compiles != 0 {
		t.Errorf("three decoders on a size that cannot compile: %+v, want one cached failure", cs)
	}
	err = Precompile(simd.W256, s, k, 41)
	if err == nil || !strings.Contains(err.Error(), "K=40") || !strings.Contains(err.Error(), "block size 41") ||
		!strings.Contains(err.Error(), s.String()) {
		t.Errorf("Precompile of a failing and an invalid size: %v", err)
	}
	if cs := PlanCacheStats(); cs.Failures != 1 {
		t.Errorf("Precompile recorded the cached failure again: %+v", cs)
	}

	if err := Precompile(simd.W256, core.StrategyExtract, k); err != nil {
		t.Errorf("K=%d under extract: %v", k, err)
	}
}

// TestPrecompile: the sizes a binary names at start-up are compiled before
// any decoder exists, and the first decode of one then costs a state, not a
// compile; naming a size twice, or again later, costs nothing.
func TestPrecompile(t *testing.T) {
	resetPlanCache()
	if err := Precompile(simd.W128, core.StrategyAPCM, 40, 104, 40); err != nil {
		t.Fatal(err)
	}
	if cs := PlanCacheStats(); cs.Compiles != 2 || cs.Waiters != 0 {
		t.Fatalf("Precompile(40, 104, 40): %+v, want 2 compiles", cs)
	}
	bd := NewBatchDecoder(simd.W128, core.StrategyAPCM, 32<<20)
	bd.OnCompile = func(k int, _ time.Duration) { t.Errorf("decoder compiled K=%d after Precompile", k) }
	c, err := bd.Code(104)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := buildWords(t, c, 1, 3, true)
	bits, _, err := bd.Decode(104, words)
	if err != nil {
		t.Fatal(err)
	}
	if !equalBits(bits[0], truth[0]) {
		t.Error("wrong bits")
	}
	if s := bd.ProgramStats(); s.Hits != 1 || s.Compiles != 1 {
		t.Errorf("first decode of a precompiled size: %+v", s)
	}
	if err := Precompile(simd.W128, core.StrategyAPCM, 104); err != nil {
		t.Fatal(err)
	}
	if cs := PlanCacheStats(); cs.Compiles != 2 {
		t.Errorf("%d compiles after decoding and precompiling a cached size, want 2", cs.Compiles)
	}
	if err := Precompile(simd.W128, core.StrategyAPCM, 41); err == nil {
		t.Error("Precompile accepted block size 41")
	}
}

// TestServingPlansAreNativeOnly: a program is the same bytes whichever
// executor runs it, so turning the native kernel off does not compile a
// second cache entry: the cache gives back the program it holds for every
// serving-size W512/APCM key.
func TestServingPlansAreNativeOnly(t *testing.T) {
	for _, k := range []int{40, 104, 512, 1024, 2048, 6144} {
		sp, _ := sharedPlanFor(planKey{k, simd.W512, core.StrategyAPCM})
		if sp.err != nil {
			t.Fatalf("K=%d: %v", k, sp.err)
		}
		before := PlanCacheStats().Compiles
		was := program.UseNativeKernel(false)
		gp, led := sharedPlanFor(planKey{k, simd.W512, core.StrategyAPCM})
		program.UseNativeKernel(was)
		if gp != sp || led || PlanCacheStats().Compiles != before {
			t.Errorf("K=%d: with the native kernel off the cache compiled again (same entry: %v, led: %v)", k, gp == sp, led)
		}
	}
}

// TestConcurrentVetoBuildsTablesOnce: decoders whose CompileGate vetoes a
// compiled plan's program meet it at the same moment. The compile left the
// plan no interpreter tables; they are built again exactly once, every
// decoder's state interprets on that one set, and every decode is
// bit-exact against the scalar decoder. Under -race this is the proof that
// the build publishes the tables safely to the decoders that did not make
// it.
func TestConcurrentVetoBuildsTablesOnce(t *testing.T) {
	resetPlanCache()
	const k, workers, maxIters = 104, 4, 4
	if err := Precompile(simd.W512, core.StrategyAPCM, k); err != nil {
		t.Fatal(err)
	}
	sp, _ := sharedPlanFor(planKey{k, simd.W512, core.StrategyAPCM})
	if sp.interp != nil {
		t.Fatal("the compiled plan kept interpreter tables")
	}
	type job struct {
		words []*LLRWord
		want  [][]byte
	}
	jobs := make([]job, workers)
	for i := range jobs {
		words, _ := buildWords(t, sp.code, BlocksPerRegister(simd.W512), int64(6000+i), false)
		jobs[i] = job{words, scalarDecode(t, sp.code, words, maxIters)}
	}
	start := make(chan struct{})
	tabs := make([]*interpTables, workers)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
			bd.MaxIters = maxIters
			bd.CompileGate = func(int) bool { return false }
			<-start
			for round := 0; round < 2; round++ {
				bits, _, err := bd.Decode(k, jobs[i].words)
				if err != nil {
					t.Error(err)
					return
				}
				for b := range bits {
					if !equalBits(bits[b], jobs[i].want[b]) {
						t.Errorf("worker %d round %d block %d: differs from the scalar decoder", i, round, b)
					}
				}
			}
			if s := bd.ProgramStats(); s.Misses != 2 || s.Hits != 0 {
				t.Errorf("worker %d: %+v, want 2 interpreted decodes", i, s)
			}
			tabs[i] = bd.plans[k].pst.interpTables
		}(i)
	}
	close(start)
	wg.Wait()
	for i, tb := range tabs {
		if tb == nil || tb != sp.interp {
			t.Errorf("worker %d interpreted on tables %p, the plan holds %p", i, tb, sp.interp)
		}
	}
	if cs := PlanCacheStats(); cs.Compiles != 1 || cs.Failures != 0 {
		t.Errorf("vetoes changed the cache: %+v, want the one compile", cs)
	}
}
