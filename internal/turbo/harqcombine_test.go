package turbo

import (
	"math/rand"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
)

// TestAccumulateBasics: element-wise saturating add over every stream,
// and a K mismatch is an error that leaves the destination untouched.
func TestAccumulateBasics(t *testing.T) {
	a := NewLLRWord(4)
	b := NewLLRWord(4)
	for i := 0; i < 4; i++ {
		a.Sys[i], b.Sys[i] = 10, 20
		a.P1[i], b.P1[i] = -10, -20
		a.P2[i], b.P2[i] = 5, -5
	}
	for i := 0; i < 3; i++ {
		a.TailSys[i], b.TailSys[i] = 100, 200
		a.TailP1[i], b.TailP1[i] = -100, -200
	}
	if err := a.Accumulate(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if a.Sys[i] != 30 || a.P1[i] != -30 || a.P2[i] != 0 {
			t.Fatalf("pos %d: got %d/%d/%d, want 30/-30/0", i, a.Sys[i], a.P1[i], a.P2[i])
		}
	}
	for i := 0; i < 3; i++ {
		if a.TailSys[i] != LLRLimit-1 {
			t.Errorf("tail sys %d = %d, want saturated %d", i, a.TailSys[i], LLRLimit-1)
		}
		if a.TailP1[i] != -(LLRLimit - 1) {
			t.Errorf("tail p1 %d = %d, want saturated %d", i, a.TailP1[i], -(LLRLimit - 1))
		}
	}
	snap := a.Clone()
	if err := a.Accumulate(NewLLRWord(8)); err == nil {
		t.Fatal("K-mismatch accumulate accepted")
	}
	for i := range a.Sys {
		if a.Sys[i] != snap.Sys[i] {
			t.Fatal("failed accumulate mutated the destination")
		}
	}
}

// TestAccumulateStaysInRange: any sequence of accumulations of in-range
// words stays within ±(LLRLimit-1) — the channel-LLR bound every decoder
// build (SIMD and scalar) assumes of its input, which is what keeps
// combined-word decodes bit-identical across widths.
func TestAccumulateStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	acc := randomWord(rng, 64)
	for n := 0; n < 8; n++ {
		if err := acc.Accumulate(randomWord(rng, 64)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(v int16) {
		if v > LLRLimit-1 || v < -(LLRLimit-1) {
			t.Fatalf("accumulated sample %d out of channel-LLR range", v)
		}
	}
	for i := range acc.Sys {
		check(acc.Sys[i])
		check(acc.P1[i])
		check(acc.P2[i])
	}
	for i := 0; i < 3; i++ {
		check(acc.TailSys[i])
		check(acc.TailP1[i])
	}
}

// TestClone: the copy is deep — mutating it never reaches the source.
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := randomWord(rng, 16)
	c := w.Clone()
	orig := w.Sys[0]
	c.Sys[0] = orig + 1
	c.TailSys[0] = w.TailSys[0] + 1
	if w.Sys[0] != orig {
		t.Error("clone aliases Sys")
	}
}

// combinedWords builds nb HARQ-combined words: each is the accumulation
// of `receptions` independent noisy receptions of one encoded block —
// the exact input the serving runtime's retry path re-enqueues.
func combinedWords(t *testing.T, c *Code, nb int, receptions int, seed int64) ([]*LLRWord, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := make([]*LLRWord, nb)
	truth := make([][]byte, nb)
	for b := 0; b < nb; b++ {
		bits := randomBits(rng, c.K)
		cw, err := c.Encode(bits)
		if err != nil {
			t.Fatal(err)
		}
		var acc *LLRWord
		for r := 0; r < receptions; r++ {
			w := NewLLRWord(c.K)
			addAWGN(rng, w, cw, 0.8) // low per-reception SNR
			clampWord(w, LLRLimit-1)
			if acc == nil {
				acc = w.Clone()
			} else if err := acc.Accumulate(w); err != nil {
				t.Fatal(err)
			}
		}
		words[b] = acc
		truth[b] = bits
	}
	return words, truth
}

// TestCombinedDecodeDifferential is the satellite differential test for
// the HARQ combine path: a chase-combined retransmission must decode
// bit-identically through the compiled replay, the interpreted SIMD
// decoder and the scalar reference, at every width.
func TestCombinedDecodeDifferential(t *testing.T) {
	for _, w := range simd.Widths {
		for _, k := range []int{40, 104, 512} {
			c, err := NewCode(k)
			if err != nil {
				t.Fatal(err)
			}
			nb := BlocksPerRegister(w)
			for _, receptions := range []int{2, 4} {
				words, _ := combinedWords(t, c, nb, receptions, int64(100*k+receptions))
				label := w.String() + "/K" + itoa(k) + "/rx" + itoa(receptions)
				decodeAllWays(t, w, k, words, 4, label)
			}
		}
	}
}

// TestCombinedDecodeRecovers: receptions individually too noisy to
// decode recover after chase combining — the physical property the HARQ
// retry path banks on.
func TestCombinedDecodeRecovers(t *testing.T) {
	const k = 104
	c, err := NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	bits := randomBits(rng, k)
	cw, err := c.Encode(bits)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(c)
	dec.MaxIters = 8
	var acc *LLRWord
	combinedOK := false
	singleFails := 0
	const receptions = 6
	for r := 0; r < receptions; r++ {
		w := NewLLRWord(k)
		addAWGN(rng, w, cw, 0.35)
		clampWord(w, LLRLimit-1)
		if got, _, err := dec.Decode(w); err != nil {
			t.Fatal(err)
		} else if !equalBits(got, bits) {
			singleFails++
		}
		if acc == nil {
			acc = w.Clone()
		} else if err := acc.Accumulate(w); err != nil {
			t.Fatal(err)
		}
		if got, _, err := dec.Decode(acc); err != nil {
			t.Fatal(err)
		} else if equalBits(got, bits) && r > 0 {
			combinedOK = true
		}
	}
	if singleFails == 0 {
		t.Skip("every single reception decoded; channel too kind for the test")
	}
	if !combinedOK {
		t.Errorf("%d chase-combined receptions never decoded (%d/%d singles failed)",
			receptions, singleFails, receptions)
	}
}

// TestEvictAll: the explicit flush discards every plan's state, counts an
// eviction, and the next decode of each K transparently rebuilds the state
// and installs the same shared program again — no compile — with identical
// results.
func TestEvictAll(t *testing.T) {
	resetPlanCache()
	const k = 104
	bd := NewBatchDecoder(simd.W128, core.StrategyAPCM, 32<<20)
	bd.MaxIters = 4
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := buildWords(t, c, bd.Lanes(), 93, true)
	for i := 0; i < 2; i++ {
		if _, _, err := bd.Decode(k, words); err != nil {
			t.Fatal(err)
		}
	}
	if s := bd.ProgramStats(); s.CompiledPlans != 1 {
		t.Fatalf("expected a compiled plan before eviction: %+v", s)
	}
	bd.EvictAll()
	if s := bd.ProgramStats(); s.CompiledPlans != 0 {
		t.Errorf("EvictAll left %d compiled plans", s.CompiledPlans)
	}
	if bd.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", bd.Evictions)
	}
	bits, _, err := bd.Decode(k, words)
	if err != nil {
		t.Fatal(err)
	}
	for b := range words {
		if !equalBits(bits[b], truth[b]) {
			t.Errorf("post-eviction block %d: wrong bits", b)
		}
	}
	if s := bd.ProgramStats(); s.Compiles != 2 || s.CompiledPlans != 1 || s.Misses != 0 {
		t.Errorf("post-eviction decode did not install the program again: %+v", s)
	}
	if cs := PlanCacheStats(); cs.Compiles != 1 {
		t.Errorf("%d compiles across an eviction, want 1", cs.Compiles)
	}
}

// TestCompileGate: a rejecting gate forces this decoder onto the
// interpreter exactly like a verify failure — no program installed, the
// veto latched until an eviction, decodes bit-exact against the scalar
// decoder — and poisons nothing: the shared program stays cached and the
// next decoder gets it without a compile. The veto hits a size whose plan
// compiled before this decoder met it, so the plan holds no interpreter
// tables: the fallback builds them. An accepting gate changes nothing.
func TestCompileGate(t *testing.T) {
	resetPlanCache()
	const k = 104
	if err := Precompile(simd.W128, core.StrategyAPCM, k); err != nil {
		t.Fatal(err)
	}
	sp, _ := sharedPlanFor(planKey{k, simd.W128, core.StrategyAPCM})
	if sp.interp != nil {
		t.Fatal("the compiled plan kept interpreter tables")
	}
	bd := NewBatchDecoder(simd.W128, core.StrategyAPCM, 32<<20)
	bd.MaxIters = 4
	gated := 0
	bd.CompileGate = func(gk int) bool {
		if gk != k {
			t.Errorf("gate consulted for K=%d, want %d", gk, k)
		}
		gated++
		return false
	}
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	words, _ := buildWords(t, c, bd.Lanes(), 95, false)
	oracle := scalarDecode(t, c, words, bd.MaxIters)
	for i := 0; i < 3; i++ {
		bits, _, err := bd.Decode(k, words)
		if err != nil {
			t.Fatal(err)
		}
		for b := range words {
			if !equalBits(bits[b], oracle[b]) {
				t.Errorf("decode %d block %d: gated fallback differs from the scalar decoder", i, b)
			}
		}
	}
	if sp.interp == nil || bd.plans[k].pst.interpTables != sp.interp {
		t.Error("the fallback did not interpret on the plan's rebuilt tables")
	}
	if gated != 1 {
		t.Errorf("gate consulted %d times, want 1 (the veto must latch)", gated)
	}
	s := bd.ProgramStats()
	if s.Compiles != 0 || s.CompiledPlans != 0 || s.Hits != 0 || bd.PlanProgram(k) != nil {
		t.Errorf("vetoed install still produced a program: %+v", s)
	}
	if s.Misses != 3 {
		t.Errorf("want 3 interpreter misses, got %+v", s)
	}
	// The gate is asked again when an eviction makes the decoder install
	// again, and a veto then is as good as one before.
	bd.EvictAll()
	if _, _, err := bd.Decode(k, words); err != nil {
		t.Fatal(err)
	}
	if gated != 2 || bd.ProgramStats().Misses != 4 {
		t.Errorf("after an eviction: gate consulted %d times, %d misses; want 2 and 4", gated, bd.ProgramStats().Misses)
	}
	if cs := PlanCacheStats(); cs.Compiles != 1 || cs.Failures != 0 {
		t.Errorf("a veto on one decoder left the cache at %+v, want the one good compile", cs)
	}

	ok := NewBatchDecoder(simd.W128, core.StrategyAPCM, 32<<20)
	ok.MaxIters = 4
	ok.CompileGate = func(int) bool { return true }
	for i := 0; i < 2; i++ {
		if _, _, err := ok.Decode(k, words); err != nil {
			t.Fatal(err)
		}
	}
	if s := ok.ProgramStats(); s.Compiles != 1 || s.Hits != 2 || s.Misses != 0 {
		t.Errorf("accepting gate perturbed the install: %+v", s)
	}
	if cs := PlanCacheStats(); cs.Compiles != 1 {
		t.Errorf("the decoder after the vetoed one compiled again: %+v", cs)
	}
}

// FuzzCombinedDecode extends the differential fuzz target over the HARQ
// combine path: accumulate 2..5 random receptions, then require every
// decode of the combined word decodeAllWays knows to agree bit for bit.
func FuzzCombinedDecode(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(2))
	f.Add(int64(2), uint8(1), uint8(1), uint8(3))
	f.Add(int64(3), uint8(2), uint8(2), uint8(5))
	ks := []int{40, 104, 512}
	f.Fuzz(func(t *testing.T, seed int64, wIdx, kIdx, rx uint8) {
		eachKernel(t, func(t *testing.T) {
			w := simd.Widths[int(wIdx)%len(simd.Widths)]
			k := ks[int(kIdx)%len(ks)]
			receptions := 2 + int(rx)%4
			rng := rand.New(rand.NewSource(seed))
			words := make([]*LLRWord, BlocksPerRegister(w))
			for b := range words {
				acc := randomWord(rng, k)
				for r := 1; r < receptions; r++ {
					if err := acc.Accumulate(randomWord(rng, k)); err != nil {
						t.Fatal(err)
					}
				}
				words[b] = acc
			}
			decodeAllWays(t, w, k, words, 4, "fuzz")
		})
	})
}
