package turbo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/trace"
)

// TestCompiledMatchesInterpretedAndScalar: over widths, block sizes,
// clean and noisy channels and partial batch fills, the compiled replay
// must produce exactly the bits of the interpreted SIMD decoders and of
// the scalar reference.
func TestCompiledMatchesInterpretedAndScalar(t *testing.T) {
	eachKernel(t, testCompiledMatchesInterpretedAndScalar)
}

func testCompiledMatchesInterpretedAndScalar(t *testing.T) {
	for _, w := range simd.Widths {
		for _, k := range []int{40, 104, 512} {
			c, err := NewCode(k)
			if err != nil {
				t.Fatal(err)
			}
			nb := BlocksPerRegister(w)
			for _, tc := range []struct {
				name      string
				fill      int
				seed      int64
				noiseless bool
			}{
				{"clean/full", nb, 11, true},
				{"noisy/full", nb, 12, false},
				{"noisy/one", 1, 13, false},
			} {
				words, _ := buildWords(t, c, tc.fill, tc.seed, tc.noiseless)
				label := w.String() + "/K" + itoa(k) + "/" + tc.name
				decodeAllWays(t, w, k, words, 4, label)
			}
		}
	}
}

// TestCompiledEveryBudget: a decode runs SegFirst once and SegSteady for
// every iteration, so a budget of one iteration replays the prefix and one
// steady segment and nothing else. At every budget from 1 to 4, under
// both arrangements the emitter writes, the compiled, interpreted and
// scalar decodes give the same bits and each block the same iterations, on
// both kernels.
func TestCompiledEveryBudget(t *testing.T) { eachKernel(t, testCompiledEveryBudget) }

func testCompiledEveryBudget(t *testing.T) {
	for _, s := range []core.Strategy{core.StrategyAPCM, core.StrategyExtract} {
		for _, w := range []simd.Width{simd.W128, simd.W512} {
			for _, k := range []int{40, 512} {
				c, err := NewCode(k)
				if err != nil {
					t.Fatal(err)
				}
				words, _ := buildWords(t, c, BlocksPerRegister(w), int64(300+k), false)
				for maxIters := 1; maxIters <= 4; maxIters++ {
					label := fmt.Sprintf("%v/%v/K%d/MaxIters%d", s, w, k, maxIters)
					decode := func(compile bool) ([][]byte, []int) {
						bd := NewBatchDecoder(w, s, 32<<20)
						bd.MaxIters, bd.Compile = maxIters, compile
						bits, _, err := bd.Decode(k, words)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if st := bd.ProgramStats(); compile && st.Hits != 1 {
							t.Fatalf("%s: the decode did not replay a compiled program: %+v", label, st)
						}
						return bits, slices.Clone(bd.BlockIters())
					}
					cBits, cIters := decode(true)
					iBits, iIters := decode(false)
					for b, word := range words {
						sc := NewDecoder(c)
						sc.MaxIters = maxIters
						sBits, sIters, err := sc.Decode(word)
						if err != nil {
							t.Fatal(err)
						}
						if !equalBits(cBits[b], iBits[b]) || !equalBits(cBits[b], sBits) {
							t.Errorf("%s block %d: compiled, interpreted and scalar decisions differ", label, b)
						}
						if cIters[b] != iIters[b] || cIters[b] != sIters {
							t.Errorf("%s block %d: iterations compiled %d, interpreted %d, scalar %d", label, b, cIters[b], iIters[b], sIters)
						}
					}
				}
			}
		}
	}
}

func itoa(k int) string {
	if k == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for k > 0 {
		i--
		b[i] = byte('0' + k%10)
		k /= 10
	}
	return string(b[i:])
}

// TestCompiledRespectsConfigChanges: MaxIters and EarlyExit live on the
// BatchDecoder and apply per call — the compiled program fixes only the
// per-iteration op stream, so tightening MaxIters after compilation must
// change behavior exactly as it does on the interpreter.
func TestCompiledRespectsConfigChanges(t *testing.T) {
	const k = 104
	bd := NewBatchDecoder(simd.W256, core.StrategyAPCM, 32<<20)
	bd.MaxIters = 6
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	words, _ := buildWords(t, c, bd.Lanes(), 21, false)
	if _, _, err := bd.Decode(k, words); err != nil {
		t.Fatal(err)
	}
	if bd.ProgramStats().CompiledPlans != 1 {
		t.Fatal("expected a compiled plan")
	}

	for _, cfg := range []struct {
		maxIters  int
		earlyExit bool
	}{{2, false}, {3, true}, {6, true}} {
		bd.MaxIters, bd.EarlyExit = cfg.maxIters, cfg.earlyExit
		got, gotIters, err := bd.Decode(k, words)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewBatchDecoder(simd.W256, core.StrategyAPCM, 32<<20)
		ref.Compile = false
		ref.MaxIters, ref.EarlyExit = cfg.maxIters, cfg.earlyExit
		want, wantIters, err := ref.Decode(k, words)
		if err != nil {
			t.Fatal(err)
		}
		if gotIters != wantIters {
			t.Errorf("maxIters=%d earlyExit=%v: compiled %d iters, interpreted %d",
				cfg.maxIters, cfg.earlyExit, gotIters, wantIters)
		}
		for b := range words {
			if !equalBits(got[b], want[b]) {
				t.Errorf("maxIters=%d earlyExit=%v block %d: decisions differ",
					cfg.maxIters, cfg.earlyExit, b)
			}
		}
	}
}

// TestCompileNeedsTwoIterations: the program is made from the plan, apart
// from the decode in hand, so the budget of that decode does not matter: a
// one-iteration first decode is served by the compiled program, and
// raising the budget afterwards compiles nothing again.
func TestCompileNeedsTwoIterations(t *testing.T) {
	resetPlanCache()
	const k = 40
	bd := NewBatchDecoder(simd.W128, core.StrategyAPCM, 32<<20)
	bd.MaxIters = 1
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := buildWords(t, c, bd.Lanes(), 31, true)
	decode := func(label string, wantIters int) {
		t.Helper()
		bits, iters, err := bd.Decode(k, words)
		if err != nil {
			t.Fatal(err)
		}
		if iters != wantIters {
			t.Fatalf("%s: %d iterations, want %d", label, iters, wantIters)
		}
		for b := range words {
			if !equalBits(bits[b], truth[b]) {
				t.Errorf("%s block %d: wrong bits", label, b)
			}
		}
	}
	for round := 0; round < 3; round++ {
		decode("MaxIters=1", 1)
	}
	if s := bd.ProgramStats(); s.Hits != 3 || s.Misses != 0 || s.CompiledPlans != 1 {
		t.Errorf("one-iteration decodes were not served by the compiled program: %+v", s)
	}

	// The same decoder, its budget raised: the installed program serves it.
	bd.MaxIters = 4
	decode("MaxIters=4", 2)
	decode("replay", 2)
	if s := bd.ProgramStats(); s.Hits != 5 || s.Misses != 0 || s.Compiles != 1 {
		t.Errorf("want 5 hits on one installed program; got %+v", s)
	}
	if cs := PlanCacheStats(); cs.Compiles != 1 || cs.Failures != 0 {
		t.Errorf("budgets 1 and 4 on one decoder: %d compiles (%d failures), want 1", cs.Compiles, cs.Failures)
	}
}

// TestProgramStatsCounters pins the hit/miss/install accounting that the
// serving metrics export, on the decoder that compiles a block size for
// the process and on one that adopts it.
func TestProgramStatsCounters(t *testing.T) {
	resetPlanCache()
	const k = 104
	var hooked int
	newDecoder := func() *BatchDecoder {
		bd := NewBatchDecoder(simd.W128, core.StrategyAPCM, 32<<20)
		bd.MaxIters = 4
		bd.OnCompile = func(hk int, elapsed time.Duration) {
			if hk != k || elapsed <= 0 {
				t.Errorf("OnCompile(K=%d, %v), want K=%d and a positive time", hk, elapsed, k)
			}
			hooked++
		}
		return bd
	}
	bd := newDecoder()
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	words, _ := buildWords(t, c, bd.Lanes(), 51, true)
	for i := 0; i < 4; i++ {
		if _, _, err := bd.Decode(k, words); err != nil {
			t.Fatal(err)
		}
	}
	s := bd.ProgramStats()
	if s.Misses != 0 || s.Hits != 4 || s.Compiles != 1 || s.CompiledPlans != 1 {
		t.Errorf("after 4 decodes: %+v, want 0 misses / 4 hits / 1 install / 1 plan", s)
	}
	if s.CompileTime <= 0 {
		t.Error("compile time not accounted")
	}
	if hooked != 1 {
		t.Errorf("OnCompile fired %d times on the compiling decoder, want 1", hooked)
	}

	// A second decoder adopts: the same per-decoder reading (a probe that
	// asks a fresh decoder "did your first decode get a program, and what
	// does one cost" is answered the same), no hook, no compile.
	adopter := newDecoder()
	if _, _, err := adopter.Decode(k, words); err != nil {
		t.Fatal(err)
	}
	if a := adopter.ProgramStats(); a.Compiles != 1 || a.CompileTime != s.CompileTime || a.Hits != 1 || a.Misses != 0 {
		t.Errorf("adopting decoder: %+v, want 1 install carrying the compile time %v", a, s.CompileTime)
	}
	if hooked != 1 {
		t.Errorf("OnCompile fired on adoption (%d calls)", hooked)
	}
	if cs := PlanCacheStats(); cs.Compiles != 1 || cs.CompileTime != s.CompileTime || cs.Failures != 0 {
		t.Errorf("cache: %+v, want the one compile of %v", cs, s.CompileTime)
	}
}

// TestTracedEngineStaysInterpreted: replay emits no µops, so a decoder
// with a trace recorder must never take the compiled path — otherwise
// experiment traces would silently lose their decode instruction stream.
func TestTracedEngineStaysInterpreted(t *testing.T) {
	resetPlanCache()
	const k = 104
	bd := &BatchDecoder{
		w:         simd.W128,
		rec:       trace.NewRecorder(1 << 20),
		memBytes:  32 << 20,
		ar:        core.ByStrategy(core.StrategyAPCM),
		plans:     make(map[int]*decodePlan),
		MaxIters:  4,
		EarlyExit: true,
		Compile:   true,
	}
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := buildWords(t, c, bd.Lanes(), 61, true)
	before := bd.rec.Len()
	for round := 0; round < 3; round++ {
		bits, _, err := bd.Decode(k, words)
		if err != nil {
			t.Fatal(err)
		}
		after := bd.rec.Len()
		if after <= before {
			t.Fatalf("round %d: traced decode emitted no µops (%d -> %d)", round, before, after)
		}
		before = after
		for b := range words {
			if !equalBits(bits[b], truth[b]) {
				t.Errorf("round %d block %d: wrong bits", round, b)
			}
		}
	}
	s := bd.ProgramStats()
	if s.Compiles != 0 || s.CompiledPlans != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Errorf("traced engine took the compiled path: %+v", s)
	}
	if cs := PlanCacheStats(); cs != (CacheStats{}) {
		t.Errorf("traced engine consulted the plan cache: %+v", cs)
	}
}

// randomWord fills an LLRWord with arbitrary in-range LLRs — not
// necessarily a plausible codeword, which is exactly the point: replay
// must match the interpreter on any input, not just decodable ones.
func randomWord(rng *rand.Rand, k int) *LLRWord {
	w := NewLLRWord(k)
	r16 := func() int16 { return int16(rng.Intn(2*int(LLRLimit)-1)) - (LLRLimit - 1) }
	for i := 0; i < k; i++ {
		w.Sys[i], w.P1[i], w.P2[i] = r16(), r16(), r16()
	}
	for i := 0; i < 3; i++ {
		w.TailSys[i], w.TailP1[i] = r16(), r16()
	}
	return w
}

// FuzzCompiledDecode shares fuzzDecodeAllWays with FuzzPackedDecode; the
// two keep their own seed corpora.
func FuzzCompiledDecode(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1))
	f.Add(int64(2), uint8(1), uint8(1), uint8(2))
	f.Add(int64(3), uint8(2), uint8(3), uint8(255))
	fuzzDecodeAllWays(f)
}
