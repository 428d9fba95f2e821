package turbo

import (
	"math/rand"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/trace"
)

// decodeThreeWay decodes the same batch through the compiled replay
// path, the interpreted MultiSIMDDecoder path and the scalar reference,
// and fails the test on any hard-decision or iteration-count mismatch.
func decodeThreeWay(t *testing.T, w simd.Width, k int, words []*LLRWord, maxIters int, label string) {
	t.Helper()
	comp := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
	comp.MaxIters = maxIters
	// First decode records + compiles (and is itself interpreted);
	// decode twice so the checked result comes from the replay path.
	if _, _, err := comp.Decode(k, words); err != nil {
		t.Fatalf("%s: warm-up: %v", label, err)
	}
	if comp.ProgramStats().CompiledPlans != 1 {
		t.Fatalf("%s: first decode did not compile a program", label)
	}
	got, gotIters, err := comp.Decode(k, words)
	if err != nil {
		t.Fatalf("%s: compiled: %v", label, err)
	}

	interp := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
	interp.MaxIters = maxIters
	interp.Compile = false
	want, wantIters, err := interp.Decode(k, words)
	if err != nil {
		t.Fatalf("%s: interpreted: %v", label, err)
	}
	if s := interp.ProgramStats(); s.CompiledPlans != 0 || s.Compiles != 0 {
		t.Fatalf("%s: Compile=false decoder compiled anyway: %+v", label, s)
	}

	if gotIters != wantIters {
		t.Errorf("%s: compiled ran %d iterations, interpreted %d", label, gotIters, wantIters)
	}
	c, err := comp.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	for b := range words {
		if !equalBits(got[b], want[b]) {
			t.Errorf("%s block %d: compiled and interpreted decisions differ", label, b)
		}
		sc := NewDecoder(c)
		sc.MaxIters = maxIters
		scalarBits, _, err := sc.Decode(words[b])
		if err != nil {
			t.Fatalf("%s block %d: scalar: %v", label, b, err)
		}
		if !equalBits(got[b], scalarBits) {
			t.Errorf("%s block %d: compiled and scalar decisions differ", label, b)
		}
	}
}

// TestCompiledMatchesInterpretedAndScalar is the satellite differential
// property test: over widths, block sizes, clean and noisy channels and
// partial batch fills, the compiled replay must produce exactly the bits
// of the interpreted SIMD decoder and of the scalar reference.
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
				decodeThreeWay(t, w, k, words, 4, label)
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
	if _, _, err := bd.Decode(k, words); err != nil { // records at 6 iters
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

// TestCompileNeedsTwoIterations: a MaxIters=1 recording cannot separate
// the first-iteration segment from the steady segment, so compilation
// must fail gracefully — the plan latches noCompile, stays interpreted
// and keeps decoding correctly.
func TestCompileNeedsTwoIterations(t *testing.T) {
	const k = 40
	bd := NewBatchDecoder(simd.W128, core.StrategyAPCM, 32<<20)
	bd.MaxIters = 1
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := buildWords(t, c, bd.Lanes(), 31, true)
	for round := 0; round < 3; round++ {
		bits, iters, err := bd.Decode(k, words)
		if err != nil {
			t.Fatal(err)
		}
		if iters != 1 {
			t.Fatalf("round %d: %d iterations at MaxIters=1", round, iters)
		}
		for b := range words {
			if !equalBits(bits[b], truth[b]) {
				t.Errorf("round %d block %d: wrong bits on interpreter fallback", round, b)
			}
		}
	}
	s := bd.ProgramStats()
	if s.CompiledPlans != 0 || s.Compiles != 0 {
		t.Errorf("one-iteration recording compiled anyway: %+v", s)
	}
	if !bd.plans[planKey{k: k, packed: bd.Packed}].noCompile {
		t.Error("failed compilation did not latch noCompile")
	}
	if s.Misses != 3 || s.Hits != 0 {
		t.Errorf("want 3 misses, 0 hits; got %+v", s)
	}
}

// TestCompiledEvictionRecompiles: arena eviction must discard compiled
// programs with their plans (they embed absolute arena addresses) and
// later decodes of the same K must transparently recompile.
func TestCompiledEvictionRecompiles(t *testing.T) {
	bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 2<<20)
	bd.MaxIters = 4
	ks := []int{6144, 5056, 6144, 4096, 5056, 6144}
	for round, k := range ks {
		c, err := bd.Code(k)
		if err != nil {
			t.Fatal(err)
		}
		words, truth := buildWords(t, c, bd.Lanes(), int64(700+round), true)
		bits, _, err := bd.Decode(k, words)
		if err != nil {
			t.Fatalf("round %d (K=%d): %v", round, k, err)
		}
		for b := range words {
			if !equalBits(bits[b], truth[b]) {
				t.Errorf("round %d (K=%d) block %d: wrong bits", round, k, b)
			}
		}
		if bd.plans[planKey{k: k, packed: bd.Packed}].prog == nil {
			t.Errorf("round %d (K=%d): current plan not compiled", round, k)
		}
	}
	if bd.Evictions == 0 {
		t.Fatal("2 MiB arena fit three K=4096..6144 W512 plans without evicting")
	}
	// Three distinct Ks but more compilations than that: eviction dropped
	// programs and later rounds transparently recompiled them.
	if s := bd.ProgramStats(); s.Compiles <= 3 {
		t.Errorf("want >3 compilations (recompiles after eviction), got %d", s.Compiles)
	}
}

// TestProgramStatsCounters pins the hit/miss/compile accounting that the
// serving metrics export.
func TestProgramStatsCounters(t *testing.T) {
	const k = 104
	bd := NewBatchDecoder(simd.W128, core.StrategyAPCM, 32<<20)
	bd.MaxIters = 4
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	var hooked int
	bd.OnCompile = func(hk int, elapsed time.Duration) {
		if hk != k {
			t.Errorf("OnCompile K=%d, want %d", hk, k)
		}
		hooked++
	}
	words, _ := buildWords(t, c, bd.Lanes(), 51, true)
	for i := 0; i < 4; i++ {
		if _, _, err := bd.Decode(k, words); err != nil {
			t.Fatal(err)
		}
	}
	s := bd.ProgramStats()
	if s.Misses != 1 || s.Hits != 3 || s.Compiles != 1 || s.CompiledPlans != 1 {
		t.Errorf("after 4 decodes: %+v, want 1 miss / 3 hits / 1 compile / 1 plan", s)
	}
	if s.CompileTime <= 0 {
		t.Error("compile time not accounted")
	}
	if hooked != 1 {
		t.Errorf("OnCompile fired %d times, want 1", hooked)
	}
}

// TestTracedEngineStaysInterpreted: replay emits no µops, so a decoder
// whose engine carries a trace recorder must never take the compiled
// path — otherwise experiment traces would silently lose their decode
// instruction stream.
func TestTracedEngineStaysInterpreted(t *testing.T) {
	const k = 104
	bd := &BatchDecoder{
		eng:       simd.NewEngine(simd.W128, simd.NewMemory(32<<20), trace.NewRecorder(1<<20)),
		ar:        core.ByStrategy(core.StrategyAPCM),
		plans:     make(map[planKey]*decodePlan),
		codes:     make(map[int]*Code),
		MaxIters:  4,
		EarlyExit: true,
		Packed:    true,
		Compile:   true,
	}
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := buildWords(t, c, bd.Lanes(), 61, true)
	before := bd.eng.TraceLen()
	for round := 0; round < 3; round++ {
		bits, _, err := bd.Decode(k, words)
		if err != nil {
			t.Fatal(err)
		}
		after := bd.eng.TraceLen()
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
	if s.Compiles != 0 || s.CompiledPlans != 0 || s.Hits != 0 {
		t.Errorf("traced engine took the compiled path: %+v", s)
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

// FuzzCompiledDecode is the satellite fuzz target: random K (from the
// supported LTE sizes), random batch fill and fully random LLR payloads
// must decode bit- and iteration-identically through the compiled and
// interpreted paths.
func FuzzCompiledDecode(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1))
	f.Add(int64(2), uint8(1), uint8(1), uint8(2))
	f.Add(int64(3), uint8(2), uint8(3), uint8(255))
	ks := []int{40, 104, 208, 512}
	f.Fuzz(func(t *testing.T, seed int64, wIdx, kIdx, fill uint8) {
		eachKernel(t, func(t *testing.T) {
			w := simd.Widths[int(wIdx)%len(simd.Widths)]
			k := ks[int(kIdx)%len(ks)]
			rng := rand.New(rand.NewSource(seed))
			nb := BlocksPerRegister(w)
			n := 1 + int(fill)%nb
			words := make([]*LLRWord, n)
			for b := range words {
				words[b] = randomWord(rng, k)
			}

			comp := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
			comp.MaxIters = 4
			if _, _, err := comp.Decode(k, words); err != nil {
				t.Fatal(err)
			}
			got, gotIters, err := comp.Decode(k, words)
			if err != nil {
				t.Fatal(err)
			}
			if comp.ProgramStats().Hits == 0 {
				t.Fatal("second decode did not hit the compiled program")
			}

			interp := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
			interp.Compile = false
			interp.MaxIters = 4
			want, wantIters, err := interp.Decode(k, words)
			if err != nil {
				t.Fatal(err)
			}
			if gotIters != wantIters {
				t.Errorf("compiled %d iters, interpreted %d", gotIters, wantIters)
			}
			for b := range words {
				if !equalBits(got[b], want[b]) {
					t.Errorf("block %d: compiled and interpreted decisions differ", b)
				}
			}
		})
	})
}
