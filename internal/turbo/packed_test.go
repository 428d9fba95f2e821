package turbo

import (
	"math/rand"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// eachKernel runs f once with the replay programs run by the Go executor
// and once by the native kernel, so one binary checks both against the
// interpreter and the scalar decoder. The executor is chosen where a
// decoder makes its Exec, so f must make its decoders itself. On a host
// without the native kernel that half is skipped, with the reason.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, name := range []string{"go", "avx512bw"} {
		t.Run(name, func(t *testing.T) {
			was := program.UseNativeKernel(name != "go")
			defer program.UseNativeKernel(was)
			if program.Kernel() != name {
				t.Skipf("this host runs the %q kernel only (no AVX-512BW, or the OS does not save ZMM state): %s not exercised", program.Kernel(), name)
			}
			f(t)
		})
	}
}

// decodeAllWays decodes the same batch through the compiled replay, the
// packed interpreter and the scalar reference, failing on any
// hard-decision or iteration-count mismatch. It is the serving path's
// bit-exactness oracle: the SoA layout, the quad branch-metric scatter,
// the gather-program interleave and the fused replay steps must all be
// invisible in the output.
func decodeAllWays(t *testing.T, w simd.Width, k int, words []*LLRWord, maxIters int, label string) {
	t.Helper()
	comp := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
	comp.MaxIters = maxIters
	// Decode twice: the checked result comes from a state that has already
	// been through a decode, as a serving worker's has.
	if _, _, err := comp.Decode(k, words); err != nil {
		t.Fatalf("%s: warm-up: %v", label, err)
	}
	got, gotIters, err := comp.Decode(k, words)
	if err != nil {
		t.Fatalf("%s: compiled: %v", label, err)
	}
	if s := comp.ProgramStats(); s.CompiledPlans != 1 || s.Compiles != 1 {
		t.Fatalf("%s: the decodes did not replay a compiled program: %+v", label, s)
	}
	gotPer := append([]int(nil), comp.BlockIters()...)

	interp := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
	interp.MaxIters = maxIters
	interp.Compile = false
	wantI, wantIIters, err := interp.Decode(k, words)
	if err != nil {
		t.Fatalf("%s: interpreted: %v", label, err)
	}
	if s := interp.ProgramStats(); s.CompiledPlans != 0 || s.Compiles != 0 {
		t.Fatalf("%s: Compile=false decoder compiled anyway: %+v", label, s)
	}

	c, err := comp.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	if gotIters != wantIIters {
		t.Errorf("%s: iterations diverge: compiled %d, interpreted %d", label, gotIters, wantIIters)
	}
	for b := range words {
		if !equalBits(got[b], wantI[b]) {
			t.Errorf("%s block %d: compiled and interpreted decisions differ", label, b)
		}
		sc := NewDecoder(c)
		sc.MaxIters = maxIters
		scalarBits, scalarIters, err := sc.Decode(words[b])
		if err != nil {
			t.Fatalf("%s block %d: scalar: %v", label, b, err)
		}
		if !equalBits(got[b], scalarBits) {
			t.Errorf("%s block %d: packed and scalar decisions differ", label, b)
		}
		if gotPer[b] != scalarIters {
			t.Errorf("%s block %d: packed converged in %d iterations, scalar in %d",
				label, b, gotPer[b], scalarIters)
		}
	}
}

// TestPackedMatchesAllPaths is the differential property test: across
// widths, block sizes (including the largest fused-program sizes),
// clean and noisy channels and partial fills, the compiled packed path
// must be bit- and iteration-identical to its interpreter and the scalar
// reference. K=104 and K=512 get the
// same treatment in TestCompiledMatchesInterpretedAndScalar.
func TestPackedMatchesAllPaths(t *testing.T) { eachKernel(t, testPackedMatchesAllPaths) }

func testPackedMatchesAllPaths(t *testing.T) {
	for _, w := range simd.Widths {
		for _, k := range []int{40, 208, 2048} {
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
				{"clean/full", nb, 811, true},
				{"noisy/full", nb, 812, false},
				{"noisy/one", 1, 813, false},
			} {
				words, _ := buildWords(t, c, tc.fill, tc.seed, tc.noiseless)
				label := w.String() + "/K" + itoa(k) + "/" + tc.name
				decodeAllWays(t, w, k, words, 4, label)
			}
		}
	}
}

// TestPackedPaddedLanesInvariant is the under-filled-batch regression
// test: a batch of n < Lanes() real words pads the remaining lanes with
// copies of the first word, and those padded lanes must be completely
// invisible — every real block's hard decisions AND its per-block
// convergence iteration must equal what decoding that word alone
// produces, at every fill level, on both the compiled and interpreted
// packed paths.
func TestPackedPaddedLanesInvariant(t *testing.T) { eachKernel(t, testPackedPaddedLanesInvariant) }

func testPackedPaddedLanesInvariant(t *testing.T) {
	const k = 104
	for _, compile := range []bool{true, false} {
		for _, w := range []simd.Width{simd.W256, simd.W512} {
			nb := BlocksPerRegister(w)
			c, err := NewCode(k)
			if err != nil {
				t.Fatal(err)
			}
			// Noisy words so blocks genuinely converge at different
			// iterations — the interesting case for early-exit masking.
			words, _ := buildWords(t, c, nb, 831, false)

			// Solo reference: each word decoded alone.
			soloBits := make([][]byte, nb)
			soloIters := make([]int, nb)
			for b := 0; b < nb; b++ {
				solo := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
				solo.MaxIters = 6
				solo.Compile = compile
				bits, _, err := solo.Decode(k, words[b:b+1])
				if err != nil {
					t.Fatal(err)
				}
				soloBits[b] = bits[0]
				soloIters[b] = solo.BlockIters()[0]
			}

			for fill := 1; fill <= nb; fill++ {
				bd := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
				bd.MaxIters = 6
				bd.Compile = compile
				var bits [][]byte
				// Two decodes when compiling, so the checked batch runs
				// through the replay program.
				rounds := 1
				if compile {
					rounds = 2
				}
				for i := 0; i < rounds; i++ {
					bits, _, err = bd.Decode(k, words[:fill])
					if err != nil {
						t.Fatal(err)
					}
				}
				if len(bits) != fill {
					t.Fatalf("%v fill=%d: got %d result blocks", w, fill, len(bits))
				}
				per := bd.BlockIters()
				if len(per) != fill {
					t.Fatalf("%v fill=%d: BlockIters has %d entries", w, fill, len(per))
				}
				for b := 0; b < fill; b++ {
					if !equalBits(bits[b], soloBits[b]) {
						t.Errorf("%v compile=%v fill=%d block %d: batched decisions differ from solo decode",
							w, compile, fill, b)
					}
					if per[b] != soloIters[b] {
						t.Errorf("%v compile=%v fill=%d block %d: batched block converged in %d iterations, solo in %d",
							w, compile, fill, b, per[b], soloIters[b])
					}
				}
			}
		}
	}
}

// TestPackedMidStreamKChange drives one decoder through interleaved
// block sizes and fills — every plan change and scratch rewind
// mid-stream must stay bit-exact.
func TestPackedMidStreamKChange(t *testing.T) {
	bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
	bd.MaxIters = 4
	seq := []struct {
		k    int
		fill int
	}{
		{104, 4}, {512, 1}, {104, 2}, {2048, 4}, {512, 4}, {104, 4}, {2048, 1},
	}
	for round, s := range seq {
		c, err := bd.Code(s.k)
		if err != nil {
			t.Fatal(err)
		}
		words, truth := buildWords(t, c, s.fill, int64(850+round), true)
		bits, _, err := bd.Decode(s.k, words)
		if err != nil {
			t.Fatalf("round %d (K=%d): %v", round, s.k, err)
		}
		for b := range words {
			if !equalBits(bits[b], truth[b]) {
				t.Errorf("round %d (K=%d fill=%d) block %d: wrong bits", round, s.k, s.fill, b)
			}
		}
	}
	if got := bd.ProgramStats().CompiledPlans; got != 3 {
		t.Errorf("want 3 compiled packed plans after the sequence, got %d", got)
	}
}

// TestPackedPlanEviction forces arena-pressure eviction: an execution
// state is bound to its arena region, so eviction must discard it with the
// rest of the state, and later decodes of the same K must transparently
// rebuild the state over a new region, install the same shared program on
// it — without a compile — and stay correct.
func TestPackedPlanEviction(t *testing.T) {
	resetPlanCache()
	bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 2<<20)
	bd.MaxIters = 4
	ks := []int{6144, 5056, 6144, 4096, 5056, 6144}
	progs := make(map[int]any)
	for round, k := range ks {
		c, err := bd.Code(k)
		if err != nil {
			t.Fatal(err)
		}
		words, truth := buildWords(t, c, bd.Lanes(), int64(870+round), true)
		bits, _, err := bd.Decode(k, words)
		if err != nil {
			t.Fatalf("round %d (K=%d): %v", round, k, err)
		}
		for b := range words {
			if !equalBits(bits[b], truth[b]) {
				t.Errorf("round %d (K=%d) block %d: wrong bits after eviction", round, k, b)
			}
		}
		prog := bd.PlanProgram(k)
		if prog == nil {
			t.Errorf("round %d (K=%d): current packed plan not compiled", round, k)
		}
		if was, seen := progs[k]; seen && was != any(prog) {
			t.Errorf("round %d (K=%d): a different program after eviction", round, k)
		}
		progs[k] = prog
	}
	if bd.Evictions == 0 {
		t.Fatal("2 MiB arena fit three K=4096..6144 W512 packed plans without evicting")
	}
	if s := bd.ProgramStats(); s.Compiles <= 3 {
		t.Errorf("want >3 installs (re-adoption after eviction), got %+v", s)
	}
	if cs := PlanCacheStats(); cs.Compiles != 3 {
		t.Errorf("%d compiles for three block sizes, want 3 however often the arena was flushed", cs.Compiles)
	}

	// CompiledPlans is a counter kept at install and eviction, not a walk of
	// the plan map: it must read what a walk would, through an explicit
	// eviction and the installs after it.
	held := func() (n int) {
		for _, k := range []int{4096, 5056, 6144} {
			if bd.PlanProgram(k) != nil {
				n++
			}
		}
		return n
	}
	if got := bd.ProgramStats().CompiledPlans; got != held() || got == 0 {
		t.Errorf("CompiledPlans = %d, the plans hold %d programs", got, held())
	}
	bd.EvictAll()
	if got := bd.ProgramStats().CompiledPlans; got != 0 || held() != 0 {
		t.Errorf("CompiledPlans = %d after EvictAll (plans hold %d programs), want 0", got, held())
	}
	small := []int{40, 104, 208}
	for n, k := range small {
		c, err := bd.Code(k)
		if err != nil {
			t.Fatal(err)
		}
		words, _ := buildWords(t, c, bd.Lanes(), int64(880+n), true)
		if _, _, err := bd.Decode(k, words); err != nil {
			t.Fatalf("K=%d after EvictAll: %v", k, err)
		}
		if got := bd.ProgramStats().CompiledPlans; got != n+1 {
			t.Errorf("CompiledPlans = %d after one decode each of %v, want %d", got, small[:n+1], n+1)
		}
	}
}

// TestStateRegionsFitTheirSizes: a decoder holds, per block size it
// decodes, a region of exactly that size's plan (64-byte rounded), and
// nothing more: after the four grid sizes its state bytes are the sum of
// their regions, each size decoding correctly on its own. A budget below
// that sum still evicts — through EvictAll, counted once, and without a
// compile.
func TestStateRegionsFitTheirSizes(t *testing.T) {
	grid := []int{40, 512, 2048, 6144}
	decodeGrid := func(bd *BatchDecoder) {
		t.Helper()
		for round, k := range grid {
			c, err := bd.Code(k)
			if err != nil {
				t.Fatal(err)
			}
			words, truth := buildWords(t, c, 1, int64(890+round), true)
			bits, _, err := bd.Decode(k, words)
			if err != nil {
				t.Fatalf("K=%d: %v", k, err)
			}
			if !equalBits(bits[0], truth[0]) {
				t.Errorf("K=%d: wrong bits", k)
			}
		}
	}
	held := func(bd *BatchDecoder) (n int64) {
		for _, p := range bd.plans {
			if p.pst != nil {
				n += int64(p.pst.e.Mem.Size())
			}
		}
		return n
	}

	bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
	bd.MaxIters = 4
	decodeGrid(bd)
	var want int64
	for _, k := range grid {
		want += regionBytes(bd.plans[k].plan)
	}
	if got := held(bd); got != want || bd.stateBytes != want {
		t.Errorf("after K=%v the states hold %d bytes (counted %d), want their regions' %d", grid, got, bd.stateBytes, want)
	}
	if bd.Evictions != 0 {
		t.Errorf("%d evictions under a 32 MiB budget", bd.Evictions)
	}

	compiles := PlanCacheStats().Compiles
	tight := NewBatchDecoder(simd.W512, core.StrategyAPCM, int(want-64))
	tight.MaxIters = 4
	decodeGrid(tight)
	if tight.Evictions != 1 {
		t.Errorf("a budget 64 bytes short of K=%v evicted %d times, want 1", grid, tight.Evictions)
	}
	if last := regionBytes(tight.plans[6144].plan); held(tight) != last || tight.stateBytes != last {
		t.Errorf("after the eviction the states hold %d bytes (counted %d), want K=6144's %d", held(tight), tight.stateBytes, last)
	}
	if got := PlanCacheStats().Compiles; got != compiles {
		t.Errorf("the eviction cost %d compiles", got-compiles)
	}
}

// FuzzPackedDecode is the serving path's fuzz target: random width,
// block size, fill and fully random (not necessarily decodable) LLR
// payloads must decode bit- and iteration-identically every way
// decodeAllWays knows.
func FuzzPackedDecode(f *testing.F) {
	f.Add(int64(7), uint8(2), uint8(0), uint8(0))
	f.Add(int64(8), uint8(1), uint8(2), uint8(1))
	f.Add(int64(9), uint8(0), uint8(3), uint8(255))
	fuzzDecodeAllWays(f)
}

func fuzzDecodeAllWays(f *testing.F) {
	ks := []int{40, 104, 208, 512}
	f.Fuzz(func(t *testing.T, seed int64, wIdx, kIdx, fill uint8) {
		eachKernel(t, func(t *testing.T) {
			w := simd.Widths[int(wIdx)%len(simd.Widths)]
			k := ks[int(kIdx)%len(ks)]
			rng := rand.New(rand.NewSource(seed))
			n := 1 + int(fill)%BlocksPerRegister(w)
			words := make([]*LLRWord, n)
			for b := range words {
				words[b] = randomWord(rng, k)
			}
			decodeAllWays(t, w, k, words, 4, "fuzz")
		})
	})
}
