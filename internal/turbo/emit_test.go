package turbo

import (
	"flag"
	"fmt"
	"slices"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// emitAll widens TestEmittedMatchesRecorded from every 16th LTE block size
// at W512 and the grid sizes at W128 and W256 to all 188 at all three, and
// TestServingPlansRecordNothing to all 188 (CI step "Emitter equivalence
// sweep"; a couple of minutes, nearly all of it the recordings).
var emitAll = flag.Bool("emit.all", false, "compare emitted and recorded programs at every LTE block size")

// gridSizes are the block sizes the serving benchmark warms up with.
var gridSizes = []int{40, 512, 2048, 6144}

// recordedPlan is what the recorder compiles of plan pl from the all-zero
// batch, as the plan cache compiles the strategies the emitter does not
// cover.
func recordedPlan(t *testing.T, pl *packedPlan) *program.Program {
	t.Helper()
	words := make([]*LLRWord, pl.nb)
	for b := range words {
		words[b] = NewLLRWord(pl.code.K)
	}
	prog, _, err := recordProgram(pl, core.ByStrategy(core.StrategyAPCM), words, recordIters, false)
	if err != nil {
		t.Fatalf("recording: %v", err)
	}
	return prog
}

// maxGatherPool bounds a program's gather pool. The APCM plans need 51 to
// 56 distinct vectors at 185 of the 188 sizes at W512, and 60, 66 and 68
// at K=200, 392 and 216; 48 to 54 at the W128 and W256 grid.
const maxGatherPool = 72

// apcmPlan is a fresh W/APCM plan of block size k, shared with nothing.
func apcmPlan(t *testing.T, w simd.Width, k int) *packedPlan {
	t.Helper()
	c, err := NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	return newPackedPlan(c, core.ByStrategy(core.StrategyAPCM).Layout(w), w, BlocksPerRegister(w))
}

// TestEmittedMatchesRecorded: the program the emitter writes from an APCM
// plan is, to the checksum, the one the recorder compiles from an
// interpreted decode of that plan — every word of the descriptor streams,
// every table they address, the register count and the extent: both roll
// to the same loops. It covers W512 at every 16th LTE block size and the
// grid sizes, and W128 and W256 at the grid sizes; -emit.all takes all
// three widths to all 188. Every program's gather pool holds at most
// maxGatherPool vectors: the tables are interned by content, and a pool
// that holds one vector per table reference (84 at K=40, 12,332 at
// K=6144) is over.
func TestEmittedMatchesRecorded(t *testing.T) {
	type config struct {
		w simd.Width
		k int
	}
	var configs []config
	for _, w := range simd.Widths {
		for i, k := range BlockSizes {
			if *emitAll || w == simd.W512 && i%16 == 0 || slices.Contains(gridSizes, k) {
				configs = append(configs, config{w, k})
			}
		}
	}
	var pools []int
	for _, cf := range configs {
		name := fmt.Sprintf("%v/K%d", cf.w, cf.k)
		pl := apcmPlan(t, cf.w, cf.k)
		rec := recordedPlan(t, pl)
		emitted, err := emitProgram(pl)
		if err != nil {
			t.Fatalf("%s: emit: %v", name, err)
		}
		if emitted.Checksum() != rec.Checksum() {
			t.Errorf("%s: the emitted program (%v raw, %v fused ops) is not the recorded one (%v raw, %v fused)",
				name, emitted.RawOps, emitted.FusedOps, rec.RawOps, rec.FusedOps)
		}
		if n := emitted.GatherPool(); n > maxGatherPool {
			t.Errorf("%s: the gather pool holds %d vectors, over %d", name, n, maxGatherPool)
		}
		pools = append(pools, emitted.GatherPool())
	}
	t.Logf("gather pools of %d to %d vectors", slices.Min(pools), slices.Max(pools))
	t.Logf("%d configurations", len(configs))
}

// TestServingPlansRecordNothing: the serving configuration, W512/APCM,
// compiles every block size it is asked for without one recorded decode,
// whichever executor is selected — the grid sizes, or all 188 under
// -emit.all.
func TestServingPlansRecordNothing(t *testing.T) {
	ks := gridSizes
	if *emitAll {
		ks = BlockSizes
	}
	eachKernel(t, func(t *testing.T) {
		resetPlanCache()
		if err := Precompile(simd.W512, core.StrategyAPCM, ks...); err != nil {
			t.Fatal(err)
		}
		if cs := PlanCacheStats(); cs.Recordings != 0 || cs.Compiles != uint64(len(ks)) || cs.Failures != 0 {
			t.Errorf("%d W512/APCM sizes: %+v, want as many compiles and no recording", len(ks), cs)
		}
	})
	resetPlanCache()
}

// replayProgram decodes words through prog, a program of plan pl, on a
// region of its own, with early exit and a budget of maxIters: the replay
// driver a BatchDecoder runs, over a program it did not take from the
// cache. It returns the decisions and each block's iterations.
func replayProgram(t *testing.T, prog *program.Program, pl *packedPlan, words []*LLRWord, maxIters int) ([][]byte, []int) {
	t.Helper()
	e := simd.NewEngine(pl.w, simd.NewMemory(int(pl.size)), nil)
	p := &decodePlan{
		k: pl.code.K, code: pl.code, plan: pl,
		shared: &sharedPlan{packedPlan: pl, prog: prog},
		pst:    newPackedState(e, core.ByStrategy(core.StrategyAPCM), pl),
		exec:   prog.NewExec(e.Mem, 0),
	}
	bd := &BatchDecoder{MaxIters: maxIters, EarlyExit: true}
	bits, _, err := bd.runCompiled(p, words)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(bits))
	for b := range bits {
		out[b] = slices.Clone(bits[b])
	}
	return out, slices.Clone(p.pst.itersB[:len(words)])
}

// TestRecordedStrategiesDecodeLikeScalar: the five strategies the emitter
// does not cover compile from a recording, which goes through the same
// roller, and at the grid sizes their programs decode noisy words to the
// scalar decoder's bits and per-block iterations, on both kernels.
func TestRecordedStrategiesDecodeLikeScalar(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		const maxIters = 3
		for s := core.StrategyScalar; s <= core.StrategyShuffle; s++ {
			if emits(s) {
				continue
			}
			for _, k := range gridSizes {
				name := fmt.Sprintf("%v/K%d", s, k)
				c, err := NewCode(k)
				if err != nil {
					t.Fatal(err)
				}
				words, _ := buildWords(t, c, BlocksPerRegister(simd.W512), int64(1100+k), false)
				bd := NewBatchDecoder(simd.W512, s, 32<<20)
				bd.MaxIters = maxIters
				bits, _, err := bd.Decode(k, words)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if st := bd.ProgramStats(); st.Hits != 1 {
					t.Fatalf("%s: the decode did not replay a compiled program: %+v", name, st)
				}
				for b, w := range words {
					sc := NewDecoder(c)
					sc.MaxIters = maxIters
					sBits, sIters, err := sc.Decode(w)
					if err != nil {
						t.Fatal(err)
					}
					if !equalBits(bits[b], sBits) || bd.BlockIters()[b] != sIters {
						t.Errorf("%s block %d: compiled and scalar decodes differ (iterations %d, %d)", name, b, bd.BlockIters()[b], sIters)
					}
				}
			}
		}
	})
}

// TestEmittedDecodesLikeRecorded is the differential: noisy words, full
// and partial batches, decoded through the emitted program, the recorded
// one and the scalar decoder, on both kernels — decisions and each block's
// iterations must agree.
func TestEmittedDecodesLikeRecorded(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		const maxIters = 6
		for _, cf := range []struct {
			w simd.Width
			k int
		}{{simd.W512, 40}, {simd.W512, 512}, {simd.W512, 2048}, {simd.W256, 104}, {simd.W128, 512}} {
			pl := apcmPlan(t, cf.w, cf.k)
			emitted, err := emitProgram(pl)
			if err != nil {
				t.Fatal(err)
			}
			rec := recordedPlan(t, pl)
			for fill := pl.nb; fill >= 1; fill -= 3 {
				name := fmt.Sprintf("%v/K%d/fill%d", cf.w, cf.k, fill)
				words, _ := buildWords(t, pl.code, fill, int64(700+cf.k+fill), false)
				eBits, eIters := replayProgram(t, emitted, pl, words, maxIters)
				rBits, rIters := replayProgram(t, rec, pl, words, maxIters)
				for b, w := range words {
					sc := NewDecoder(pl.code)
					sc.MaxIters = maxIters
					sBits, sIters, err := sc.Decode(w)
					if err != nil {
						t.Fatal(err)
					}
					if !equalBits(eBits[b], rBits[b]) || !equalBits(eBits[b], sBits) {
						t.Errorf("%s block %d: emitted, recorded and scalar decisions differ", name, b)
					}
					if eIters[b] != rIters[b] || eIters[b] != sIters {
						t.Errorf("%s block %d: iterations emitted %d, recorded %d, scalar %d", name, b, eIters[b], rIters[b], sIters)
					}
				}
			}
		}
	})
}
