package turbo

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// emitAll widens TestEmittedDecodesLikeInterpreter from every 16th LTE
// block size at W512 and the grid sizes at every width to all 188 at all
// three widths for APCM, and extract to every 16th size and the grid at
// all three; and TestServingPlansRecordNothing to all 188 (CI step
// "Emitted-decode differential sweep").
var emitAll = flag.Bool("emit.all", false, "run the emitted-decode differential at every LTE block size")

// gridSizes are the block sizes the serving benchmark warms up with.
var gridSizes = []int{40, 512, 2048, 6144}

// maxGatherPool bounds a program's gather pool. The APCM plans need 51 to
// 56 distinct vectors at 185 of the 188 sizes at W512, and 60, 66 and 68
// at K=200, 392 and 216; 48 to 54 at the W128 and W256 grid.
const maxGatherPool = 72

// strategyPlan is a fresh plan of strategy s at width w and block size k,
// shared with nothing.
func strategyPlan(t *testing.T, s core.Strategy, w simd.Width, k int) *packedPlan {
	t.Helper()
	c, err := NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	return newPackedPlan(c, core.ByStrategy(s).Layout(w), w, BlocksPerRegister(w))
}

// TestServingPlansRecordNothing: the serving configuration, W512/APCM,
// compiles every block size it is asked for, whichever executor is
// selected — the grid sizes, or all 188 under -emit.all.
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
		if cs := PlanCacheStats(); cs.Compiles != uint64(len(ks)) || cs.Failures != 0 {
			t.Errorf("%d W512/APCM sizes: %+v, want as many compiles", len(ks), cs)
		}
	})
	resetPlanCache()
}

// decoded is what a decode leaves: the state region, every byte of it, and
// each block's decisions and iterations.
type decoded struct {
	region []byte
	bits   [][]byte
	iters  []int
}

// interpretPlan decodes words under plan pl of strategy s on the packed
// interpreter, over a region of its own.
func interpretPlan(t *testing.T, pl *packedPlan, s core.Strategy, words []*LLRWord, maxIters int, earlyExit bool) decoded {
	t.Helper()
	e := simd.NewEngine(pl.w, simd.NewMemory(int(pl.size)), nil)
	st := newPackedState(e, core.ByStrategy(s), pl)
	d := NewMultiSIMDDecoder(pl.code)
	d.MaxIters, d.EarlyExit, d.RearrangePerHalfIter = maxIters, earlyExit, false
	bits, _, err := d.runPacked(st, words)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot(e.Mem, pl, bits, st.itersB[:len(words)])
}

// replayPlan decodes words through prog, a program of plan pl, on the
// replay driver a BatchDecoder runs, over a region of its own, on the
// executor UseNativeKernel selects.
func replayPlan(t *testing.T, prog *program.Program, pl *packedPlan, s core.Strategy, words []*LLRWord, maxIters int, earlyExit bool) decoded {
	t.Helper()
	e := simd.NewEngine(pl.w, simd.NewMemory(int(pl.size)), nil)
	p := &decodePlan{
		k: pl.code.K, code: pl.code, plan: pl,
		shared: &sharedPlan{packedPlan: pl, prog: prog},
		pst:    newPackedState(e, core.ByStrategy(s), pl),
		exec:   prog.NewExec(e.Mem, 0),
	}
	bd := &BatchDecoder{MaxIters: maxIters, EarlyExit: earlyExit}
	bits, _, err := bd.runCompiled(p, words)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot(e.Mem, pl, bits, p.pst.itersB[:len(words)])
}

func snapshot(mem *simd.Memory, pl *packedPlan, bits [][]byte, iters []int) decoded {
	d := decoded{region: bytes.Clone(mem.Bytes(0, int(pl.size))), iters: slices.Clone(iters)}
	for _, b := range bits {
		d.bits = append(d.bits, slices.Clone(b))
	}
	return d
}

// fullRangeWords are nb words whose every LLR, tails included, is drawn
// from the whole int16 range: they drive every saturating add, the clamp
// and the hard-decision shift to their ends, where AWGN words (±255) never
// go.
func fullRangeWords(rng *rand.Rand, k, nb int) []*LLRWord {
	r16 := func() int16 { return int16(rng.Uint32()) }
	words := make([]*LLRWord, nb)
	for b := range words {
		w := NewLLRWord(k)
		for i := 0; i < k; i++ {
			w.Sys[i], w.P1[i], w.P2[i] = r16(), r16(), r16()
		}
		for i := 0; i < 3; i++ {
			w.TailSys[i], w.TailP1[i] = r16(), r16()
		}
		words[b] = w
	}
	return words
}

// executors lists the executors the host has: the Go one, and the native
// kernel where the host has it.
func executors() []bool {
	was := program.UseNativeKernel(true)
	defer program.UseNativeKernel(was)
	if program.Kernel() == "go" {
		return []bool{false}
	}
	return []bool{false, true}
}

// TestEmittedDecodesLikeInterpreter is the emitter's oracle: the program
// emitted from a plan decodes as the packed interpreter decodes that plan.
// At each (strategy, width, K) it decodes AWGN words and full-range words
// (fullRangeWords) on the interpreter and replays them through the
// emitted program on every executor the host has:
//
//   - with early exit off and a budget of 4, the whole state region must
//     end byte for byte the interpreter's: every array the prefix and the
//     iterations write, so a wrong address, table, shift or clamp shows
//     even where it does not move a decision;
//   - with early exit on, over the full batch (and, of AWGN words, over a
//     batch of one), the decisions and each block's iterations must be the
//     interpreter's.
//
// APCM is checked at every 16th LTE block size at W512 and the grid sizes
// at every width, extract at the grid sizes at every width; -emit.all
// takes APCM to all 188 at all three widths and extract to every 16th size
// and the grid. Every program's gather pool holds at most maxGatherPool
// vectors: the tables are interned by content, and a pool that holds one
// vector per table reference (84 at K=40, 12,332 at K=6144) is over.
// Under the race detector, which slows the interpreter ten-fold and looks
// for races rather than divergences, tier-1 stops at K=2048.
func TestEmittedDecodesLikeInterpreter(t *testing.T) {
	type config struct {
		s core.Strategy
		w simd.Width
		k int
	}
	var configs []config
	for _, w := range simd.Widths {
		for i, k := range BlockSizes {
			if raceEnabled && k > 2048 && !*emitAll {
				break // the interpreter under the race detector: see below
			}
			grid := slices.Contains(gridSizes, k)
			if *emitAll || grid || w == simd.W512 && i%16 == 0 {
				configs = append(configs, config{core.StrategyAPCM, w, k})
			}
			if grid || *emitAll && i%16 == 0 {
				configs = append(configs, config{core.StrategyExtract, w, k})
			}
		}
	}
	const maxIters = 4
	natives := executors()
	var pools []int
	for _, cf := range configs {
		name := fmt.Sprintf("%v/%v/K%d", cf.s, cf.w, cf.k)
		pl := strategyPlan(t, cf.s, cf.w, cf.k)
		prog, err := emitProgram(pl, cf.s)
		if err != nil {
			t.Fatalf("%s: emit: %v", name, err)
		}
		if n := prog.GatherPool(); n > maxGatherPool {
			t.Errorf("%s: the gather pool holds %d vectors, over %d", name, n, maxGatherPool)
		}
		pools = append(pools, prog.GatherPool())
		rng := rand.New(rand.NewSource(int64(cf.k)*7 + int64(cf.w)))
		awgn, _ := buildWords(t, pl.code, pl.nb, int64(700+cf.k), false)
		for _, in := range []struct {
			name  string
			words []*LLRWord
		}{{"awgn", awgn}, {"full-range", fullRangeWords(rng, cf.k, pl.nb)}} {
			words := in.words
			want := interpretPlan(t, pl, cf.s, words, maxIters, false)
			batches := [][]*LLRWord{words}
			if len(words) > 1 && in.name == "awgn" {
				batches = append(batches, words[:1])
			}
			var exits []decoded
			for _, batch := range batches {
				exits = append(exits, interpretPlan(t, pl, cf.s, batch, maxIters, true))
			}
			for _, native := range natives {
				was := program.UseNativeKernel(native)
				at := fmt.Sprintf("%s/%s/%s", name, in.name, program.Kernel())
				if got := replayPlan(t, prog, pl, cf.s, words, maxIters, false); !bytes.Equal(got.region, want.region) {
					i := 0
					for got.region[i] == want.region[i] {
						i++
					}
					t.Errorf("%s: the state region differs from the interpreter's at byte %d of %d (region offset of src %d, s %d, quad %d, alpha %d)",
						at, i, len(want.region), pl.src, pl.s, pl.quad, pl.alpha)
				}
				for j, batch := range batches {
					got := replayPlan(t, prog, pl, cf.s, batch, maxIters, true)
					for b := range batch {
						if !equalBits(got.bits[b], exits[j].bits[b]) || got.iters[b] != exits[j].iters[b] {
							t.Errorf("%s: batch of %d, block %d: decisions or iterations (%d) differ from the interpreter's (%d)",
								at, len(batch), b, got.iters[b], exits[j].iters[b])
						}
					}
				}
				program.UseNativeKernel(was)
			}
		}
	}
	t.Logf("%d configurations on %d executors; gather pools of %d to %d vectors", len(configs), len(natives), slices.Min(pools), slices.Max(pools))
}

// TestEveryServedKeyCompiles: every key a serving decoder can be asked for
// — each LTE block size at each width, under both arrangements the
// emitter writes — emits a program that stays inside its plan's state
// region. A key that did not would fail every batch of its size. The
// programs are emitted directly, so the process-wide cache keeps none of
// them. APCM runs at every size here; extract, which takes some three
// times as long, joins it under -emit.all.
func TestEveryServedKeyCompiles(t *testing.T) {
	strategies := []core.Strategy{core.StrategyAPCM}
	if *emitAll {
		strategies = append(strategies, core.StrategyExtract)
	}
	for _, s := range strategies {
		for _, w := range simd.Widths {
			t.Run(fmt.Sprintf("%v/%v", s, w), func(t *testing.T) {
				t.Parallel()
				for _, k := range BlockSizes {
					pl := strategyPlan(t, s, w, k)
					prog, err := emitProgram(pl, s)
					if err == nil {
						err = pl.checkExtent(prog)
					}
					if err != nil {
						t.Errorf("K=%d: %v", k, err)
					}
				}
			})
		}
	}
}
