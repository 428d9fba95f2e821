package program_test

import (
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
	"vransim/internal/turbo"
)

// TestEveryFusedKindOccurs compiles the serving decoder's packed plan over
// every arrangement strategy and width at small and mid block sizes, and
// the largest block size under the serving strategy, and fails if a fused
// kind the compiler defines occurs in the streams of none of them: a
// matcher, record kind and visitEffects case that no real plan reaches is
// code nothing but a synthetic kernel exercises. The APCM plans are emitted, the others
// recorded; the emitter forms exactly the ops the matchers would
// (TestEmittedMatchesRecorded in internal/turbo). (K=6144 under all six
// strategies holds the same kinds and costs 6 s of a shared tier-1 host.)
func TestEveryFusedKindOccurs(t *testing.T) {
	total := make(map[string]int)
	record := func(s core.Strategy, w simd.Width, k int) {
		p := packedPlan(t, s, w, k)
		for _, seg := range []int{program.SegFirst, program.SegSteady} {
			for name, n := range p.FusedKindCounts(seg) {
				total[name] += n
			}
		}
	}
	for _, w := range simd.Widths {
		for s := core.StrategyScalar; s <= core.StrategyShuffle; s++ {
			for _, k := range []int{40, 104, 512} {
				record(s, w, k)
			}
		}
		record(core.StrategyAPCM, w, 6144)
	}
	for _, name := range program.FusedKinds() {
		if name == "" {
			t.Error("a fused kind has no name in export_test.go")
		} else if total[name] == 0 {
			t.Errorf("fused kind %q occurs in no packed plan", name)
		}
	}
}

// TestFirstSegmentIsThePrefix: the first segment of every packed plan is
// the prefix alone — the arrangement, the systematic interleave gather and
// the la1 clear — and the steady segment is the whole iteration. SegFirst
// holds no trellis step, gamma scatter or extrinsic group, whichever
// arrangement made it. The prefix's gather is a quad gather like the
// iteration's two, so under the serving strategy, whose arrangement forms
// none, SegFirst holds exactly half the steady segment's quad gathers.
// The plans are compiled for the Go kernel, which keeps the fused ops.
func TestFirstSegmentIsThePrefix(t *testing.T) {
	defer program.UseNativeKernel(program.UseNativeKernel(false))
	for _, w := range simd.Widths {
		for s := core.StrategyScalar; s <= core.StrategyShuffle; s++ {
			for _, k := range []int{40, 512} {
				p := packedPlan(t, s, w, k)
				first, steady := p.FusedKindCounts(program.SegFirst), p.FusedKindCounts(program.SegSteady)
				for _, name := range []string{"alpha step", "beta step", "quad scatter", "ext vec"} {
					if first[name] != 0 || steady[name] == 0 {
						t.Errorf("%v/%v/K=%d: %d %s ops in SegFirst, %d in SegSteady; want none and some",
							s, w, k, first[name], name, steady[name])
					}
				}
				if g := first["quad gather"]; s == core.StrategyAPCM && (g == 0 || 2*g != steady["quad gather"]) {
					t.Errorf("%v/%v/K=%d: %d quad gathers in SegFirst, %d in SegSteady; want one pass and two",
						s, w, k, g, steady["quad gather"])
				}
			}
		}
	}
}

// packedPlan returns the replay program of the serving decoder's packed
// plan for one (strategy, width, K). The process-wide plan cache compiles each once per test
// binary, which matters for the recorded strategies: a recording costs
// about 60 µs per unit of K.
func packedPlan(t *testing.T, s core.Strategy, w simd.Width, k int) *program.Program {
	t.Helper()
	bd := turbo.NewBatchDecoder(w, s, 32<<20)
	bd.MaxIters = 1
	if _, _, err := bd.Decode(k, []*turbo.LLRWord{turbo.NewLLRWord(k)}); err != nil {
		t.Fatalf("%v/%v/K=%d: %v", s, w, k, err)
	}
	p := bd.PlanProgram(k)
	if p == nil {
		t.Fatalf("%v/%v/K=%d: the plan did not compile", s, w, k)
	}
	return p
}

// TestPackedPlansRunNative: every packed plan the serving path can compile
// does compile, for the serving strategy at every width up to the largest
// block and for the other five arrangements (whose arrangement segments
// differ) up to K=512: every op lowers to a record, on every host. An op
// kind that loses its record kind, or a fused op whose intermediates turn
// out live in a real plan, shows here and not as a block served
// interpreted.
func TestPackedPlansRunNative(t *testing.T) {
	for _, w := range simd.Widths {
		for _, k := range []int{40, 512, 2048, 6144} {
			packedPlan(t, core.StrategyAPCM, w, k)
		}
		for s := core.StrategyScalar; s <= core.StrategyShuffle; s++ {
			if s != core.StrategyAPCM {
				packedPlan(t, s, w, 40)
				packedPlan(t, s, w, 512)
			}
		}
	}
}
