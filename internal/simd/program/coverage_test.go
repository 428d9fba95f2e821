package program_test

import (
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
	"vransim/internal/turbo"
)

// TestEveryFusedKindOccurs records the serving decoder's packed plan over
// every arrangement strategy and width at small and mid block sizes, and
// the largest block size under the serving strategy, and fails if a fused
// kind the compiler defines occurs in none of them: a matcher, Run body
// and visitEffects case that no recorded stream reaches is code nothing
// but a synthetic kernel exercises. (K=6144 under all six strategies
// holds the same kinds and costs 6 s of a shared tier-1 host.)
func TestEveryFusedKindOccurs(t *testing.T) {
	total := make(map[string]int)
	record := func(s core.Strategy, w simd.Width, k int) {
		bd := turbo.NewBatchDecoder(w, s, 32<<20)
		bd.MaxIters = 2
		if _, _, err := bd.Decode(k, []*turbo.LLRWord{turbo.NewLLRWord(k)}); err != nil {
			t.Fatalf("%v/%v/K=%d: %v", s, w, k, err)
		}
		p := bd.PlanProgram(k)
		if p == nil {
			t.Fatalf("%v/%v/K=%d: the recording decode did not compile", s, w, k)
		}
		for name, n := range p.FusedKindCounts() {
			total[name] += n
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
