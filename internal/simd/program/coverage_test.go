package program_test

import (
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
	"vransim/internal/turbo"
)

// emitted are the strategies whose plans compile: the paper's two
// arrangements.
var emitted = []core.Strategy{core.StrategyAPCM, core.StrategyExtract}

// TestEveryFusedKindOccurs compiles the serving decoder's packed plan under
// both arrangements the emitter writes, at every width, at small and mid
// block sizes and the largest, and fails if a fused op kind the compiler
// defines, or a record kind kern.go defines, occurs in the streams of none
// of them: a method, record kind, executor case and visitEffects case that
// no real plan reaches is code nothing but a synthetic kernel exercises.
func TestEveryFusedKindOccurs(t *testing.T) {
	fused, records := make(map[string]int), make(map[string]int)
	for _, w := range simd.Widths {
		for _, s := range emitted {
			for _, k := range []int{40, 104, 512, 6144} {
				p := packedPlan(t, s, w, k)
				for _, seg := range []int{program.SegFirst, program.SegSteady} {
					for name, n := range p.FusedKindCounts(seg) {
						fused[name] += n
					}
				}
				for name, n := range p.RecordKindCounts() {
					records[name] += n
				}
			}
		}
	}
	for _, name := range program.FusedKinds() {
		if name == "" {
			t.Error("a fused kind has no name in export_test.go")
		} else if fused[name] == 0 {
			t.Errorf("fused kind %q occurs in no packed plan", name)
		}
	}
	names := program.RecordKinds()
	for _, name := range names {
		if name == "" {
			t.Error("a record kind has no name in export_test.go")
		} else if records[name] == 0 {
			t.Errorf("record kind %q occurs in no packed plan", name)
		}
	}
	if len(records) > len(names) {
		t.Errorf("the streams hold record kinds %v, kern.go names %v", records, names)
	}
}

// TestFirstSegmentIsThePrefix: the first segment of every packed plan is
// the prefix alone — the arrangement, the systematic interleave gather and
// the la1 clear — and the steady segment is the whole iteration. SegFirst
// holds no trellis step, gamma scatter or extrinsic group, whichever
// arrangement made it. The prefix's gather is a quad gather like the
// iteration's two, and neither arrangement forms one, so SegFirst holds
// exactly half the steady segment's quad gathers.
func TestFirstSegmentIsThePrefix(t *testing.T) {
	for _, w := range simd.Widths {
		for _, s := range emitted {
			for _, k := range []int{40, 512} {
				p := packedPlan(t, s, w, k)
				first, steady := p.FusedKindCounts(program.SegFirst), p.FusedKindCounts(program.SegSteady)
				for _, name := range []string{"alpha step", "beta step", "quad scatter", "ext vec"} {
					if first[name] != 0 || steady[name] == 0 {
						t.Errorf("%v/%v/K=%d: %d %s ops in SegFirst, %d in SegSteady; want none and some",
							s, w, k, first[name], name, steady[name])
					}
				}
				if g := first["quad gather"]; g == 0 || 2*g != steady["quad gather"] {
					t.Errorf("%v/%v/K=%d: %d quad gathers in SegFirst, %d in SegSteady; want one pass and two",
						s, w, k, g, steady["quad gather"])
				}
			}
		}
	}
}

// packedPlan returns the replay program of the serving decoder's packed
// plan for one (strategy, width, K). The process-wide plan cache compiles
// each once per test binary.
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
// does compile, under both arrangements the emitter writes, at every width
// up to the largest block: every op lowers to a record, on every host. An
// op kind that loses its record kind, or a fused op whose intermediates
// turn out live in a real plan, shows here and not as a batch the serving
// decoder refuses. A strategy the emitter does not cover compiles nothing,
// and a serving decoder of it fails every batch.
func TestPackedPlansRunNative(t *testing.T) {
	for _, w := range simd.Widths {
		for _, s := range emitted {
			for _, k := range []int{40, 512, 2048, 6144} {
				packedPlan(t, s, w, k)
			}
		}
	}
	for s := core.StrategyScalar; s <= core.StrategyShuffle; s++ {
		if turbo.Emits(s) != (s == core.StrategyAPCM || s == core.StrategyExtract) {
			t.Errorf("%v: Emits reports %v", s, turbo.Emits(s))
		}
	}
}
