package turbo

import (
	"math/rand"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/trace"
)

// A single block on the SIMD decoder is a one-word batch of
// MultiSIMDDecoder: the whole register at W128, where a register holds
// one block, and a partial batch at W256 and W512, whose other lane
// groups carry discarded copies. The TestSIMD* tests pin that case.

// simdDecodeOnce runs arrangement + SIMD decode for one random block on a
// traced engine and returns the decoded bits, the true bits, the engine
// and the decoder (for its marks).
func simdDecodeOnce(t *testing.T, k int, w simd.Width, strat core.Strategy, snrNoiseless bool, seed int64, iters int) (got, want []byte, e *simd.Engine, d *MultiSIMDDecoder) {
	t.Helper()
	c, err := NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	bits := randomBits(rng, k)
	cw, err := c.Encode(bits)
	if err != nil {
		t.Fatal(err)
	}
	word := NewLLRWord(k)
	if snrNoiseless {
		word.FromHard(cw, 32)
	} else {
		addAWGN(rng, word, cw, 3.0)
		clampWord(word, LLRLimit-1)
	}

	e = simd.NewEngine(w, nil, trace.NewRecorder(1<<16))
	d = NewMultiSIMDDecoder(c)
	d.MaxIters = iters
	out, _, err := d.Decode(e, core.ByStrategy(strat), []*LLRWord{word})
	if err != nil {
		t.Fatal(err)
	}
	return out[0], bits, e, d
}

func clampWord(w *LLRWord, lim int16) {
	cl := func(xs []int16) {
		for i := range xs {
			if xs[i] > lim {
				xs[i] = lim
			}
			if xs[i] < -lim {
				xs[i] = -lim
			}
		}
	}
	cl(w.Sys)
	cl(w.P1)
	cl(w.P2)
	for i := 0; i < 3; i++ {
		if w.TailSys[i] > lim {
			w.TailSys[i] = lim
		}
		if w.TailSys[i] < -lim {
			w.TailSys[i] = -lim
		}
		if w.TailP1[i] > lim {
			w.TailP1[i] = lim
		}
		if w.TailP1[i] < -lim {
			w.TailP1[i] = -lim
		}
	}
}

func TestSIMDDecodeNoiseless(t *testing.T) {
	for _, w := range simd.Widths {
		for _, strat := range []core.Strategy{core.StrategyExtract, core.StrategyAPCM} {
			got, want, _, _ := simdDecodeOnce(t, 40, w, strat, true, 11, 4)
			if !equalBits(got, want) {
				t.Errorf("%v/%v: noiseless SIMD decode failed", w, strat)
			}
		}
	}
}

// TestSIMDMatchesScalar is the central functional equivalence check: the
// SIMD decoder (through either arrangement mechanism) and the scalar
// reference must produce identical hard decisions on noisy input, for a
// single block at every width.
func TestSIMDMatchesScalar(t *testing.T) {
	for _, w := range simd.Widths {
		for _, strat := range []core.Strategy{core.StrategyExtract, core.StrategyAPCM, core.StrategyAPCMShuffle} {
			for seed := int64(0); seed < 3; seed++ {
				k := 104
				c, err := NewCode(k)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1000 + seed))
				bits := randomBits(rng, k)
				cw, _ := c.Encode(bits)
				word := NewLLRWord(k)
				addAWGN(rng, word, cw, 1.0)
				clampWord(word, LLRLimit-1)

				sc := NewDecoder(c)
				sc.MaxIters, sc.EarlyExit = 4, false
				scalarBits, _, err := sc.Decode(word)
				if err != nil {
					t.Fatal(err)
				}

				e := simd.NewEngine(w, nil, nil) // functional only
				sd := NewMultiSIMDDecoder(c)
				sd.MaxIters, sd.EarlyExit = 4, false
				out, _, err := sd.Decode(e, core.ByStrategy(strat), []*LLRWord{word})
				if err != nil {
					t.Fatal(err)
				}
				simdBits := out[0]
				if !equalBits(simdBits, scalarBits) {
					diff := 0
					for i := range simdBits {
						if simdBits[i] != scalarBits[i] {
							diff++
						}
					}
					t.Errorf("%v/%v seed %d: SIMD and scalar decisions differ in %d/%d bits",
						w, strat, seed, diff, k)
				}
			}
		}
	}
}

func TestSIMDDecodeAWGNRecovers(t *testing.T) {
	got, want, _, _ := simdDecodeOnce(t, 104, simd.W128, core.StrategyAPCM, false, 5, 6)
	if !equalBits(got, want) {
		t.Error("SIMD decode at 3 dB failed to recover the block")
	}
}

func TestSIMDPhaseMarks(t *testing.T) {
	_, _, e, d := simdDecodeOnce(t, 40, simd.W128, core.StrategyAPCM, true, 3, 2)
	names := map[string]bool{}
	last := 0
	for _, m := range d.Marks {
		if m.Lo > m.Hi {
			t.Errorf("mark %q has Lo %d > Hi %d", m.Name, m.Lo, m.Hi)
		}
		if m.Lo < last {
			t.Errorf("mark %q overlaps previous (Lo %d < %d)", m.Name, m.Lo, last)
		}
		last = m.Hi
		names[m.Name] = true
	}
	for _, want := range []string{"arrangement", "gamma", "alpha", "beta+ext", "ext", "interleave", "init"} {
		if !names[want] {
			t.Errorf("missing phase mark %q", want)
		}
	}
	if last > e.TraceLen() {
		t.Errorf("marks extend past trace end (%d > %d)", last, e.TraceLen())
	}
}

// TestSIMDGammaUsesCalcInstructions checks the instruction-class claim of
// the paper's Figure 7/8: the gamma phase is built from SIMD calculation
// instructions (padds/psubs) and full-width memory traffic.
func TestSIMDGammaUsesCalcInstructions(t *testing.T) {
	_, _, e, d := simdDecodeOnce(t, 512, simd.W256, core.StrategyAPCM, true, 9, 1)
	insts := e.Recorder().Insts()
	var calc, smallStores int
	for _, m := range d.Marks {
		if m.Name != "gamma" {
			continue
		}
		for _, in := range insts[m.Lo:m.Hi] {
			switch {
			case in.Class == trace.VecALU && (in.Mnemonic == "padds" || in.Mnemonic == "psubs"):
				calc++
			case in.Class == trace.Store && in.Bytes == 2:
				smallStores++
			}
		}
	}
	if calc == 0 {
		t.Error("gamma phase emitted no padds/psubs")
	}
	if smallStores > 0 {
		t.Errorf("gamma phase emitted %d 2-byte stores; should be full-width", smallStores)
	}
}

// TestSIMDLayoutWidthMismatch: the arranged layout is always taken from
// the engine's own width, so the one mismatch left to refuse is a
// register too narrow to hold a block's eight states.
func TestSIMDLayoutWidthMismatch(t *testing.T) {
	c, _ := NewCode(40)
	d := NewMultiSIMDDecoder(c)
	e := simd.NewEngine(simd.Width(8), nil, nil)
	if _, _, err := d.Decode(e, core.ByStrategy(core.StrategyAPCM), []*LLRWord{NewLLRWord(40)}); err == nil {
		t.Error("expected a too-narrow-width error")
	}
}
