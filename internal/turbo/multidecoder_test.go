package turbo

import (
	"math/rand"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/trace"
)

func TestBlocksPerRegister(t *testing.T) {
	if BlocksPerRegister(simd.W128) != 1 || BlocksPerRegister(simd.W256) != 2 || BlocksPerRegister(simd.W512) != 4 {
		t.Error("blocks-per-register wrong")
	}
}

// buildWords encodes nb random blocks and returns their noisy LLR words
// plus the true payloads.
func buildWords(t testing.TB, c *Code, nb int, seed int64, noiseless bool) ([]*LLRWord, [][]byte) {
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
		w := NewLLRWord(c.K)
		if noiseless {
			w.FromHard(cw, 32)
		} else {
			addAWGN(rng, w, cw, 2.0)
			clampWord(w, LLRLimit-1)
		}
		words[b] = w
		truth[b] = bits
	}
	return words, truth
}

func TestMultiDecodeNoiseless(t *testing.T) {
	for _, w := range simd.Widths {
		nb := BlocksPerRegister(w)
		c, err := NewCode(104)
		if err != nil {
			t.Fatal(err)
		}
		words, truth := buildWords(t, c, nb, 7, true)
		e := simd.NewEngine(w, nil, nil)
		d := NewMultiSIMDDecoder(c)
		d.MaxIters = 4
		got, _, err := d.Decode(e, core.ByStrategy(core.StrategyAPCM), words)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < nb; b++ {
			if !equalBits(got[b], truth[b]) {
				t.Errorf("%v block %d: noiseless multi-decode failed", w, b)
			}
		}
	}
}

// TestMultiMatchesSingle is the lane-independence property: decoding nb
// blocks in parallel lanes must produce exactly the bits each block gets
// decoded alone — as a one-word batch of the same decoder and by the
// scalar reference.
func TestMultiMatchesSingle(t *testing.T) {
	for _, w := range []simd.Width{simd.W256, simd.W512} {
		nb := BlocksPerRegister(w)
		c, err := NewCode(64)
		if err != nil {
			t.Fatal(err)
		}
		words, _ := buildWords(t, c, nb, 99, false)
		ar := core.ByStrategy(core.StrategyAPCM)

		md := NewMultiSIMDDecoder(c)
		md.MaxIters, md.EarlyExit = 3, false
		multi, _, err := md.Decode(simd.NewEngine(w, nil, nil), ar, words)
		if err != nil {
			t.Fatal(err)
		}

		sc := NewDecoder(c)
		sc.MaxIters, sc.EarlyExit = 3, false
		for b := 0; b < nb; b++ {
			single, _, err := md.Decode(simd.NewEngine(w, nil, nil), ar, words[b:b+1])
			if err != nil {
				t.Fatal(err)
			}
			if !equalBits(multi[b], single[0]) {
				t.Errorf("%v block %d: full batch and one-word batch disagree", w, b)
			}
			scalar, _, err := sc.Decode(words[b])
			if err != nil {
				t.Fatal(err)
			}
			if !equalBits(multi[b], scalar) {
				t.Errorf("%v block %d: full batch and scalar decoder disagree", w, b)
			}
		}
	}
}

func TestMultiDecodeValidation(t *testing.T) {
	c, _ := NewCode(40)
	d := NewMultiSIMDDecoder(c)
	e := simd.NewEngine(simd.W256, nil, nil)
	three := []*LLRWord{NewLLRWord(40), NewLLRWord(40), NewLLRWord(40)}
	if _, _, err := d.Decode(e, core.ByStrategy(core.StrategyAPCM), three); err == nil {
		t.Error("expected too-many-blocks error")
	}
	if _, _, err := d.Decode(e, core.ByStrategy(core.StrategyAPCM), nil); err == nil {
		t.Error("expected empty-batch error")
	}
}

// TestMultiPartialBatch: a half-filled AVX512 batch still decodes its
// real blocks correctly.
func TestMultiPartialBatch(t *testing.T) {
	c, err := NewCode(64)
	if err != nil {
		t.Fatal(err)
	}
	words, truth := buildWords(t, c, 2, 3, true)
	e := simd.NewEngine(simd.W512, nil, nil)
	d := NewMultiSIMDDecoder(c)
	d.MaxIters = 4
	got, _, err := d.Decode(e, core.ByStrategy(core.StrategyAPCM), words)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("returned %d blocks, want 2", len(got))
	}
	for b := range got {
		if !equalBits(got[b], truth[b]) {
			t.Errorf("partial batch block %d wrong", b)
		}
	}
}

// TestMultiAmortizesRecursion: the whole point — per-block µop count of
// the recursion phases must shrink as width grows.
func TestMultiAmortizesRecursion(t *testing.T) {
	perBlockRecursion := func(w simd.Width) float64 {
		nb := BlocksPerRegister(w)
		c, err := NewCode(104)
		if err != nil {
			t.Fatal(err)
		}
		words, _ := buildWords(t, c, nb, 5, true)
		e := simd.NewEngine(w, nil, trace.NewRecorder(1<<16))
		d := NewMultiSIMDDecoder(c)
		d.MaxIters, d.EarlyExit = 1, false
		if _, _, err := d.Decode(e, core.ByStrategy(core.StrategyAPCM), words); err != nil {
			t.Fatal(err)
		}
		var rec int
		for _, m := range d.Marks {
			if m.Name == "alpha" || m.Name == "beta+ext" {
				rec += m.Hi - m.Lo
			}
		}
		return float64(rec) / float64(nb)
	}
	u128 := perBlockRecursion(simd.W128)
	u256 := perBlockRecursion(simd.W256)
	u512 := perBlockRecursion(simd.W512)
	if !(u512 < u256 && u256 < u128) {
		t.Errorf("per-block recursion µops not decreasing with width: %.0f, %.0f, %.0f", u128, u256, u512)
	}
}

// TestRearrangePolicyKeepsBits: re-arranging before each half-iteration
// rewrites arrays the decode only reads, so a traced Decode returns the
// same bits and iterations with RearrangePerHalfIter on and off. On adds
// one arrangement mark for every half but the first of iteration 0, which
// the decode's own arrangement feeds.
func TestRearrangePolicyKeepsBits(t *testing.T) {
	ar := core.ByStrategy(core.StrategyAPCM)
	for _, w := range simd.Widths {
		c, err := NewCode(104)
		if err != nil {
			t.Fatal(err)
		}
		words, _ := buildWords(t, c, BlocksPerRegister(w), 21, false)
		var bits [2][][]byte
		var iters, arranges [2]int
		for i, per := range []bool{true, false} {
			d := NewMultiSIMDDecoder(c)
			d.MaxIters = 4
			d.RearrangePerHalfIter = per
			e := simd.NewEngine(w, nil, trace.NewRecorder(1<<16))
			if bits[i], iters[i], err = d.Decode(e, ar, words); err != nil {
				t.Fatal(err)
			}
			for _, m := range d.Marks {
				if m.Name == "arrangement" {
					arranges[i]++
				}
			}
		}
		if iters[0] != iters[1] {
			t.Errorf("%v: %d iterations re-arranging, %d arranging once", w, iters[0], iters[1])
		}
		if iters[0] < 2 {
			t.Errorf("%v: decoded in %d iteration(s); the words must take at least two", w, iters[0])
		}
		for b := range words {
			if !equalBits(bits[0][b], bits[1][b]) {
				t.Errorf("%v block %d: re-arranging changed the decisions", w, b)
			}
		}
		if got, want := arranges[0]-arranges[1], 2*iters[0]-1; got != want || arranges[1] != 1 {
			t.Errorf("%v: %d arrangement marks re-arranging, %d once; want %d more", w, arranges[0], arranges[1], want)
		}
	}
}
