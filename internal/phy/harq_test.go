package phy

import (
	"math/rand"
	"testing"

	"vransim/internal/turbo"
)

// chaseTrial encodes one block, rate-matches it once at rv 0 into e
// bits, transmits that word `attempts` times over BPSK+AWGN at snrDB,
// chase-combines the de-matched receptions in a ProcessSet (the serving
// path's combiner) and reports whether the decoder recovers the payload.
func chaseTrial(t *testing.T, k, e int, snrDB float64, attempts int, seed int64) bool {
	t.Helper()
	code, err := turbo.NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	bits := randBits(rng, k)
	cw, err := code.Encode(bits)
	if err != nil {
		t.Fatal(err)
	}
	d := k + 4
	rm := NewRateMatcher(d)
	s0 := make([]byte, d)
	s1 := make([]byte, d)
	s2 := make([]byte, d)
	copy(s0, cw.Sys)
	copy(s1, cw.P1)
	copy(s2, cw.P2)
	for j := 0; j < 3; j++ {
		s0[k+j] = cw.TailSys[j]
		s1[k+j] = cw.TailP1[j]
	}
	ps := NewProcessSet(8, 1)
	ch := NewAWGNChannel(snrDB, seed+1)
	tx, err := rm.Match(s0, s1, s2, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	var combined *turbo.LLRWord
	for a := 0; a < attempts; a++ {
		samples := make([]IQ, len(tx))
		for i, b := range tx {
			x := 1.0
			if b == 1 {
				x = -1
			}
			samples[i] = IQ{I: x}
		}
		ch.Apply(samples)
		llr := make([]int16, len(tx))
		scale := 12 / ch.NoiseVar()
		for i := range llr {
			v := samples[i].I * scale
			if v > 200 {
				v = 200
			}
			if v < -200 {
				v = -200
			}
			llr[i] = int16(v)
		}
		d0, d1, d2 := rm.Dematch(llr, 0)
		w := turbo.NewLLRWord(k)
		copy(w.Sys, d0[:k])
		copy(w.P1, d1[:k])
		copy(w.P2, d2[:k])
		for j := 0; j < 3; j++ {
			w.TailSys[j] = d0[k+j]
			w.TailP1[j] = d1[k+j]
		}
		if combined, _, err = ps.Combine(0, 0, 0, w); err != nil {
			t.Fatal(err)
		}
	}
	dec := turbo.NewDecoder(code)
	dec.MaxIters = 8
	got, _, err := dec.Decode(combined)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			return false
		}
	}
	return true
}

func TestHARQChaseCombining(t *testing.T) {
	// Same rv repeated: combining raises the effective SNR by ~6 dB for
	// 4 attempts. A block undecodable at -7.5 dB in one shot decodes
	// after 4 chase combines.
	const k, seed = 256, 21
	e := 3 * (k + 4)
	if chaseTrial(t, k, e, -7.5, 1, seed) {
		t.Skip("single transmission decoded at -7.5 dB; channel too kind for the test")
	}
	if !chaseTrial(t, k, e, -7.5, 4, seed) {
		t.Error("chase combining failed to decode at -7.5 dB with 4 attempts")
	}
}

func TestRVSequence(t *testing.T) {
	// The four redundancy versions of LTE's cycling order (0, 2, 3, 1)
	// must start reading the circular buffer at different offsets.
	rm := NewRateMatcher(132)
	offsets := map[int]bool{}
	for _, rv := range []int{0, 2, 3, 1} {
		offsets[rm.rvOffset(rv)] = true
	}
	if len(offsets) != 4 {
		t.Errorf("only %d distinct rv offsets", len(offsets))
	}
}
