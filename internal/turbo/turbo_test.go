package turbo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRSCStepTermination(t *testing.T) {
	// Feeding the feedback bit must zero the register input: from any
	// state, three termination steps reach state 0.
	for s := 0; s < NumStates; s++ {
		state := s
		for i := 0; i < 3; i++ {
			state, _ = rscStep(state, rscFeedback(state))
		}
		if state != 0 {
			t.Errorf("termination from state %d ended at %d", s, state)
		}
	}
}

func TestTrellisStructure(t *testing.T) {
	tr := NewTrellis()
	// Every state has exactly two successors and two predecessors, and
	// Prev inverts Next.
	var inDeg [NumStates]int
	for s := 0; s < NumStates; s++ {
		if tr.Next[s][0] == tr.Next[s][1] {
			t.Errorf("state %d: both inputs lead to %d", s, tr.Next[s][0])
		}
		for u := 0; u < 2; u++ {
			n := tr.Next[s][u]
			inDeg[n]++
			if tr.Prev[n][u] != s {
				t.Errorf("Prev[%d][%d] = %d, want %d", n, u, tr.Prev[n][u], s)
			}
		}
	}
	for s, d := range inDeg {
		if d != 2 {
			t.Errorf("state %d has in-degree %d, want 2", s, d)
		}
	}
}

func TestEncodeRSCKnownVector(t *testing.T) {
	// All-zero input keeps the encoder in state 0 with zero parity.
	par, tailSys, tailPar := EncodeRSC(make([]byte, 16))
	for i, p := range par {
		if p != 0 {
			t.Errorf("parity[%d] = %d for all-zero input", i, p)
		}
	}
	if tailSys != [3]byte{} || tailPar != [3]byte{} {
		t.Error("nonzero tail for all-zero input")
	}
	// A single 1 excites the recursive encoder: the parity stream must
	// not die out (IIR response).
	bits := make([]byte, 16)
	bits[0] = 1
	par, _, _ = EncodeRSC(bits)
	ones := 0
	for _, p := range par {
		ones += int(p)
	}
	if ones < 4 {
		t.Errorf("impulse response weight %d, want recursive (>=4)", ones)
	}
}

func TestQPPBijective(t *testing.T) {
	for _, k := range []int{40, 64, 104, 512, 1024, 2048, 6144} {
		q, err := NewQPP(k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		seen := make([]bool, k)
		for i := 0; i < k; i++ {
			p := q.Perm(i)
			if seen[p] {
				t.Fatalf("K=%d: Π not injective at %d", k, i)
			}
			seen[p] = true
			if q.InvPerm(p) != i {
				t.Fatalf("K=%d: InvPerm broken at %d", k, i)
			}
		}
		if q.F1%2 != 1 || q.F2%2 != 0 {
			t.Errorf("K=%d: f1=%d f2=%d, want odd/even", k, q.F1, q.F2)
		}
	}
}

// TestQPPContentionFree: at every LTE block size, for nb = 2, 4 and 8
// windows of W = K/nb steps (nb dividing K), the nb reads Π(i + w·W) of
// each step i < W fall in nb different windows, so nb decoders walking
// one window each never read the same window at once. Takeshita's
// theorem makes every QPP contention-free for every window size dividing
// K; this holds the searched polynomials to it.
func TestQPPContentionFree(t *testing.T) {
	for _, k := range BlockSizes {
		q, err := NewQPP(k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		for _, nb := range []int{2, 4, 8} {
			if k%nb != 0 {
				continue
			}
			w := k / nb
			for i := 0; i < w; i++ {
				var seen [8]bool
				for b := 0; b < nb; b++ {
					win := q.Perm(i+b*w) / w
					if seen[win] {
						t.Fatalf("K=%d, %d windows: step %d reads window %d twice", k, nb, i, win)
					}
					seen[win] = true
				}
			}
		}
	}
}

func TestQPPDeterministic(t *testing.T) {
	a, err1 := NewQPP(256)
	b, err2 := NewQPP(256)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a.F1 != b.F1 || a.F2 != b.F2 {
		t.Errorf("QPP search not deterministic: (%d,%d) vs (%d,%d)", a.F1, a.F2, b.F1, b.F2)
	}
}

func TestQPPInterleaveRoundTrip(t *testing.T) {
	q, _ := NewQPP(104)
	src := make([]int16, 104)
	for i := range src {
		src[i] = int16(i * 3)
	}
	tmp := make([]int16, 104)
	back := make([]int16, 104)
	q.Interleave(tmp, src)
	q.Deinterleave(back, tmp)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("roundtrip broken at %d", i)
		}
	}
}

func TestBlockSizes(t *testing.T) {
	if BlockSizes[0] != 40 || BlockSizes[len(BlockSizes)-1] != 6144 {
		t.Errorf("block size range [%d, %d], want [40, 6144]", BlockSizes[0], BlockSizes[len(BlockSizes)-1])
	}
	if !ValidBlockSize(40) || !ValidBlockSize(6144) || ValidBlockSize(41) {
		t.Error("ValidBlockSize misclassifies")
	}
	if NearestBlockSize(41) != 48 || NearestBlockSize(7000) != 6144 {
		t.Error("NearestBlockSize misclassifies")
	}
}

func TestEncodeValidation(t *testing.T) {
	c, err := NewCode(40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Encode(make([]byte, 39)); err == nil {
		t.Error("expected length error")
	}
	if _, err := c.Encode(append(make([]byte, 39), 2)); err == nil {
		t.Error("expected non-binary error")
	}
	if _, err := NewCode(41); err == nil {
		t.Error("expected unsupported-size error")
	}
}

func randomBits(rng *rand.Rand, k int) []byte {
	bits := make([]byte, k)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	return bits
}

func TestDecodeNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{40, 104, 512} {
		c, err := NewCode(k)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(c)
		for trial := 0; trial < 3; trial++ {
			bits := randomBits(rng, k)
			cw, err := c.Encode(bits)
			if err != nil {
				t.Fatal(err)
			}
			w := NewLLRWord(k)
			w.FromHard(cw, 32)
			got, iters, err := d.Decode(w)
			if err != nil {
				t.Fatal(err)
			}
			if !equalBits(got, bits) {
				t.Fatalf("K=%d trial %d: noiseless decode failed", k, trial)
			}
			if iters > 3 {
				t.Errorf("K=%d: noiseless decode took %d iterations", k, iters)
			}
		}
	}
}

// addAWGN converts bits to BPSK LLRs with Gaussian noise at the given
// Es/N0 (dB) and LLR amplitude scaling.
func addAWGN(rng *rand.Rand, w *LLRWord, cw *Codeword, snrDB float64) {
	sigma := math.Sqrt(0.5 * math.Pow(10, -snrDB/10))
	scale := 16.0
	ch := func(b byte) int16 {
		x := 1.0
		if b == 1 {
			x = -1.0
		}
		v := (x + rng.NormFloat64()*sigma) * scale * 2 / (sigma * sigma) / 8
		if v > 255 {
			v = 255
		}
		if v < -255 {
			v = -255
		}
		return int16(v)
	}
	for i := range cw.Sys {
		w.Sys[i] = ch(cw.Sys[i])
		w.P1[i] = ch(cw.P1[i])
		w.P2[i] = ch(cw.P2[i])
	}
	for i := 0; i < 3; i++ {
		w.TailSys[i] = ch(cw.TailSys[i])
		w.TailP1[i] = ch(cw.TailP1[i])
	}
}

func TestDecodeAWGN(t *testing.T) {
	// At a comfortable SNR the turbo decoder must recover every block;
	// at very low SNR it must fail sometimes (sanity that the channel
	// is actually noisy and the test has teeth).
	rng := rand.New(rand.NewSource(42))
	k := 512
	c, err := NewCode(k)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(c)
	d.MaxIters = 8
	okHigh, okLow := 0, 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		bits := randomBits(rng, k)
		cw, _ := c.Encode(bits)
		w := NewLLRWord(k)
		addAWGN(rng, w, cw, 3.0)
		if got, _, _ := d.Decode(w); equalBits(got, bits) {
			okHigh++
		}
		addAWGN(rng, w, cw, -7.0)
		if got, _, _ := d.Decode(w); equalBits(got, bits) {
			okLow++
		}
	}
	if okHigh != trials {
		t.Errorf("3 dB: decoded %d/%d blocks, want all", okHigh, trials)
	}
	if okLow == trials {
		t.Errorf("-7 dB: decoded all blocks; channel model suspect")
	}
}

// Property: decoding is better than chance even at moderate noise, and
// the decoder never panics across random payloads.
func TestDecodeProperty(t *testing.T) {
	c, err := NewCode(64)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(c)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := randomBits(rng, 64)
		cw, err := c.Encode(bits)
		if err != nil {
			return false
		}
		w := NewLLRWord(64)
		addAWGN(rng, w, cw, 4.0)
		got, _, err := d.Decode(w)
		if err != nil {
			return false
		}
		errs := 0
		for i := range bits {
			if got[i] != bits[i] {
				errs++
			}
		}
		return errs <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCodewordBits(t *testing.T) {
	c, _ := NewCode(40)
	cw, _ := c.Encode(make([]byte, 40))
	if got := cw.Bits(); got != 126 {
		t.Errorf("Bits() = %d, want 126 (3*40+6)", got)
	}
}

func TestClampExt(t *testing.T) {
	cases := []struct {
		in   int32
		want int16
	}{{0, 0}, {8192, 8192}, {8193, 8192}, {-9000, -8192}, {100, 100}}
	for _, cse := range cases {
		if got := clampExt(cse.in); got != cse.want {
			t.Errorf("clampExt(%d) = %d, want %d", cse.in, got, cse.want)
		}
	}
}
