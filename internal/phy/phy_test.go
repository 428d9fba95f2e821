package phy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBits(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}

func TestCRCDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		poly uint32
		n    int
	}{{CRC24APoly, 24}, {CRC24BPoly, 24}, {CRC16Poly, 16}, {CRC8Poly, 8}} {
		bits := randBits(rng, 200)
		ext := AppendCRC(bits, tc.poly, tc.n)
		if !CheckCRC(ext, tc.poly, tc.n) {
			t.Fatalf("poly %#x: valid CRC rejected", tc.poly)
		}
		for trial := 0; trial < 20; trial++ {
			corrupted := append([]byte(nil), ext...)
			corrupted[rng.Intn(len(corrupted))] ^= 1
			if CheckCRC(corrupted, tc.poly, tc.n) {
				t.Errorf("poly %#x: single-bit error not detected", tc.poly)
			}
		}
	}
}

func TestCRCKnownZeroInput(t *testing.T) {
	// All-zero input has CRC zero for any polynomial with zero init.
	if crcBits(make([]byte, 64), CRC24APoly, 24) != 0 || crcBits(make([]byte, 64), CRC16Poly, 16) != 0 {
		t.Error("zero input must yield zero CRC")
	}
}

// Property: CheckCRC accepts exactly the strings AppendCRC produces.
func TestCRCProperty(t *testing.T) {
	f := func(data []byte, flip uint16) bool {
		if len(data) == 0 {
			data = []byte{1}
		}
		bits := make([]byte, len(data)%128+8)
		for i := range bits {
			bits[i] = data[i%len(data)] & 1
		}
		ext := AppendCRC(bits, CRC24BPoly, 24)
		if !CheckCRC(ext, CRC24BPoly, 24) {
			return false
		}
		ext[int(flip)%len(ext)] ^= 1
		return !CheckCRC(ext, CRC24BPoly, 24)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestGoldSequenceProperties(t *testing.T) {
	c1 := GoldSequence(12345, 4096)
	c2 := GoldSequence(12345, 4096)
	c3 := GoldSequence(54321, 4096)
	same, diff := 0, 0
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("Gold sequence not deterministic")
		}
		if c1[i] != c3[i] {
			diff++
		}
		if c1[i] == 1 {
			same++
		}
	}
	// Balanced (~50% ones) and seed-sensitive.
	if same < 1800 || same > 2300 {
		t.Errorf("ones count %d, want ~2048", same)
	}
	if diff < 1800 || diff > 2300 {
		t.Errorf("cross-seed difference %d, want ~2048", diff)
	}
}

func TestScramblerInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bits := randBits(rng, 1000)
	orig := append([]byte(nil), bits...)
	s := NewScrambler(ScrambleInit(100, 0, 4, 7), 1000)
	s.Apply(bits)
	changed := 0
	for i := range bits {
		if bits[i] != orig[i] {
			changed++
		}
	}
	if changed < 400 {
		t.Errorf("scrambler changed only %d/1000 bits", changed)
	}
	s2 := NewScrambler(ScrambleInit(100, 0, 4, 7), 1000)
	s2.Apply(bits)
	for i := range bits {
		if bits[i] != orig[i] {
			t.Fatal("descrambling failed")
		}
	}
}

func TestScramblerLLRSigns(t *testing.T) {
	llr := []int16{100, -50, 30, -20, 10, 5, -5, 60}
	s := NewScrambler(ScrambleInit(1, 0, 0, 1), len(llr))
	bits := make([]byte, len(llr))
	s.Apply(bits) // bits now hold the sequence
	s2 := NewScrambler(ScrambleInit(1, 0, 0, 1), len(llr))
	got := s2.ApplyLLR(append([]int16(nil), llr...))
	for i := range llr {
		want := llr[i]
		if bits[i] == 1 {
			want = -want
		}
		if got[i] != want {
			t.Errorf("LLR %d: got %d, want %d", i, got[i], want)
		}
	}
}

func TestModulationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []Modulation{QPSK, QAM16, QAM64} {
		bits := randBits(rng, 240*m.BitsPerSymbol()/2*2)
		bits = bits[:240/m.BitsPerSymbol()*m.BitsPerSymbol()]
		syms, err := Modulate(bits, m)
		if err != nil {
			t.Fatal(err)
		}
		// Unit average energy.
		var e float64
		for _, s := range syms {
			e += s.I*s.I + s.Q*s.Q
		}
		e /= float64(len(syms))
		if math.Abs(e-1) > 0.15 {
			t.Errorf("%v: average symbol energy %.3f, want ~1", m, e)
		}
		// Noiseless demod recovers the bits.
		d := Demodulator{M: m, NoiseVar: 0.1, Scale: 16}
		llr := d.Demodulate(syms)
		for i, b := range bits {
			got := byte(0)
			if llr[i] < 0 {
				got = 1
			}
			if got != b {
				t.Fatalf("%v: bit %d wrong after noiseless demod", m, i)
			}
		}
	}
}

func TestModulateLengthValidation(t *testing.T) {
	if _, err := Modulate(make([]byte, 3), QPSK); err == nil {
		t.Error("expected length error")
	}
}

func TestSubBlockInterleaverCoverage(t *testing.T) {
	for _, d := range []int{40, 132, 512, 6144 + 12} {
		for _, f := range []func(int) []int{subBlockInterleave, subBlockInterleave2} {
			out := f(d)
			seen := make([]bool, d)
			dummies := 0
			for _, idx := range out {
				if idx == dummy {
					dummies++
					continue
				}
				if seen[idx] {
					t.Fatalf("D=%d: index %d emitted twice", d, idx)
				}
				seen[idx] = true
			}
			for i, s := range seen {
				if !s {
					t.Fatalf("D=%d: index %d never emitted", d, i)
				}
			}
			if dummies != len(out)-d {
				t.Fatalf("D=%d: dummy count %d, want %d", d, dummies, len(out)-d)
			}
		}
	}
}

func TestRateMatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 132
	rm := NewRateMatcher(d)
	s0, s1, s2 := randBits(rng, d), randBits(rng, d), randBits(rng, d)
	// With E = 3*D*2 every bit is transmitted at least once.
	e := 3 * d * 2
	tx, err := rm.Match(s0, s1, s2, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx) != e {
		t.Fatalf("rate matcher emitted %d bits, want %d", len(tx), e)
	}
	llr := make([]int16, e)
	for i, b := range tx {
		if b == 0 {
			llr[i] = 8
		} else {
			llr[i] = -8
		}
	}
	d0, d1, d2 := rm.Dematch(llr, 0)
	check := func(name string, want []byte, got []int16) {
		for i := range want {
			sign := byte(0)
			if got[i] < 0 {
				sign = 1
			}
			if got[i] == 0 || sign != want[i] {
				t.Fatalf("%s[%d]: llr %d vs bit %d", name, i, got[i], want[i])
			}
		}
	}
	check("d0", s0, d0)
	check("d1", s1, d1)
	check("d2", s2, d2)
}

func TestRateMatchPuncturing(t *testing.T) {
	d := 132
	rm := NewRateMatcher(d)
	s := make([]byte, d)
	// Fewer bits than the buffer: some positions must stay punctured
	// (zero LLR) after dematching.
	tx, err := rm.Match(s, s, s, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	llr := make([]int16, len(tx))
	for i := range llr {
		llr[i] = 8
	}
	d0, d1, d2 := rm.Dematch(llr, 0)
	zeros := 0
	for _, buf := range [][]int16{d0, d1, d2} {
		for _, v := range buf {
			if v == 0 {
				zeros++
			}
		}
	}
	if zeros != 2*d {
		t.Errorf("punctured positions = %d, want %d", zeros, 2*d)
	}
}

func TestRateMatchSoftCombining(t *testing.T) {
	d := 40
	rm := NewRateMatcher(d)
	s := make([]byte, d)
	e := 3 * d * 3 // each bit repeated ~3 times
	tx, _ := rm.Match(s, s, s, e, 0)
	llr := make([]int16, len(tx))
	for i := range llr {
		llr[i] = 5
	}
	d0, _, _ := rm.Dematch(llr, 0)
	for i, v := range d0 {
		if v < 10 {
			t.Fatalf("d0[%d] = %d: repetition not combined", i, v)
		}
	}
}

func TestSegmentationSingleBlock(t *testing.T) {
	seg, err := Segment(1000)
	if err != nil {
		t.Fatal(err)
	}
	if seg.C != 1 {
		t.Fatalf("C = %d, want 1", seg.C)
	}
	rng := rand.New(rand.NewSource(5))
	bits := randBits(rng, 1000)
	blocks, err := seg.Split(bits)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || len(blocks[0]) != seg.K {
		t.Fatal("bad split geometry")
	}
	back, ok, err := seg.Join(blocks)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	for i := range bits {
		if back[i] != bits[i] {
			t.Fatal("join mismatch")
		}
	}
}

func TestSegmentationMultiBlock(t *testing.T) {
	b := 20000
	seg, err := Segment(b)
	if err != nil {
		t.Fatal(err)
	}
	if seg.C < 4 {
		t.Fatalf("C = %d, want >= 4 for B=%d", seg.C, b)
	}
	rng := rand.New(rand.NewSource(6))
	bits := randBits(rng, b)
	blocks, err := seg.Split(bits)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if len(blk) != seg.K {
			t.Fatalf("block length %d, want %d", len(blk), seg.K)
		}
		if !CheckCRC(blk, CRC24BPoly, 24) {
			t.Fatal("block CRC24B invalid")
		}
	}
	back, ok, err := seg.Join(blocks)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	for i := range bits {
		if back[i] != bits[i] {
			t.Fatal("multi-block join mismatch")
		}
	}
	// Corrupt one block: Join must flag it.
	blocks[1][0] ^= 1
	_, ok, _ = seg.Join(blocks)
	if ok {
		t.Error("corrupted block CRC not flagged")
	}
}

func TestOFDMRoundTrip(t *testing.T) {
	o, err := NewOFDM(512, 300, 36)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	bits := randBits(rng, 600)
	syms, _ := Modulate(bits, QPSK)
	tx, err := o.Modulate(syms)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx) != 512+36 {
		t.Fatalf("sample count %d, want 548", len(tx))
	}
	rx, err := o.Demodulate(tx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if math.Abs(rx[i].I-syms[i].I) > 1e-9 || math.Abs(rx[i].Q-syms[i].Q) > 1e-9 {
			t.Fatalf("subcarrier %d: %v != %v", i, rx[i], syms[i])
		}
	}
}

func TestOFDMValidation(t *testing.T) {
	if _, err := NewOFDM(500, 300, 36); err == nil {
		t.Error("expected power-of-two error")
	}
	if _, err := NewOFDM(256, 300, 36); err == nil {
		t.Error("expected used<fft error")
	}
}

func TestOFDMThroughAWGN(t *testing.T) {
	o, _ := NewOFDM(512, 300, 36)
	ch := NewAWGNChannel(20, 1)
	rng := rand.New(rand.NewSource(8))
	bits := randBits(rng, 600)
	syms, _ := Modulate(bits, QPSK)
	tx, _ := o.Modulate(syms)
	rx, _ := o.Demodulate(ch.Apply(tx))
	d := Demodulator{M: QPSK, NoiseVar: o.SubcarrierNoiseVar(ch.NoiseVar()), Scale: 16}
	llr := d.Demodulate(rx)
	errs := 0
	for i, b := range bits {
		got := byte(0)
		if llr[i] < 0 {
			got = 1
		}
		if got != b {
			errs++
		}
	}
	if errs > 3 {
		t.Errorf("%d bit errors at 20 dB through OFDM", errs)
	}
}

func TestTBCCRoundTripNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{16, 44, 70} {
		bits := randBits(rng, n)
		coded := TBCCEncode(bits)
		if len(coded) != 3*n {
			t.Fatalf("coded length %d, want %d", len(coded), 3*n)
		}
		llr := make([]int16, len(coded))
		for i, b := range coded {
			if b == 0 {
				llr[i] = 16
			} else {
				llr[i] = -16
			}
		}
		dec := &TBCCDecoder{}
		got, err := dec.Decode(llr, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("n=%d: bit %d wrong", n, i)
			}
		}
	}
}

func TestTBCCTailBiting(t *testing.T) {
	// Encoding must be circularly consistent: encoding a rotated input
	// yields a rotated codeword (the defining tail-biting property).
	rng := rand.New(rand.NewSource(10))
	n := 24
	bits := randBits(rng, n)
	coded := TBCCEncode(bits)
	rot := append(append([]byte(nil), bits[1:]...), bits[0])
	codedRot := TBCCEncode(rot)
	for i := 0; i < 3*n; i++ {
		if codedRot[i] != coded[(i+3)%(3*n)] {
			t.Fatalf("tail-biting circularity broken at %d", i)
		}
	}
}

func TestDCIEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := DCI{Payload: randBits(rng, 31)}
	coded := EncodeDCI(d)
	llr := make([]int16, len(coded))
	for i, b := range coded {
		if b == 0 {
			llr[i] = 16
		} else {
			llr[i] = -16
		}
	}
	got, ok, err := DecodeDCI(llr, 31, &TBCCDecoder{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("DCI CRC failed on noiseless input")
	}
	for i := range d.Payload {
		if got.Payload[i] != d.Payload[i] {
			t.Fatal("DCI payload mismatch")
		}
	}
	// Corrupt heavily: CRC must flag it.
	for i := range llr {
		llr[i] = -llr[i]
	}
	_, ok, _ = DecodeDCI(llr, 31, &TBCCDecoder{})
	if ok {
		t.Error("inverted DCI accepted")
	}
}

func TestAWGNChannelStats(t *testing.T) {
	ch := NewAWGNChannel(0, 2) // 0 dB: noise var = signal power
	n := 20000
	samples := make([]IQ, n)
	ch.Apply(samples)
	var mean, varI float64
	for _, s := range samples {
		mean += s.I
	}
	mean /= float64(n)
	for _, s := range samples {
		varI += (s.I - mean) * (s.I - mean)
	}
	varI /= float64(n)
	if math.Abs(mean) > 0.02 {
		t.Errorf("noise mean %.4f, want ~0", mean)
	}
	if math.Abs(varI-0.5) > 0.05 {
		t.Errorf("per-dim variance %.3f, want 0.5 at 0 dB", varI)
	}
	if math.Abs(ch.NoiseVar()-1.0) > 0.01 {
		t.Errorf("NoiseVar %.3f, want 1.0 at 0 dB", ch.NoiseVar())
	}
}
