package turbo

import "fmt"

// Code is a configured turbo code: block size plus interleaver.
type Code struct {
	K       int
	qpp     *QPP
	trellis *Trellis
}

// NewCode builds the turbo code for information block length k (which
// must be a supported block size; see BlockSizes).
func NewCode(k int) (*Code, error) {
	if err := checkBlockSize(k); err != nil {
		return nil, err
	}
	q, err := NewQPP(k)
	if err != nil {
		return nil, err
	}
	return &Code{K: k, qpp: q, trellis: NewTrellis()}, nil
}

// checkBlockSize is the error every entry point reports for a k that is
// not a supported block size.
func checkBlockSize(k int) error {
	if !ValidBlockSize(k) {
		return fmt.Errorf("turbo: unsupported block size %d (nearest: %d)", k, NearestBlockSize(k))
	}
	return nil
}

// Codeword is the encoder output: the three K-bit streams plus the
// termination tail of the first constituent encoder. (The second
// constituent is left unterminated and the decoder initializes its
// backward recursion equiprobably — a standard simplification that
// avoids the 3GPP tail-bit multiplexing; see DESIGN.md.)
type Codeword struct {
	Sys     []byte // systematic bits, length K
	P1      []byte // parity of encoder 1 (natural order), length K
	P2      []byte // parity of encoder 2 (interleaved order), length K
	TailSys [3]byte
	TailP1  [3]byte
}

// Bits returns the total number of transmitted bits.
func (cw *Codeword) Bits() int { return 3*len(cw.Sys) + 6 }

// Encode produces the codeword for K information bits (values 0/1).
func (c *Code) Encode(bits []byte) (*Codeword, error) {
	if len(bits) != c.K {
		return nil, fmt.Errorf("turbo: got %d bits, code expects %d", len(bits), c.K)
	}
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("turbo: bit %d has non-binary value %d", i, b)
		}
	}
	cw := &Codeword{Sys: append([]byte(nil), bits...)}
	var p1 []byte
	p1, cw.TailSys, cw.TailP1 = EncodeRSC(bits)
	cw.P1 = p1
	perm := c.qpp.InterleaveBits(bits)
	cw.P2, _, _ = EncodeRSC(perm)
	return cw, nil
}

// EncodeTraced encodes like Encode and additionally emits a
// representative scalar µop stream into e: per information bit, each of
// the two constituent encoders performs a handful of table lookups,
// XORs and stores, plus the interleaver's address computation. Turbo
// encoding is one of the high-retiring scalar modules of the downlink
// profile (Figure 4/6).
func (c *Code) EncodeTraced(e interface {
	EmitScalar(string, int)
	EmitScalarLoad(string, int64, int)
	EmitScalarStore(string, int64, int)
	EmitBranch(string)
}, bits []byte) (*Codeword, error) {
	cw, err := c.Encode(bits)
	if err != nil {
		return nil, err
	}
	for i := range bits {
		e.EmitScalar("xor", 4)
		e.EmitScalarLoad("mov", int64(i*2%4096), 2)
		e.EmitScalarStore("mov", int64(i*2%4096), 2)
		if i%8 == 7 {
			e.EmitBranch("jnz")
		}
	}
	return cw, nil
}

// LLRWord carries the received soft values, one int16 LLR per
// transmitted bit, with the convention LLR > 0 ⇒ bit 0 more likely.
type LLRWord struct {
	Sys     []int16
	P1      []int16
	P2      []int16
	TailSys [3]int16
	TailP1  [3]int16
}

// NewLLRWord allocates an LLR word for block size k.
func NewLLRWord(k int) *LLRWord {
	return &LLRWord{
		Sys: make([]int16, k),
		P1:  make([]int16, k),
		P2:  make([]int16, k),
	}
}

// FromHard fills the word with noiseless LLRs of amplitude amp for the
// given codeword — the decoder's easiest input, used by tests.
func (w *LLRWord) FromHard(cw *Codeword, amp int16) {
	conv := func(dst []int16, src []byte) {
		for i, b := range src {
			if b == 0 {
				dst[i] = amp
			} else {
				dst[i] = -amp
			}
		}
	}
	conv(w.Sys, cw.Sys)
	conv(w.P1, cw.P1)
	conv(w.P2, cw.P2)
	for i := 0; i < 3; i++ {
		w.TailSys[i] = hardLLR(cw.TailSys[i], amp)
		w.TailP1[i] = hardLLR(cw.TailP1[i], amp)
	}
}

func hardLLR(bit byte, amp int16) int16 {
	if bit == 0 {
		return amp
	}
	return -amp
}

// Clone returns an independent copy of the word.
func (w *LLRWord) Clone() *LLRWord {
	c := &LLRWord{
		Sys:     append([]int16(nil), w.Sys...),
		P1:      append([]int16(nil), w.P1...),
		P2:      append([]int16(nil), w.P2...),
		TailSys: w.TailSys,
		TailP1:  w.TailP1,
	}
	return c
}

// Accumulate saturating-adds src's soft values into w — HARQ chase
// combining in the LLR-word domain. Repeated receptions of the same
// codeword add coherently (the signal doubles) while independent noise
// adds in quadrature, which is why a combined retransmission decodes
// where each reception alone did not. Both words must belong to the
// same block size. Sums saturate at ±(LLRLimit-1): the combined word
// stays inside the channel-LLR range every decoder build accepts, so
// SIMD and scalar decodes of it remain bit-identical.
func (w *LLRWord) Accumulate(src *LLRWord) error {
	if len(w.Sys) != len(src.Sys) {
		return fmt.Errorf("turbo: combine K mismatch: %d vs %d", len(w.Sys), len(src.Sys))
	}
	acc := func(dst, s []int16) {
		for i := range dst {
			dst[i] = satAddLLR(dst[i], s[i])
		}
	}
	acc(w.Sys, src.Sys)
	acc(w.P1, src.P1)
	acc(w.P2, src.P2)
	for i := 0; i < 3; i++ {
		w.TailSys[i] = satAddLLR(w.TailSys[i], src.TailSys[i])
		w.TailP1[i] = satAddLLR(w.TailP1[i], src.TailP1[i])
	}
	return nil
}

// satAddLLR adds two channel LLRs saturating at ±(LLRLimit-1).
func satAddLLR(a, b int16) int16 {
	s := int32(a) + int32(b)
	if s > LLRLimit-1 {
		s = LLRLimit - 1
	}
	if s < -(LLRLimit - 1) {
		s = -(LLRLimit - 1)
	}
	return int16(s)
}
