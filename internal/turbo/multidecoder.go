package turbo

import (
	"fmt"

	"vransim/internal/core"
	"vransim/internal/simd"
)

// negInf16 marks unreachable trellis states in the SIMD build. It is far
// enough below any reachable metric (inputs are bounded by LLRLimit) that
// unreachable states can never win a max, yet far enough above the int16
// saturation floor that saturating subtracts keep the ordering.
const negInf16 = -12288

// LLRLimit bounds the channel LLR magnitude accepted by the SIMD
// decoder; within it the int16 saturating arithmetic is exact and the
// SIMD build matches the int32 scalar reference bit for bit.
const LLRLimit = 256

// PhaseMark labels a half-open µop range [Lo, Hi) of the engine trace
// with the decoder submodule that produced it; the experiment harness
// uses the marks to attribute cycles to arrangement / gamma / alpha /
// beta / extrinsic, as the paper's Figures 9 and 14 do.
type PhaseMark struct {
	Name   string
	Lo, Hi int
}

func sat16(x int32) int16 { return int16(min(max(x, -32768), 32767)) }

// MultiSIMDDecoder decodes several equal-size code blocks *in parallel
// lanes*: the 8 trellis states of block b occupy lanes 8b..8b+7, so an
// AVX256 register carries two blocks' recursions and an AVX512 register
// four, and every K-indexed phase runs over the blocks packed at the
// element level (multidecoder_packed.go). This is the natural way wider
// SIMD accelerates the calculation-heavy recursions (a transport block is
// segmented into same-K code blocks precisely so they can be decoded
// together), and it makes the decoder's calculation time scale with
// register width as in the paper's Figure 9.
//
// It is the interpreter of the packed decode: BatchDecoder drives it over
// a state of its own when a block size is not replayed, the emitted
// programs are held to it by decode differentials, and Decode is its
// traced entry, the one the paper's figures are measured through. Functionally each lane group
// is independent, so a batch decodes to exactly the bits its blocks decode
// to one at a time (tested), and a single block is a one-word batch: the
// whole register at W128, a partial batch at W256 and W512.
type MultiSIMDDecoder struct {
	Code      *Code
	MaxIters  int
	EarlyExit bool
	// Accept is the second per-block stop test, as BatchDecoder.Accept.
	Accept func(block int, bits []byte) bool

	// RearrangePerHalfIter re-runs the data arrangement before each
	// constituent (MAP) invocation, matching the OAI structure the
	// paper profiles, where the arrangement "generates the input values
	// systematic1, yparity1 and yparity2 for the gamma, alpha, beta and
	// ext calculations" on every decoder call. This is what makes the
	// arrangement 13-19.5% of decode time (Figure 9); disable it for
	// the one-shot-arrangement ablation. A compiled program runs the same
	// ops every iteration, so BatchDecoder turns it off.
	RearrangePerHalfIter bool

	// Marks accumulates the per-phase trace attribution of the last
	// Decode call. It stays empty on an untraced engine (there is no µop
	// stream to attribute, and the serving path must not allocate per
	// decode).
	Marks []PhaseMark
}

// NewMultiSIMDDecoder builds a lane-parallel decoder for code c.
func NewMultiSIMDDecoder(c *Code) *MultiSIMDDecoder {
	return &MultiSIMDDecoder{Code: c, MaxIters: 6, EarlyExit: true, RearrangePerHalfIter: true}
}

// BlocksPerRegister returns how many code blocks width w decodes at
// once.
func BlocksPerRegister(w simd.Width) int { return w.Lanes16() / NumStates }

// resetConv arms per-block convergence masks for a new decode: padded
// lane groups (b >= requested) start converged — their results are
// discarded and they must never influence the exit decision — and real
// blocks start live with no recorded iteration count.
func resetConv(conv []bool, itersB []int, requested int) {
	for b := range conv {
		conv[b] = b >= requested
		itersB[b] = 0
	}
}

// stampIters records the final iteration count on every block that
// never froze (including padded blocks, whose count is unreported).
func stampIters(itersB []int, iters int) {
	for b := range itersB {
		if itersB[b] == 0 {
			itersB[b] = iters
		}
	}
}

// Decode decodes words (one per lane group, at most BlocksPerRegister)
// with arrangement mechanism ar, returning the per-block hard decisions.
// A partially filled batch pads the remaining lane groups with copies of
// the first block (their results are discarded) — wasting lanes, exactly
// as real lane-parallel decoders do on the tail of a transport block.
//
// Decode interprets the packed path over a plan and a state of its own,
// on an engine that shares e's trace recorder and has a fresh memory of
// the plan's size (e's memory is not touched): every call gets a clean
// region and its marks index e's trace. The returned bit slices are owned
// by the caller.
func (d *MultiSIMDDecoder) Decode(e *simd.Engine, ar core.Arranger, words []*LLRWord) ([][]byte, int, error) {
	nb := BlocksPerRegister(e.W)
	if nb < 1 {
		return nil, 0, fmt.Errorf("turbo: width %v too narrow for lane-parallel decode", e.W)
	}
	if len(words) < 1 || len(words) > nb {
		return nil, 0, fmt.Errorf("turbo: got %d blocks, %v decodes 1..%d at once", len(words), e.W, nb)
	}
	pl := newPackedPlan(d.Code, ar.Layout(e.W), e.W, nb)
	st := newPackedState(simd.NewEngine(e.W, simd.NewMemory(int(pl.size)), e.Recorder()), ar, pl)
	return d.runPacked(st, words)
}

// mark opens a phase mark, or reports -1 on an untraced engine (no µop
// stream to attribute — and the serving path must not grow Marks per
// call).
func (d *MultiSIMDDecoder) mark(e *simd.Engine, name string) int {
	if e.Recorder() == nil {
		return -1
	}
	d.Marks = append(d.Marks, PhaseMark{Name: name, Lo: e.TraceLen()})
	return len(d.Marks) - 1
}

// setHi closes a mark opened by mark (no-op for the untraced -1).
func (d *MultiSIMDDecoder) setHi(m int, e *simd.Engine) {
	if m >= 0 {
		d.Marks[m].Hi = e.TraceLen()
	}
}
