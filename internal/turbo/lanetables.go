package turbo

import "vransim/internal/simd"

// laneTables are the lane index tables of the state-parallel recursions
// for nb blocks side by side in one register: block b's eight trellis
// states occupy lanes 8b..8b+7, and every table maps a lane to a lane of
// the same block, so no permute ever crosses a block boundary. They are a
// pure function of (trellis, width), embedded in a packed plan's
// interpreter tables. The slices are never written after newLaneTables
// returns: the program Emitter interns an index table by identity (its
// backing array).
type laneTables struct {
	// prevIdxU[b*8+s] is the lane of the state that reaches s under input
	// bit U (alpha), nextIdxU[b*8+s] the lane of the state s moves to
	// (beta).
	prevIdx0, prevIdx1 []int
	nextIdx0, nextIdx1 []int
	// lane0Idx broadcasts each block's state 0, the normalisation
	// reference the scalar decoder also uses.
	lane0Idx []int
	// hmaxIdx are the three shuffle rounds of the horizontal max.
	hmaxIdx [3][]int
	// negInfInit is the recursion-init lane pattern: state 0 of every
	// block reachable (0), the rest at negInf16; lanes beyond the nb
	// blocks are zero.
	negInfInit []int16
}

func newLaneTables(tr *Trellis, w simd.Width, nb int) laneTables {
	lanes := w.Lanes16()
	rep := func(f func(s int) int) []int {
		idx := make([]int, lanes)
		for b := 0; b < nb; b++ {
			for s := 0; s < NumStates; s++ {
				idx[b*NumStates+s] = b*NumStates + f(s)
			}
		}
		return idx
	}
	lt := laneTables{
		prevIdx0: rep(func(s int) int { return tr.Prev[s][0] }),
		prevIdx1: rep(func(s int) int { return tr.Prev[s][1] }),
		nextIdx0: rep(func(s int) int { return tr.Next[s][0] }),
		nextIdx1: rep(func(s int) int { return tr.Next[s][1] }),
		lane0Idx: rep(func(s int) int { return 0 }),
		hmaxIdx: [3][]int{
			rep(func(s int) int { return (s + 4) % 8 }),
			rep(func(s int) int { return s ^ 2 }),
			rep(func(s int) int { return s ^ 1 }),
		},
		negInfInit: make([]int16, lanes),
	}
	for b := 0; b < nb; b++ {
		for s := 1; s < NumStates; s++ {
			lt.negInfInit[b*NumStates+s] = negInf16
		}
	}
	return lt
}

// hmax reduces each block's eight lanes of v to their maximum, in every
// lane of that block (three shuffle + max rounds), leaving the result in
// dst. tmp is scratch.
func (lt *laneTables) hmax(e *simd.Engine, v, dst, tmp *simd.Vec) {
	e.PermuteW(tmp, v, lt.hmaxIdx[0])
	e.PMaxSW(dst, v, tmp)
	e.PermuteW(tmp, dst, lt.hmaxIdx[1])
	e.PMaxSW(dst, dst, tmp)
	e.PermuteW(tmp, dst, lt.hmaxIdx[2])
	e.PMaxSW(dst, dst, tmp)
}
