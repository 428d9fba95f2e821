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

// ArrangedInput is the decoder's view of one block's LLR arrays living in
// engine memory: Src is the interleaved [S P1 P2] stream the arrangement
// reads (re-run per half-iteration under RearrangePerHalfIter), S, P1 and
// P2 the arranged arrays it writes.
type ArrangedInput struct {
	Src     int64
	S       int64 // systematic, natural bit order
	P1      int64 // parity 1, natural order
	P2      int64 // parity 2, interleaved order
	TailSys [3]int16
	TailP1  [3]int16
}

func sat16(x int32) int16 { return int16(min(max(x, -32768), 32767)) }

// MultiSIMDDecoder decodes several equal-size code blocks *in parallel
// lanes*: the 8 trellis states of block b occupy lanes 8b..8b+7, so an
// AVX256 register carries two blocks' recursions and an AVX512 register
// four. This is the natural way wider SIMD accelerates the
// calculation-heavy recursions (a transport block is segmented into
// same-K code blocks precisely so they can be decoded together), and it
// makes the decoder's calculation time scale with register width as in
// the paper's Figure 9.
//
// Functionally each lane group is independent, so a batch decodes to
// exactly the bits its blocks decode to one at a time (tested), and a
// single block is a one-word batch: the whole register at W128, a
// partial batch at W256 and W512.
type MultiSIMDDecoder struct {
	Code      *Code
	MaxIters  int
	EarlyExit bool

	// RearrangePerHalfIter re-runs the data arrangement before each
	// constituent (MAP) invocation, matching the OAI structure the
	// paper profiles, where the arrangement "generates the input values
	// systematic1, yparity1 and yparity2 for the gamma, alpha, beta and
	// ext calculations" on every decoder call. This is what makes the
	// arrangement 13-19.5% of decode time (Figure 9); disable it for
	// the one-shot-arrangement ablation.
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

// multiState is the decoder's working set: arena regions, index tables,
// constant-register patterns and output buffers, all derived from
// (K, width, strategy). MultiSIMDDecoder.Decode builds a transient one
// per call (the traced experiment path, and the per-block reference the
// packed serving path is tested against; see packedState for that one).
type multiState struct {
	e    *simd.Engine
	ar   core.Arranger
	code *Code
	lay  core.Layout
	nb   int // blocks in flight

	// Per-block arranged arrays and inputs (arena addresses, fixed for
	// the state's lifetime).
	in    []ArrangedInput
	sPerm []int64
	la1   []int64
	la2   []int64
	ext   []int64
	g0    []int64
	g1    []int64
	dPost []int64
	tailG []int64

	alpha int64 // shared history: one full-width register per step

	zero *simd.Vec
	// Masks replicated across the nb blocks.
	maskAlphaU0, maskAlphaU0N *simd.Vec
	maskAlphaU1, maskAlphaU1N *simd.Vec
	maskCurU0, maskCurU0N     *simd.Vec
	maskCurU1, maskCurU1N     *simd.Vec
	// blockMask[b] selects the lanes of lane group b (gamma packing).
	blockMask []*simd.Vec
	// Scratch registers for the gamma packing.
	packT, packA *simd.Vec
	laneTables

	// Go-side buffers: per-block hard decisions, per-block convergence
	// masks and iterations-to-converge, and the lane-padding scratch for
	// under-filled batches.
	bits   [][]byte
	conv   []bool
	itersB []int
	words  []*LLRWord
}

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

// extractBits scans the posterior array for every still-live block,
// updating bits in place and tracking a dirty flag per block — the
// former O(k) equalBits re-compare folded into the extraction itself.
// A block whose iteration left its bits unchanged (it > 0) freezes: its
// bits stop updating, exactly like the scalar reference exiting that
// block's decode loop. Returns true when every block has frozen.
func (st *multiState) extractBits(earlyExit bool, it int) bool {
	qpp := st.code.qpp
	mem := st.e.Mem
	done := true
	for b := 0; b < st.nb; b++ {
		if st.conv[b] {
			continue
		}
		dirty := false
		bits := st.bits[b]
		for i := 0; i < st.code.K; i++ {
			var v byte
			if mem.ReadI16(st.elemAddr(st.dPost[b], i)) < 0 {
				v = 1
			}
			if p := qpp.Perm(i); bits[p] != v {
				bits[p] = v
				dirty = true
			}
		}
		if earlyExit && it > 0 && !dirty {
			st.conv[b] = true
			st.itersB[b] = it + 1
		} else {
			done = false
		}
	}
	return done
}

func (st *multiState) elemAddr(base int64, k int) int64 {
	g, jj := k/st.lay.GroupLanes, k%st.lay.GroupLanes
	return base + 2*int64(g*st.lay.StrideLanes+st.lay.LanePos[jj])
}

func (st *multiState) vecAddr(base int64, g, rot int) int64 {
	return base + 2*int64(g*st.lay.StrideLanes+rot)
}

// newMultiState allocates the full working set for decoding nb blocks of
// code c on engine e with arrangement ar. The arena allocation order
// matches the historical per-call order exactly, so traced runs see the
// same addresses (and therefore the same cache behaviour) as before the
// plan/scratch split.
func newMultiState(e *simd.Engine, ar core.Arranger, c *Code, nb int) *multiState {
	k := c.K
	lay := ar.Layout(e.W)
	st := &multiState{e: e, ar: ar, code: c, lay: lay, nb: nb, laneTables: newLaneTables(c.trellis, e.W, nb)}
	arrBytes := lay.DstBytes(k)
	st.in = make([]ArrangedInput, nb)
	st.sPerm = make([]int64, nb)
	st.la1 = make([]int64, nb)
	st.la2 = make([]int64, nb)
	st.ext = make([]int64, nb)
	st.g0 = make([]int64, nb)
	st.g1 = make([]int64, nb)
	st.dPost = make([]int64, nb)
	st.tailG = make([]int64, nb)
	for b := 0; b < nb; b++ {
		src := e.Mem.Alloc(core.InterleavedBytes(k), 64)
		dst := core.Dest{
			S:  e.Mem.Alloc(arrBytes, 64),
			P1: e.Mem.Alloc(arrBytes, 64),
			P2: e.Mem.Alloc(arrBytes, 64),
		}
		st.in[b] = ArrangedInput{Src: src, S: dst.S, P1: dst.P1, P2: dst.P2}
		st.sPerm[b] = e.Mem.Alloc(arrBytes, 64)
		st.la1[b] = e.Mem.Alloc(arrBytes, 64)
		st.la2[b] = e.Mem.Alloc(arrBytes, 64)
		st.ext[b] = e.Mem.Alloc(arrBytes, 64)
		st.g0[b] = e.Mem.Alloc(arrBytes, 64)
		st.g1[b] = e.Mem.Alloc(arrBytes, 64)
		st.dPost[b] = e.Mem.Alloc(arrBytes, 64)
		st.tailG[b] = e.Mem.Alloc(12, 64)
	}
	st.alpha = e.Mem.Alloc(int(e.W)*(k+4), 64)

	st.bits = make([][]byte, nb)
	for b := 0; b < nb; b++ {
		st.bits[b] = make([]byte, k)
	}
	st.conv = make([]bool, nb)
	st.itersB = make([]int, nb)
	st.words = make([]*LLRWord, 0, nb)
	return st
}

// Decode decodes words (one per lane group, at most BlocksPerRegister)
// with arrangement mechanism ar, returning the per-block hard decisions.
// A partially filled batch pads the remaining lane groups with copies of
// the first block (their results are discarded) — wasting lanes, exactly
// as real lane-parallel decoders do on the tail of a transport block.
//
// Decode builds a fresh working set per call (every experiment gets a
// clean arena region and trace); the serving path is BatchDecoder, which
// packs the blocks at the element level instead. The returned bit slices
// are owned by the caller.
func (d *MultiSIMDDecoder) Decode(e *simd.Engine, ar core.Arranger, words []*LLRWord) ([][]byte, int, error) {
	nb := BlocksPerRegister(e.W)
	if nb < 1 {
		return nil, 0, fmt.Errorf("turbo: width %v too narrow for lane-parallel decode", e.W)
	}
	if len(words) < 1 || len(words) > nb {
		return nil, 0, fmt.Errorf("turbo: got %d blocks, %v decodes 1..%d at once", len(words), e.W, nb)
	}
	st := newMultiState(e, ar, d.Code, nb)
	return d.run(st, words)
}

// run executes one lane-parallel decode over a freshly built state. The
// returned slices alias st.bits, which Decode hands straight to the
// caller.
func (d *MultiSIMDDecoder) run(st *multiState, words []*LLRWord) ([][]byte, int, error) {
	nb := st.nb
	requested := len(words)
	st.words = append(st.words[:0], words...)
	for len(st.words) < nb {
		st.words = append(st.words, words[0])
	}
	words = st.words
	e := st.e
	k := st.code.K
	qpp := st.code.qpp
	tr := st.code.trellis
	ar := st.ar
	lay := st.lay

	d.Marks = d.Marks[:0]

	// Arrangement per block (the arrangement process is per-stream;
	// lane parallelism accelerates the recursions, not the packing).
	for b := 0; b < nb; b++ {
		core.WriteInterleaved(e.Mem, st.in[b].Src, words[b].Sys, words[b].P1, words[b].P2)
		st.in[b].TailSys = words[b].TailSys
		st.in[b].TailP1 = words[b].TailP1
		m := d.mark(e, "arrangement")
		ar.Arrange(e, st.in[b].Src, core.Dest{S: st.in[b].S, P1: st.in[b].P1, P2: st.in[b].P2}, k)
		d.setHi(m, e)
	}
	d.initConstants(st, tr)

	// One-time interleaved systematic gather, per block.
	m := d.mark(e, "interleave")
	for b := 0; b < nb; b++ {
		for i := 0; i < k; i++ {
			e.CopyI16(st.elemAddr(st.sPerm[b], i),
				lay.ElementAddr(st.in[b].S, core.ClusterS, qpp.Perm(i)))
		}
	}
	d.setHi(m, e)

	m = d.mark(e, "init")
	groups := (k + lay.GroupLanes - 1) / lay.GroupLanes
	for b := 0; b < nb; b++ {
		for g := 0; g < groups; g++ {
			e.StoreVec(st.vecAddr(st.la1[b], g, 0), st.zero)
		}
	}
	d.setHi(m, e)

	firstArrange := true
	rearrange := func() {
		if !d.RearrangePerHalfIter {
			return
		}
		if firstArrange {
			firstArrange = false
			return
		}
		mm := d.mark(e, "arrangement")
		for b := 0; b < nb; b++ {
			ar.Arrange(e, st.in[b].Src, core.Dest{S: st.in[b].S, P1: st.in[b].P1, P2: st.in[b].P2}, k)
		}
		d.setHi(mm, e)
	}

	resetConv(st.conv, st.itersB, requested)
	iters := 0
	for it := 0; it < d.MaxIters; it++ {
		iters++
		// Half 1: natural order, terminated.
		rearrange()
		for b := 0; b < nb; b++ {
			d.gamma(st, b, st.in[b].S, st.in[b].P1, core.ClusterP1, st.la1[b], k)
			d.tails(st, b)
		}
		d.alpha(st, k, true)
		d.betaExt(st, k, true)
		for b := 0; b < nb; b++ {
			d.extFin(st, b, st.in[b].S, st.la1[b], k)
		}
		m = d.mark(e, "interleave")
		for b := 0; b < nb; b++ {
			for i := 0; i < k; i++ {
				e.CopyI16(st.elemAddr(st.la2[b], i), st.elemAddr(st.ext[b], qpp.Perm(i)))
			}
		}
		d.setHi(m, e)

		// Half 2: interleaved order, unterminated.
		rearrange()
		for b := 0; b < nb; b++ {
			d.gamma(st, b, st.sPerm[b], st.in[b].P2, core.ClusterP2, st.la2[b], k)
		}
		d.alpha(st, k, false)
		d.betaExt(st, k, false)
		for b := 0; b < nb; b++ {
			d.extFin(st, b, st.sPerm[b], st.la2[b], k)
		}
		m = d.mark(e, "interleave")
		for b := 0; b < nb; b++ {
			for i := 0; i < k; i++ {
				e.CopyI16(st.elemAddr(st.la1[b], qpp.Perm(i)), st.elemAddr(st.ext[b], i))
				e.EmitScalarLoad("mov", st.elemAddr(st.dPost[b], i), 2)
			}
		}
		d.setHi(m, e)

		if st.extractBits(d.EarlyExit, it) {
			break
		}
	}
	stampIters(st.itersB, iters)
	return st.bits[:requested], iters, nil
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

// initConstants loads the zero register, the trellis mask constants and
// the lane-group masks, replicated across the nb lane groups.
func (d *MultiSIMDDecoder) initConstants(st *multiState, tr *Trellis) {
	e := st.e
	nb := st.nb
	lanes := e.W.Lanes16()
	st.zero = e.NewVec()
	e.PXor(st.zero, st.zero, st.zero)

	pattern := func(sel func(lane int) bool) (m, n *simd.Vec) {
		p := make([]int16, lanes)
		q := make([]int16, lanes)
		for b := 0; b < nb; b++ {
			for s := 0; s < NumStates; s++ {
				if sel(s) {
					p[b*NumStates+s] = -1
				} else {
					q[b*NumStates+s] = -1
				}
			}
		}
		m, n = e.NewVec(), e.NewVec()
		e.SetImm(m, p)
		e.SetImm(n, q)
		return m, n
	}
	st.maskAlphaU0, st.maskAlphaU0N = pattern(func(s int) bool { return tr.Parity[tr.Prev[s][0]][0] == 0 })
	st.maskAlphaU1, st.maskAlphaU1N = pattern(func(s int) bool { return tr.Parity[tr.Prev[s][1]][1] == 0 })
	st.maskCurU0, st.maskCurU0N = pattern(func(s int) bool { return tr.Parity[s][0] == 0 })
	st.maskCurU1, st.maskCurU1N = pattern(func(s int) bool { return tr.Parity[s][1] == 0 })

	st.blockMask = make([]*simd.Vec, nb)
	for b := 0; b < nb; b++ {
		pat := make([]int16, lanes)
		for s := 0; s < NumStates; s++ {
			pat[b*NumStates+s] = -1
		}
		st.blockMask[b] = e.NewVec()
		e.SetImm(st.blockMask[b], pat)
	}
	st.packT, st.packA = e.NewVec(), e.NewVec()
}

// gamma runs the vectorized per-block gamma phase: g0[k] = (sys+la)+par
// and g1[k] = (sys+la)-par, elementwise over one block's arranged arrays
// at the full register width (reading yparity at the rotate-mimic
// offsets) — the SIMD calculation stage whose inputs the arrangement
// feeds.
func (d *MultiSIMDDecoder) gamma(st *multiState, b int, sysBase, parBase int64, parC core.Cluster, laBase int64, k int) {
	e := st.e
	m := d.mark(e, "gamma")
	L := st.lay.GroupLanes
	groups := k / L
	s, p, la, t, g0, g1 := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	for g := 0; g < groups; g++ {
		e.LoadVec(s, st.vecAddr(sysBase, g, st.lay.Rot[core.ClusterS]))
		e.LoadVec(p, st.vecAddr(parBase, g, st.lay.Rot[parC]))
		e.LoadVec(la, st.vecAddr(laBase, g, 0))
		e.PAddSW(t, s, la)
		e.PAddSW(g0, t, p)
		e.PSubSW(g1, t, p)
		e.StoreVec(st.vecAddr(st.g0[b], g, 0), g0)
		e.StoreVec(st.vecAddr(st.g1[b], g, 0), g1)
	}
	for i := groups * L; i < k; i++ {
		e.ScalarGammaPoint(st.elemAddr(st.g0[b], i), st.elemAddr(st.g1[b], i),
			st.lay.ElementAddr(sysBase, core.ClusterS, i),
			st.lay.ElementAddr(parBase, parC, i),
			st.elemAddr(laBase, i))
	}
	e.ReleaseVec(s, p, la, t, g0, g1)
	d.setHi(m, e)
}

func (d *MultiSIMDDecoder) tails(st *multiState, b int) {
	e := st.e
	m := d.mark(e, "gamma")
	st.writeTailGammas(b)
	for i := 0; i < 3; i++ {
		e.EmitScalar("add", 2)
		e.EmitScalarStore("mov", st.tailG[b]+int64(4*i), 4)
	}
	d.setHi(m, e)
}

// writeTailGammas stores block b's three termination-step branch
// metrics (derived from the block's tail inputs alone).
func (st *multiState) writeTailGammas(b int) {
	w := st.in[b]
	for i := 0; i < 3; i++ {
		sa, pp := int32(w.TailSys[i]), int32(w.TailP1[i])
		st.e.Mem.WriteI16(st.tailG[b]+int64(4*i), sat16(sa+pp))
		st.e.Mem.WriteI16(st.tailG[b]+int64(4*i+2), sat16(sa-pp))
	}
}

func (st *multiState) gammaAddrs(b, k, blockK int) (int64, int64) {
	if k < blockK {
		return st.elemAddr(st.g0[b], k), st.elemAddr(st.g1[b], k)
	}
	t := int64(4 * (k - blockK))
	return st.tailG[b] + t, st.tailG[b] + t + 2
}

// packGammas assembles the per-block g0[k] (and g1[k]) branch-metric
// values into full-width registers: each block's value is broadcast from
// memory (independent loads), masked to its lane group and OR-combined —
// the step that amortizes the recursion over blocks without a serial
// partial-register merge chain.
func (d *MultiSIMDDecoder) packGammas(st *multiState, k, blockK int, bg0, bg1 *simd.Vec) {
	e := st.e
	for gi, dst := range [2]*simd.Vec{bg0, bg1} {
		for b := 0; b < st.nb; b++ {
			a0, a1 := st.gammaAddrs(b, k, blockK)
			addr := a0
			if gi == 1 {
				addr = a1
			}
			if st.nb == 1 {
				e.Broadcast16FromMem(dst, addr)
				continue
			}
			e.Broadcast16FromMem(st.packA, addr)
			if b == 0 {
				e.PAnd(dst, st.packA, st.blockMask[b])
			} else {
				e.PAnd(st.packT, st.packA, st.blockMask[b])
				e.POr(dst, dst, st.packT)
			}
		}
	}
}

// bmVecs builds the two branch-metric vectors for one trellis step from
// the packed g0/g1 registers: bm0 selects +g0/+g1 by the u=0 parity
// mask, bm1 selects -g1/-g0 by the u=1 parity mask.
func (st *multiState) bmVecs(bg0, bg1, ng0, ng1, t1, t2, bm0, bm1 *simd.Vec, m0, m0n, m1, m1n *simd.Vec) {
	e := st.e
	e.PAnd(t1, bg0, m0)
	e.PAnd(t2, bg1, m0n)
	e.POr(bm0, t1, t2)
	e.PAnd(t1, ng1, m1)
	e.PAnd(t2, ng0, m1n)
	e.POr(bm1, t1, t2)
}

// alpha runs the forward recursion for all blocks at once; steps is the
// longest trellis (terminated blocks include 3 tail steps; the shared
// loop runs them for every lane group, and unterminated halves ignore
// the tail lanes — tail steps only exist when terminated is true, which
// applies to every block simultaneously since they share K).
func (d *MultiSIMDDecoder) alpha(st *multiState, blockK int, terminated bool) {
	e := st.e
	m := d.mark(e, "alpha")
	steps := blockK
	if terminated {
		steps += 3
	}

	alpha := e.AcquireVec()
	e.SetImm(alpha, st.negInfInit)
	e.StoreVec(st.alpha, alpha)

	bg0, bg1 := e.AcquireVec(), e.AcquireVec()
	ng0, ng1 := e.AcquireVec(), e.AcquireVec()
	t1, t2, bm0, bm1 := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	a0, a1, c0, c1, norm := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()

	for k := 0; k < steps; k++ {
		d.packGammas(st, k, blockK, bg0, bg1)
		e.PSubSW(ng0, st.zero, bg0)
		e.PSubSW(ng1, st.zero, bg1)
		st.bmVecs(bg0, bg1, ng0, ng1, t1, t2, bm0, bm1,
			st.maskAlphaU0, st.maskAlphaU0N, st.maskAlphaU1, st.maskAlphaU1N)
		e.PermuteW(a0, alpha, st.prevIdx0)
		e.PermuteW(a1, alpha, st.prevIdx1)
		e.PAddSW(c0, a0, bm0)
		e.PAddSW(c1, a1, bm1)
		e.PMaxSW(alpha, c0, c1)
		// Normalize by state 0 (lane-0 broadcast + subtract), the same
		// rule the scalar reference applies.
		e.PermuteW(norm, alpha, st.lane0Idx)
		e.PSubSW(alpha, alpha, norm)
		e.StoreVec(st.alpha+int64(int(e.W))*int64(k+1), alpha)
	}
	e.ReleaseVec(alpha, bg0, bg1, ng0, ng1, t1, t2, bm0, bm1, a0, a1, c0, c1, norm)
	d.setHi(m, e)
}

// betaExt runs the backward recursion for all blocks and, fused with it,
// the posterior computation: at step k it has beta[k+1] in a register,
// computes the branch sums v_u = bm_u + beta[next], derives beta[k] =
// max_u v_u, and for information steps loads alpha[k] to form the
// posterior difference D[k] = max(alpha+v0) - max(alpha+v1).
func (d *MultiSIMDDecoder) betaExt(st *multiState, blockK int, terminated bool) {
	e := st.e
	m := d.mark(e, "beta+ext")
	steps := blockK
	beta := e.AcquireVec()
	if terminated {
		steps += 3
		e.SetImm(beta, st.negInfInit)
	} else {
		e.PXor(beta, beta, beta)
	}

	bg0, bg1 := e.AcquireVec(), e.AcquireVec()
	ng0, ng1 := e.AcquireVec(), e.AcquireVec()
	t1, t2, bm0, bm1 := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	b0, b1, v0, v1 := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	alpha, e0, e1, m0, m1, dv, norm := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()

	for k := steps - 1; k >= 0; k-- {
		d.packGammas(st, k, blockK, bg0, bg1)
		e.PSubSW(ng0, st.zero, bg0)
		e.PSubSW(ng1, st.zero, bg1)
		st.bmVecs(bg0, bg1, ng0, ng1, t1, t2, bm0, bm1,
			st.maskCurU0, st.maskCurU0N, st.maskCurU1, st.maskCurU1N)
		e.PermuteW(b0, beta, st.nextIdx0)
		e.PermuteW(b1, beta, st.nextIdx1)
		e.PAddSW(v0, b0, bm0)
		e.PAddSW(v1, b1, bm1)

		if k < blockK {
			e.LoadVec(alpha, st.alpha+int64(int(e.W))*int64(k))
			e.PAddSW(e0, alpha, v0)
			e.PAddSW(e1, alpha, v1)
			st.hmax(e, e0, m0, t1)
			st.hmax(e, e1, m1, t1)
			e.PSubSW(dv, m0, m1)
			for b := 0; b < st.nb; b++ {
				e.PExtrWToMem(st.elemAddr(st.dPost[b], k), dv, b*NumStates)
			}
		}

		e.PMaxSW(beta, v0, v1)
		e.PermuteW(norm, beta, st.lane0Idx)
		e.PSubSW(beta, beta, norm)
	}
	e.ReleaseVec(beta, bg0, bg1, ng0, ng1, t1, t2, bm0, bm1, b0, b1, v0, v1,
		alpha, e0, e1, m0, m1, dv, norm)
	d.setHi(m, e)
}

// extFin converts one block's stored posteriors into clamped extrinsics:
// ext[k] = clamp(D[k]>>1 - (sys[k]+la[k])), vectorized at full width.
func (d *MultiSIMDDecoder) extFin(st *multiState, b int, sysBase, laBase int64, k int) {
	e := st.e
	m := d.mark(e, "ext")
	L := st.lay.GroupLanes
	groups := k / L
	dvec, s, la, t, half, lim, nlim := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	e.Broadcast16(lim, extClamp)
	e.Broadcast16(nlim, -extClamp)
	for g := 0; g < groups; g++ {
		e.LoadVec(dvec, st.vecAddr(st.dPost[b], g, 0))
		e.LoadVec(s, st.vecAddr(sysBase, g, st.lay.Rot[core.ClusterS]))
		e.LoadVec(la, st.vecAddr(laBase, g, 0))
		e.PAddSW(t, s, la)
		e.PSraW(half, dvec, 1)
		e.PSubSW(half, half, t)
		e.PMinSW(half, half, lim)
		e.PMaxSW(half, half, nlim)
		e.StoreVec(st.vecAddr(st.ext[b], g, 0), half)
	}
	for i := groups * L; i < k; i++ {
		e.ScalarExtPoint(st.elemAddr(st.ext[b], i),
			st.lay.ElementAddr(sysBase, core.ClusterS, i),
			st.elemAddr(laBase, i),
			st.elemAddr(st.dPost[b], i), extClamp)
	}
	e.ReleaseVec(dvec, s, la, t, half, lim, nlim)
	d.setHi(m, e)
}
