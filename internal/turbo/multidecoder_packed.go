package turbo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"vransim/internal/core"
	"vransim/internal/simd"
)

// This file is the cross-block SoA-packed decode path, the one emulated
// SIMD decoder: BatchDecoder serves its compiled program (emit.go writes
// the same op stream from the plan) and MultiSIMDDecoder.Decode traces it
// for the paper's figures. The nb
// in-flight blocks share every register: block b's eight trellis states
// occupy lanes 8b..8b+7 of the alpha/beta recursions, and every K-indexed
// phase — arrangement, gamma, extrinsic finalize, the QPP interleave,
// hard-decision extraction — sees the blocks packed at the *element*
// level: element i of blocks 0..nb-1 occupy adjacent positions of one
// shared stream (packed index ip = i*nb+b), so each such phase runs once
// per iteration over nb*K elements. Since every 3GPP block size is a
// multiple of 8 and nb*8 = L, the packed arrays have no scalar tails at
// any width — the interleave is pure vector gather programs and the hard
// decisions one vector sign-extract sweep.
//
// The recursions read their branch metrics from a quad layout written
// by the packed gamma: one register group per trellis step holding
// [g0, g1, -g0, -g1] per block in lanes b*4+v (the upper half of the
// register is zero). One load plus two constant-table permutes give both
// branch-metric vectors of a step, with no per-block broadcast, mask or
// merge — and give the replay compiler a fixed 11-op step shape it emits
// as a single-pass op (program.Emitter.AlphaStep and BetaStep).

// regionLayout is where the packed working arrays lie: byte offsets from
// the start of a plan's state region, which are a state's addresses too,
// since a state's engine has the region for its whole memory.
type regionLayout struct {
	// Packed interleaved input and its arranged clusters.
	src    int64
	s      int64
	p1, p2 int64

	// Packed per-element working arrays (arranged layout, rot 0).
	sPerm int64
	la1   int64
	la2   int64
	ext   int64
	dPost int64
	hdec  int64

	// quad is the branch-metric quad array: one full-width group per
	// trellis step (k+3 steps incl. tails), lane b*4+v holding block
	// b's [g0, g1, -g0, -g1]; lanes >= 4*nb are zero.
	quad int64
	// alpha is the recursion history, one group per step.
	alpha int64
}

// packedPlan is everything about a packed decode that is a pure function
// of (K, width, strategy): the code, the shape and size of the state
// region, the hard-decision map and, once an interpreted decode needs
// them, the index tables. A plan no decoder interprets is immutable once
// newPackedPlan returns, so one serves every decoder of a process that
// decodes that triple (plancache.go), each over a region of its own, and
// each replaying its program. A plan that is interpreted is private to the
// one decoder that built it, which adds the tables on its first
// interpreted decode.
type packedPlan struct {
	code *Code
	w    simd.Width
	lay  core.Layout
	nb   int // blocks in flight
	n    int // nb*K packed elements

	// regionLayout is the layout relative to the start of the state
	// region, size the bytes a region holds, and arrBytes those of one
	// packed array. A region starts 64-byte aligned, which keeps every
	// array and every trellis group on the alignment the offsets here were
	// laid out at.
	regionLayout
	size     int64
	arrBytes int

	// hdecAt[b*K+p] is the offset in the hdec array of the hard decision
	// for bit p of block b, so the extraction walks each block's bits in
	// order with the interleaver and the layout already resolved.
	hdecAt []int32

	// interp holds the tables only the interpreter reads, built on the
	// first interpreted decode of the plan (interpreterTables): a plan
	// whose decoders all replay its program never holds them.
	interp *interpTables
}

// interpTables are the index tables of a packed decode that only the
// interpreter reads: the replay program has them compiled in. They are a
// pure function of the plan, and immutable once built.
type interpTables struct {
	// Recursion permute tables (lanetables.go).
	laneTables
	// Quad-read tables: bm0/bm1 of the alpha and beta recursions as one
	// permute each over the step's quad group.
	bmA0, bmA1 []int
	bmB0, bmB1 []int
	// Quad-write scatter tables: for step offset si within a source
	// group and variant v, where each block's value lands in the quad
	// group (dst lane b*4+v from source lane LanePos[si*nb+b]).
	scat [8][4][]int
	// Interleave gather programs (per destination group, the list of
	// contributing source groups with their permute tables).
	gSPerm [][]gatherSrc[int]
	gLa2   [][]gatherSrc[int]
	gLa1   [][]gatherSrc[int]
}

// packedState is one decoder's mutable half of a packed decode: a state
// region, its engine's whole memory, laid out as the plan says, the
// constant register the interpreter keeps, and the Go-side buffers. Building one
// allocates and computes nothing that depends on K beyond those buffers,
// and it is reused for an unbounded stream of decodes with no steady-state
// allocation.
type packedState struct {
	*packedPlan
	// interpTables is nil until a decode is interpreted on this state: the
	// plan's own (interpreterTables).
	*interpTables

	e  *simd.Engine
	ar core.Arranger

	tailSys [][3]int16
	tailP1  [][3]int16

	// zero is the interpreter's constant register (nil until a decode is
	// interpreted on this state).
	zero *simd.Vec

	// hdecPrev is the hdec array as the previous iteration's extraction
	// saw it.
	hdecPrev []byte

	// Go-side reusable buffers: hard decisions, per-block convergence
	// masks and iterations-to-converge, and the padding scratch.
	bits   [][]byte
	conv   []bool
	itersB []int
	words  []*LLRWord
}

// gatherSrc is one source group's contribution to a gather destination
// group: load the source group, permute by Idx, OR into the
// accumulator. Idx is pointer-stable for the tables' lifetime (the
// emitter interns permute tables by the slice's backing array).
type gatherSrc[T int | int32] struct {
	Group int
	Idx   []T
}

func (pl *packedPlan) elemAddr(base int64, ip int) int64 {
	g, jj := ip/pl.lay.GroupLanes, ip%pl.lay.GroupLanes
	return base + 2*int64(g*pl.lay.StrideLanes+pl.lay.LanePos[jj])
}

func (pl *packedPlan) vecAddr(base int64, g, rot int) int64 {
	return base + 2*int64(g*pl.lay.StrideLanes+rot)
}

func (st *packedState) quadAddr(step int) int64 {
	return st.quad + int64(step)*int64(int(st.w))
}

func (st *packedState) alphaAddr(step int) int64 {
	return st.alpha + int64(step)*int64(int(st.w))
}

// newPackedPlan lays out the state region and builds the tables for nb
// blocks of code c at width w under layout lay.
func newPackedPlan(c *Code, lay core.Layout, w simd.Width, nb int) *packedPlan {
	k := c.K
	n := nb * k
	pl := &packedPlan{code: c, w: w, lay: lay, nb: nb, n: n, arrBytes: lay.DstBytes(n)}
	// Every array starts on a 64-byte boundary of the region, as
	// consecutive simd.Memory.Alloc(_, 64) calls from its start would
	// place them.
	alloc := func(bytes int) int64 {
		base := (pl.size + 63) &^ 63
		pl.size = base + int64(bytes)
		return base
	}
	pl.src = alloc(core.InterleavedBytes(n))
	for _, a := range []*int64{&pl.s, &pl.p1, &pl.p2, &pl.sPerm, &pl.la1, &pl.la2, &pl.ext, &pl.dPost, &pl.hdec} {
		*a = alloc(pl.arrBytes)
	}
	pl.quad = alloc(int(w) * (k + 4))
	pl.alpha = alloc(int(w) * (k + 4))

	pl.hdecAt = make([]int32, nb*k)
	for b := 0; b < nb; b++ {
		for i := 0; i < k; i++ {
			pl.hdecAt[b*k+c.qpp.Perm(i)] = int32(pl.elemAddr(0, i*nb+b))
		}
	}
	return pl
}

// newPackedState builds a decoder's state for plan pl over e's memory,
// which must hold at least pl.size bytes: the state region, from address 0.
func newPackedState(e *simd.Engine, ar core.Arranger, pl *packedPlan) *packedState {
	st := &packedState{packedPlan: pl, e: e, ar: ar}
	st.tailSys = make([][3]int16, pl.nb)
	st.tailP1 = make([][3]int16, pl.nb)
	st.bits = make([][]byte, pl.nb)
	bits := make([]byte, pl.nb*pl.code.K)
	for b := range st.bits {
		st.bits[b] = bits[b*pl.code.K:][:pl.code.K:pl.code.K]
	}
	st.hdecPrev = make([]byte, pl.arrBytes)
	st.conv = make([]bool, pl.nb)
	st.itersB = make([]int, pl.nb)
	st.words = make([]*LLRWord, 0, pl.nb)
	return st
}

// interpreterTables returns the plan's interpreter tables, building them
// the first time its decoder asks.
func (pl *packedPlan) interpreterTables() *interpTables {
	if pl.interp == nil {
		pl.interp = pl.newInterpTables()
	}
	return pl.interp
}

// newInterpTables builds the lane and quad tables and the gather programs:
// pure index arithmetic over (trellis, layout, interleaver), no engine.
func (pl *packedPlan) newInterpTables() *interpTables {
	it := &interpTables{laneTables: newLaneTables(pl.code.trellis, pl.w, pl.nb)}
	it.bmA0, it.bmA1, it.bmB0, it.bmB1 = pl.quadTables()
	it.scat = pl.scatterTables()
	qpp := pl.code.qpp
	it.gSPerm = buildGather[int](pl, qpp.fwd)
	it.gLa2 = it.gSPerm // same permutation, different arrays
	it.gLa1 = buildGather[int](pl, qpp.inv)
	return it
}

// quadTables returns the quad-read tables: bm0/bm1 of the alpha and beta
// recursions as one permute each over the step's quad group.
func (pl *packedPlan) quadTables() (bmA0, bmA1, bmB0, bmB1 []int) {
	tr := pl.code.trellis
	nb := pl.nb
	lanes := pl.w.Lanes16()
	// Alpha's bm0 is g0 where Parity[Prev[s][0]][0]==0 else g1, and its
	// bm1 is -g1 where Parity[Prev[s][1]][1]==0 else -g0; the beta forms
	// test Parity[s][u] instead. In the quad layout those four choices are
	// lanes b*4+{0,1,3,2} of the step's group, so each vector is one
	// permute.
	quadSel := func(v0 func(s int) int, v1 func(s int) int) (t0, t1 []int) {
		t0 = make([]int, lanes)
		t1 = make([]int, lanes)
		for b := 0; b < nb; b++ {
			for s := 0; s < NumStates; s++ {
				t0[b*NumStates+s] = b*4 + v0(s)
				t1[b*NumStates+s] = b*4 + v1(s)
			}
		}
		return t0, t1
	}
	bmA0, bmA1 = quadSel(
		func(s int) int {
			if tr.Parity[tr.Prev[s][0]][0] == 0 {
				return 0
			}
			return 1
		},
		func(s int) int {
			if tr.Parity[tr.Prev[s][1]][1] == 0 {
				return 3
			}
			return 2
		})
	bmB0, bmB1 = quadSel(
		func(s int) int {
			if tr.Parity[s][0] == 0 {
				return 0
			}
			return 1
		},
		func(s int) int {
			if tr.Parity[s][1] == 0 {
				return 3
			}
			return 2
		})
	return bmA0, bmA1, bmB0, bmB1
}

// scatterTables returns the quad-write scatter tables: source registers
// hold the arranged aligned view (read lane l = packed element with
// LanePos == l), so variant v of block b at step offset si permutes source
// lane LanePos[si*nb+b] into dst lane b*4+v; every other lane reads -1 (out
// of range -> 0), which zeroes the upper half deterministically.
func (pl *packedPlan) scatterTables() (scat [8][4][]int) {
	for si := 0; si < 8; si++ {
		for v := 0; v < 4; v++ {
			t := make([]int, pl.w.Lanes16())
			for j := range t {
				t[j] = -1
			}
			for b := 0; b < pl.nb; b++ {
				t[b*4+v] = pl.lay.LanePos[(si*pl.nb+b)%pl.lay.GroupLanes]
			}
			scat[si][v] = t
		}
	}
	return scat
}

// buildGather compiles dst[i*nb+b] = src[perm[i]*nb+b] into per-dst-group
// source lists: for each destination group, each contributing source
// group appears once with a permute table mapping its aligned-view
// lanes to the destination lanes it feeds (-1 elsewhere). Every packed
// element has exactly one source, so the OR-merge of the contributions
// is exact. The interpreter permutes by []int tables, a compiled program
// holds []int32 ones. A plan's hundreds to thousands of tables hold a few
// dozen distinct ones, so each distinct table is one slice, which every
// source with that table shares: the emitter, which interns tables by
// slice, sees the same few.
func buildGather[T int | int32](pl *packedPlan, perm []int) [][]gatherSrc[T] {
	// L and nb are powers of two (nb·8 = L), so packed indices split by
	// shifts.
	L, nb := pl.lay.GroupLanes, pl.nb
	lShift, nbShift := bits.TrailingZeros(uint(L)), bits.TrailingZeros(uint(nb))
	groups := pl.n >> lShift
	out := make([][]gatherSrc[T], groups)
	// Distinct tables by a digest of their lanes, each digest's tables in
	// a list that is one long but for a collision.
	distinct := make(map[uint64][][]T)
	// A group's sources are carved from blocks of a few hundred.
	var block, srcs []gatherSrc[T]
	var idx [][maxGatherLanes]T
	var blank [maxGatherLanes]T
	for j := range blank {
		blank[j] = -1
	}
	for gd := range out {
		srcs, idx = srcs[:0], idx[:0]
		for jj := 0; jj < L; jj++ {
			ip := gd<<lShift + jj
			sp := perm[ip>>nbShift]<<nbShift + ip&(nb-1)
			g := 0
			for g < len(srcs) && srcs[g].Group != sp>>lShift {
				g++
			}
			if g == len(srcs) {
				srcs = append(srcs, gatherSrc[T]{Group: sp >> lShift})
				idx = append(idx, blank)
			}
			idx[g][pl.lay.LanePos[jj]] = T(pl.lay.LanePos[sp&(L-1)])
		}
		for g := range srcs {
			lanes := idx[g][:L]
			h := uint64(0)
			for _, x := range lanes {
				h = (h ^ uint64(x)) * 0x9e3779b97f4a7c15
			}
			i := slices.IndexFunc(distinct[h], func(t []T) bool { return slices.Equal(t, lanes) })
			if i < 0 {
				i = len(distinct[h])
				distinct[h] = append(distinct[h], slices.Clone(lanes))
			}
			srcs[g].Idx = distinct[h][i]
		}
		if cap(block)-len(block) < len(srcs) {
			block = make([]gatherSrc[T], 0, max(len(srcs), 256))
		}
		n := len(block)
		block = append(block, srcs...)
		out[gd] = block[n:len(block):len(block)]
	}
	return out
}

// maxGatherLanes is the lanes of the widest register.
const maxGatherLanes = 32

// gather emits one vectorized gather program: per destination group,
// load each contributing source group (aligned view at rot srcRot),
// permute its lanes into place and OR-merge, then store the assembled
// group. An interleave direction is vector ops only: no scalar element
// copy.
func (st *packedState) gather(prog [][]gatherSrc[int], dstBase, srcBase int64, srcRot int) {
	e := st.e
	src, acc, tmp := e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	for gd, srcs := range prog {
		for i, gs := range srcs {
			e.LoadVec(src, st.vecAddr(srcBase, gs.Group, srcRot))
			if i == 0 {
				e.PermuteW(acc, src, gs.Idx)
				continue
			}
			e.PermuteW(tmp, src, gs.Idx)
			e.POr(acc, acc, tmp)
		}
		e.StoreVec(st.vecAddr(dstBase, gd, 0), acc)
	}
	e.ReleaseVec(src, acc, tmp)
}

// writeTailQuads stores the three termination-step quad groups. The
// values depend only on the blocks' tail inputs, not the iteration, so
// both drivers (interpreted and replay) write them once per decode, up
// front; the first-half gamma only writes groups 0..k-1, so they
// persist, and the unterminated second half never reads them.
func (st *packedState) writeTailQuads() {
	wb := int(st.w)
	for i := 0; i < 3; i++ {
		// Zero the whole group first (upper lanes stay deterministic).
		q := st.e.Mem.Bytes(st.quadAddr(st.code.K+i), wb)
		clear(q)
		for b := 0; b < st.nb; b++ {
			sa, pp := int32(st.tailSys[b][i]), int32(st.tailP1[b][i])
			g0 := sat16(sa + pp)
			g1 := sat16(sa - pp)
			o := q[8*b:][:8]
			binary.LittleEndian.PutUint16(o, uint16(g0))
			binary.LittleEndian.PutUint16(o[2:], uint16(g1))
			binary.LittleEndian.PutUint16(o[4:], uint16(sat16(-int32(g0))))
			binary.LittleEndian.PutUint16(o[6:], uint16(sat16(-int32(g1))))
		}
	}
}

// gammaPacked computes branch metrics for all blocks at once and
// scatters them into the quad layout: per source group, one elementwise
// g0/g1 (+ negations) over nb*GroupLanes/L packed steps, then four
// permutes + three ORs + one store per step's quad group.
func (d *MultiSIMDDecoder) gammaPacked(st *packedState, sysBase int64, sysRot int, parBase int64, parC core.Cluster, laBase int64) {
	e := st.e
	m := d.mark(e, "gamma")
	L := st.lay.GroupLanes
	groups := st.n / L
	stepsPerGroup := L / st.nb
	s, p, la, t := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	g0, g1, n0, n1 := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	acc, tmp := e.AcquireVec(), e.AcquireVec()
	for g := 0; g < groups; g++ {
		e.LoadVec(s, st.vecAddr(sysBase, g, sysRot))
		e.LoadVec(p, st.vecAddr(parBase, g, st.lay.Rot[parC]))
		e.LoadVec(la, st.vecAddr(laBase, g, 0))
		e.PAddSW(t, s, la)
		e.PAddSW(g0, t, p)
		e.PSubSW(g1, t, p)
		e.PSubSW(n0, st.zero, g0)
		e.PSubSW(n1, st.zero, g1)
		for si := 0; si < stepsPerGroup; si++ {
			e.PermuteW(acc, g0, st.scat[si][0])
			e.PermuteW(tmp, g1, st.scat[si][1])
			e.POr(acc, acc, tmp)
			e.PermuteW(tmp, n0, st.scat[si][2])
			e.POr(acc, acc, tmp)
			e.PermuteW(tmp, n1, st.scat[si][3])
			e.POr(acc, acc, tmp)
			e.StoreVec(st.quadAddr(g*stepsPerGroup+si), acc)
		}
	}
	e.ReleaseVec(s, p, la, t, g0, g1, n0, n1, acc, tmp)
	d.setHi(m, e)
}

// alphaPacked is the forward recursion over the quad layout: one load
// and two constant permutes produce both branch-metric vectors — the
// fixed 11-op step the replay compiler fuses into a single pass.
func (d *MultiSIMDDecoder) alphaPacked(st *packedState, blockK int, terminated bool) {
	e := st.e
	m := d.mark(e, "alpha")
	steps := blockK
	if terminated {
		steps += 3
	}
	alpha := e.AcquireVec()
	e.SetImm(alpha, st.negInfInit)
	e.StoreVec(st.alpha, alpha)

	quad, bm0, bm1 := e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	a0, a1, c0, c1, norm := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	for j := 0; j < steps; j++ {
		e.LoadVec(quad, st.quadAddr(j))
		e.PermuteW(bm0, quad, st.bmA0)
		e.PermuteW(bm1, quad, st.bmA1)
		e.PermuteW(a0, alpha, st.prevIdx0)
		e.PermuteW(a1, alpha, st.prevIdx1)
		e.PAddSW(c0, a0, bm0)
		e.PAddSW(c1, a1, bm1)
		e.PMaxSW(alpha, c0, c1)
		e.PermuteW(norm, alpha, st.lane0Idx)
		e.PSubSW(alpha, alpha, norm)
		e.StoreVec(st.alphaAddr(j+1), alpha)
	}
	e.ReleaseVec(alpha, quad, bm0, bm1, a0, a1, c0, c1, norm)
	d.setHi(m, e)
}

// betaExtPacked is the fused backward recursion + posterior extraction
// over the quad layout.
func (d *MultiSIMDDecoder) betaExtPacked(st *packedState, blockK int, terminated bool) {
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
	quad, bm0, bm1 := e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	b0, b1, v0, v1 := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	alpha, e0, e1, m0, m1, dv, tmp, norm := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	for j := steps - 1; j >= 0; j-- {
		e.LoadVec(quad, st.quadAddr(j))
		e.PermuteW(bm0, quad, st.bmB0)
		e.PermuteW(bm1, quad, st.bmB1)
		e.PermuteW(b0, beta, st.nextIdx0)
		e.PermuteW(b1, beta, st.nextIdx1)
		e.PAddSW(v0, b0, bm0)
		e.PAddSW(v1, b1, bm1)
		if j < blockK {
			e.LoadVec(alpha, st.alphaAddr(j))
			e.PAddSW(e0, alpha, v0)
			e.PAddSW(e1, alpha, v1)
			st.hmax(e, e0, m0, tmp)
			st.hmax(e, e1, m1, tmp)
			e.PSubSW(dv, m0, m1)
			for b := 0; b < st.nb; b++ {
				e.PExtrWToMem(st.elemAddr(st.dPost, j*st.nb+b), dv, b*NumStates)
			}
		}
		e.PMaxSW(beta, v0, v1)
		e.PermuteW(norm, beta, st.lane0Idx)
		e.PSubSW(beta, beta, norm)
	}
	e.ReleaseVec(beta, quad, bm0, bm1, b0, b1, v0, v1, alpha, e0, e1, m0, m1, dv, tmp, norm)
	d.setHi(m, e)
}

// extFinPacked finalizes the extrinsic for all blocks in one sweep over
// the packed arrays: ext = clamp(D>>1 - (sys+la)), with no scalar tail.
func (d *MultiSIMDDecoder) extFinPacked(st *packedState, sysBase int64, sysRot int, laBase int64) {
	e := st.e
	m := d.mark(e, "ext")
	L := st.lay.GroupLanes
	groups := st.n / L
	dvec, s, la, t, half, lim, nlim := e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec(), e.AcquireVec()
	e.Broadcast16(lim, extClamp)
	e.Broadcast16(nlim, -extClamp)
	for g := 0; g < groups; g++ {
		e.LoadVec(dvec, st.vecAddr(st.dPost, g, 0))
		e.LoadVec(s, st.vecAddr(sysBase, g, sysRot))
		e.LoadVec(la, st.vecAddr(laBase, g, 0))
		e.PAddSW(t, s, la)
		e.PSraW(half, dvec, 1)
		e.PSubSW(half, half, t)
		e.PMinSW(half, half, lim)
		e.PMaxSW(half, half, nlim)
		e.StoreVec(st.vecAddr(st.ext, g, 0), half)
	}
	e.ReleaseVec(dvec, s, la, t, half, lim, nlim)
	d.setHi(m, e)
}

// hdecPacked extracts hard decisions by vector compare: an arithmetic
// right shift by 15 turns each posterior into an all-ones (bit 1) or
// all-zeros (bit 0) lane, stored packed for the Go-side bit scan.
func (d *MultiSIMDDecoder) hdecPacked(st *packedState) {
	e := st.e
	m := d.mark(e, "interleave")
	groups := st.n / st.lay.GroupLanes
	v, h := e.AcquireVec(), e.AcquireVec()
	for g := 0; g < groups; g++ {
		e.LoadVec(v, st.vecAddr(st.dPost, g, 0))
		e.PSraW(h, v, 15)
		e.StoreVec(st.vecAddr(st.hdec, g, 0), h)
	}
	e.ReleaseVec(v, h)
	d.setHi(m, e)
}

// arrangePacked arranges the packed interleaved input into its S, P1 and
// P2 clusters under an "arrangement" mark.
func (d *MultiSIMDDecoder) arrangePacked(st *packedState) {
	m := d.mark(st.e, "arrangement")
	st.ar.Arrange(st.e, st.src, core.Dest{S: st.s, P1: st.p1, P2: st.p2}, st.n)
	d.setHi(m, st.e)
}

// iterPacked emits decode iteration it's engine ops. With
// RearrangePerHalfIter off the stream is identical for every iteration
// and independent of the convergence masks (frozen blocks are skipped
// only in the Go-side extraction), which is what lets one compiled
// SegSteady serve every iteration. With it on, each half re-arranges the
// input first, but for the first half of iteration 0, which runPacked's
// arrangement has just fed; the arrays it rewrites are only read, so the
// bits do not change.
func (d *MultiSIMDDecoder) iterPacked(st *packedState, it int) {
	// Half 1: natural order, terminated.
	if d.RearrangePerHalfIter && it > 0 {
		d.arrangePacked(st)
	}
	d.gammaPacked(st, st.s, st.lay.Rot[core.ClusterS], st.p1, core.ClusterP1, st.la1)
	d.alphaPacked(st, st.code.K, true)
	d.betaExtPacked(st, st.code.K, true)
	d.extFinPacked(st, st.s, st.lay.Rot[core.ClusterS], st.la1)
	m := d.mark(st.e, "interleave")
	st.gather(st.gLa2, st.la2, st.ext, 0)
	d.setHi(m, st.e)

	// Half 2: interleaved order, unterminated.
	if d.RearrangePerHalfIter {
		d.arrangePacked(st)
	}
	d.gammaPacked(st, st.sPerm, 0, st.p2, core.ClusterP2, st.la2)
	d.alphaPacked(st, st.code.K, false)
	d.betaExtPacked(st, st.code.K, false)
	d.extFinPacked(st, st.sPerm, 0, st.la2)
	m = d.mark(st.e, "interleave")
	st.gather(st.gLa1, st.la1, st.ext, 0)
	d.setHi(m, st.e)
	d.hdecPacked(st)
}

// loadWordsPacked pads the batch, copies the packed interleaved input
// in and records the tail LLRs. Shared by the interpreted and replay
// drivers (plain memory writes, no ops).
func (st *packedState) loadWordsPacked(words []*LLRWord) error {
	if len(words) < 1 || len(words) > st.nb {
		return fmt.Errorf("turbo: got %d blocks, state decodes 1..%d at once", len(words), st.nb)
	}
	st.words = append(st.words[:0], words...)
	for len(st.words) < st.nb {
		st.words = append(st.words, words[0])
	}
	for b, w := range st.words {
		core.WriteInterleavedPacked(st.e.Mem, st.src, b, st.nb, w.Sys, w.P1, w.P2)
		st.tailSys[b] = w.TailSys
		st.tailP1[b] = w.TailP1
	}
	return nil
}

// extractPacked scans the hard-decision array for every still-live
// block, updating bits in place and tracking a dirty flag per block — an
// O(k) re-compare of the bits folded into the extraction itself. A block whose iteration left its bits unchanged
// (it > 0) freezes: its bits stop updating, exactly like the scalar
// reference exiting that block's loop. Returns true when every real
// block has frozen.
func (st *packedState) extractPacked(earlyExit bool, it int) bool {
	k := st.code.K
	hdec := st.e.Mem.Bytes(st.hdec, len(st.hdecPrev))
	if earlyExit && it > 0 && bytes.Equal(hdec, st.hdecPrev) {
		// No decision of any block moved, so none of a live block did (its
		// bits are the previous iteration's decisions): every live block
		// freezes here, and the scan that would find that out — the last
		// one of almost every decode — is not made.
		for b := range st.conv {
			if !st.conv[b] {
				st.conv[b] = true
				st.itersB[b] = it + 1
			}
		}
		return true
	}
	copy(st.hdecPrev, hdec)
	done := true
	for b := 0; b < st.nb; b++ {
		if st.conv[b] {
			continue
		}
		var dirty byte
		bits := st.bits[b]
		for p, at := range st.hdecAt[b*k:][:k] {
			// A hard decision is 0 or -1 (psraw 15): its low byte says which.
			v := hdec[at] & 1
			dirty |= bits[p] ^ v
			bits[p] = v
		}
		if earlyExit && it > 0 && dirty == 0 {
			st.conv[b] = true
			st.itersB[b] = it + 1
		} else {
			done = false
		}
	}
	return done
}

// runPacked executes one packed decode over a prepared state: the
// interpreted counterpart of the compiled replay driver. emit.go writes
// its op stream from the plan; a change here is a change there, and the
// emitted-decode differential (TestEmittedDecodesLikeInterpreter) fails
// until both agree.
func (d *MultiSIMDDecoder) runPacked(st *packedState, words []*LLRWord) ([][]byte, int, error) {
	if st.code.K != d.Code.K {
		return nil, 0, fmt.Errorf("turbo: state built for K=%d, decoder configured for K=%d", st.code.K, d.Code.K)
	}
	requested := len(words)
	if err := st.loadWordsPacked(words); err != nil {
		return nil, 0, err
	}
	if st.interpTables == nil {
		st.interpTables = st.interpreterTables()
	}
	e := st.e
	d.Marks = d.Marks[:0]

	d.arrangePacked(st)
	if st.zero == nil {
		// The one constant register, once per state; a program makes it in
		// SegFirst, so a replay re-establishes it every decode.
		st.zero = e.NewVec()
		e.PXor(st.zero, st.zero, st.zero)
	}
	st.writeTailQuads()

	// One-time interleaved systematic gather and la1 zero-init.
	m := d.mark(e, "interleave")
	st.gather(st.gSPerm, st.sPerm, st.s, st.lay.Rot[core.ClusterS])
	d.setHi(m, e)
	m = d.mark(e, "init")
	groups := st.n / st.lay.GroupLanes
	for g := 0; g < groups; g++ {
		e.StoreVec(st.vecAddr(st.la1, g, 0), st.zero)
	}
	d.setHi(m, e)

	resetConv(st.conv, st.itersB, requested)
	iters := 0
	for it := 0; it < d.MaxIters; it++ {
		iters++
		d.iterPacked(st, it)
		if st.extractPacked(d.EarlyExit, it) {
			break
		}
	}
	stampIters(st.itersB, iters)
	return st.bits[:requested], iters, nil
}
