package turbo

import (
	"fmt"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// This file is the compiler of the packed decode. emitProgram walks the
// plan phase by phase — the prefix runPacked runs once (arrangement,
// systematic gather, la1 clear, zero register), which is SegFirst, and
// iterPacked's iteration, which is SegSteady — and names each op the
// interpreter runs, its fused phase steps whole, to a program.Emitter. No
// engine runs, no word is decoded and no interpreter table exists: a
// program is index arithmetic over the plan. Each run over the trellis
// steps or the packed groups is described once, as an Emitter.Loop whose
// body emits one trip: the emitter emits trips 0, 1 and the last and
// writes them as a loop of the whole count, so a compile's work and memory
// do not grow with K but for the QPP gathers, which are not affine and are
// emitted group by group.
//
// The walk names the ops in the interpreter's order, over registers
// numbered as the engine's free list hands them out (regPool), so a
// program is the interpreter's decode op for op. What holds it there is
// the emitted-decode differential (TestEmittedDecodesLikeInterpreter): the
// state region a replay leaves must be the interpreter's, byte for byte,
// at every block size and width.

// Emits reports whether plans of strategy s compile to a program, so that
// a decoder of s replays rather than interprets: the paper's two
// arrangements, the original extract and APCM with the rotate-mimic. A
// plan of any other strategy has no program.
func Emits(s core.Strategy) bool { return s == core.StrategyAPCM || s == core.StrategyExtract }

// emitProgram compiles plan pl of strategy s, or says that the emitter
// does not cover s.
func emitProgram(pl *packedPlan, s core.Strategy) (*program.Program, error) {
	if !Emits(s) {
		return nil, fmt.Errorf("turbo: no program is emitted for strategy %v", s)
	}
	pe := newPlanEmitter(pl, s)
	return program.Emit(pl.w, pe.walk)
}

// planEmitter holds what a walk over one plan reads: the plan, and its
// index tables in the form a program keeps them. Every table is one slice
// for as long as the walk runs, because the emitter interns tables by
// identity: one table named twice must be one slice.
type planEmitter struct {
	pl  *packedPlan
	s   core.Strategy
	rel regionLayout
	wb  int64 // register width in bytes

	prevIdx0, prevIdx1, nextIdx0, nextIdx1, lane0Idx []int32
	hmaxIdx                                          [3][]int32
	negInfInit                                       []int16
	bmA0, bmA1, bmB0, bmB1                           []int32
	scat                                             [8][4][]int32
	gSPerm, gLa1                                     [][]gatherSrc[int32]

	// Per walk: the emitter, the register pool and the zero register.
	e    *program.Emitter
	pool regPool
	zero program.Reg
}

func newPlanEmitter(pl *packedPlan, s core.Strategy) *planEmitter {
	lt := newLaneTables(pl.code.trellis, pl.w, pl.nb)
	pe := &planEmitter{
		pl: pl, s: s, rel: pl.regionLayout, wb: int64(pl.w),
		prevIdx0: i32(lt.prevIdx0), prevIdx1: i32(lt.prevIdx1),
		nextIdx0: i32(lt.nextIdx0), nextIdx1: i32(lt.nextIdx1),
		lane0Idx:   i32(lt.lane0Idx),
		hmaxIdx:    [3][]int32{i32(lt.hmaxIdx[0]), i32(lt.hmaxIdx[1]), i32(lt.hmaxIdx[2])},
		negInfInit: lt.negInfInit,
	}
	bmA0, bmA1, bmB0, bmB1 := pl.quadTables()
	pe.bmA0, pe.bmA1, pe.bmB0, pe.bmB1 = i32(bmA0), i32(bmA1), i32(bmB0), i32(bmB1)
	for si, vs := range pl.scatterTables() {
		for v, t := range vs {
			pe.scat[si][v] = i32(t)
		}
	}
	pe.gSPerm = buildGather[int32](pl, pl.code.qpp.fwd)
	pe.gLa1 = buildGather[int32](pl, pl.code.qpp.inv)
	return pe
}

func i32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// regPool numbers registers as the interpreter's engine hands them out:
// a register is numbered when simd.Engine.AcquireVec or NewVec makes it,
// and acquire pops the most recently released one and makes a new one only
// when the list is empty. (The engine caps the list at 64; the packed
// decode never holds more than 16 at once.) A program's register n is
// then the interpreter's n-th register, which is what a divergence found
// by the differential is read against.
type regPool struct {
	free []program.Reg
	n    int
}

// fresh is NewVec: a register the free list does not hand out.
func (pe *planEmitter) fresh() program.Reg {
	r := program.Reg(pe.pool.n)
	pe.pool.n++
	pe.e.Clear(r)
	return r
}

// acquire is AcquireVec: a cleared register, recycled when one is free.
func (pe *planEmitter) acquire() program.Reg {
	p := &pe.pool
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		pe.e.Clear(r)
		return r
	}
	return pe.fresh()
}

// acquireN acquires one register for each of rs, in order.
func (pe *planEmitter) acquireN(rs ...*program.Reg) {
	for _, r := range rs {
		*r = pe.acquire()
	}
}

// release is ReleaseVec.
func (pe *planEmitter) release(rs ...program.Reg) {
	pe.pool.free = append(pe.pool.free, rs...)
}

// walk describes the program: SegFirst is the prefix, SegSteady one
// iteration.
func (pe *planEmitter) walk(e *program.Emitter) {
	pe.e, pe.pool = e, regPool{free: pe.pool.free[:0]}
	pe.prefix()
	e.Steady()
	pe.iteration()
}

// vec is the region offset of group g of the packed array at base, read at
// lane offset rot.
func (pe *planEmitter) vec(base int64, g, rot int) int64 { return pe.pl.vecAddr(base, g, rot) }

func (pe *planEmitter) groups() int { return pe.pl.n / pe.pl.lay.GroupLanes }

// prefix is what runPacked runs before its first iteration.
func (pe *planEmitter) prefix() {
	if pe.s == core.StrategyExtract {
		pe.extract()
	} else {
		pe.arrange()
	}
	// The zero register is made once per state and read by every
	// iteration's gamma; a program makes it in SegFirst.
	pe.zero = pe.fresh()
	pe.e.Xor(pe.zero, pe.zero, pe.zero)
	pe.gather(pe.gSPerm, pe.rel.sPerm, pe.rel.s, pe.pl.lay.Rot[core.ClusterS])
	pe.e.Loop(pe.groups(), func(g int) { pe.e.Store(pe.vec(pe.rel.la1, g, 0), pe.zero) })
}

// arrange is core.APCMArranger.Arrange, rotate-mimic form, over the packed
// input: the packed stream has no scalar tail (nb*K is a multiple of the
// lane count at every width).
func (pe *planEmitter) arrange() {
	e, L := pe.e, pe.pl.lay.GroupLanes
	var masks, in, acc [3]program.Reg
	for d := range masks {
		// core.APCMArranger's sampling masks: lane l kept by mask d when
		// l%3 == d.
		pat := make([]int16, L)
		for l := d; l < L; l += 3 {
			pat[l] = -1
		}
		masks[d] = pe.acquire()
		e.SetImm(masks[d], pat)
	}
	var tmp, rot program.Reg
	pe.acquireN(&in[0], &in[1], &in[2], &acc[0], &acc[1], &acc[2], &tmp, &rot)
	dst := [3]int64{pe.rel.s, pe.rel.p1, pe.rel.p2}
	e.Loop(pe.groups(), func(g int) {
		for r := range in {
			e.Load(in[r], pe.rel.src+int64(2*(3*g*L+r*L)))
		}
		for c := range acc {
			for r := range in {
				d := ((c-L*r)%3 + 3) % 3
				if r == 0 {
					e.And(acc[c], in[r], masks[d])
					continue
				}
				e.And(tmp, in[r], masks[d])
				e.Or(acc[c], acc[c], tmp)
			}
		}
		for c := range acc {
			block := dst[c] + 2*int64(g*pe.pl.lay.StrideLanes)
			e.Store(block, acc[c])
			for x := 0; x < c; x++ {
				e.ExtrW(block+2*int64(L+x), acc[c], x)
			}
		}
	})
	pe.release(masks[0], masks[1], masks[2], in[0], in[1], in[2], acc[0], acc[1], acc[2], tmp, rot)
}

// extract is core.ExtractArranger.Arrange over the packed input: each
// group's three registers loaded and every lane stored to its cluster
// with a pextrw, which reaches only the low 128 bits, so wider registers
// are taken apart first — a 256-bit register's upper half by vextracti128,
// a 512-bit one's halves by vextracti32x8 and their upper quarters by
// vextracti128, the register loaded again before its upper half (the
// extract clobbered it). Element j of cluster c lands at j of c's array:
// the layout is the identity, and the packed stream has no scalar tail.
func (pe *planEmitter) extract() {
	e, L := pe.e, pe.pl.lay.GroupLanes
	var reg, half, quarter program.Reg
	pe.acquireN(&reg, &half, &quarter)
	dst := [3]int64{pe.rel.s, pe.rel.p1, pe.rel.p2}
	e.Loop(pe.groups(), func(g int) {
		for r := 0; r < 3; r++ {
			// run stores lanes [lo, hi) of register r of group g from v,
			// whose lane 0 is lane off of the register.
			run := func(v program.Reg, lo, hi, off int) {
				for l := lo; l < hi; l++ {
					k := 3*g*L + r*L + l
					e.ExtrW(dst[k%3]+2*int64(k/3), v, l-off)
				}
			}
			at := pe.rel.src + int64(2*(3*g*L+r*L))
			e.Load(reg, at)
			switch pe.pl.w {
			case simd.W128:
				run(reg, 0, 8, 0)
			case simd.W256:
				run(reg, 0, 8, 0)
				e.Ext(half, reg, simd.W128, 1)
				run(half, 8, 16, 8)
			case simd.W512:
				for h := 0; h < 2; h++ {
					if h == 1 {
						e.Load(reg, at)
					}
					e.Ext(half, reg, simd.W256, h)
					run(half, 16*h, 16*h+8, 16*h)
					e.Ext(quarter, half, simd.W128, 1)
					run(quarter, 16*h+8, 16*h+16, 16*h+8)
				}
			}
		}
	})
	pe.release(reg, half, quarter)
}

// iteration is iterPacked.
func (pe *planEmitter) iteration() {
	rel, rotS := pe.rel, pe.pl.lay.Rot[core.ClusterS]
	k := pe.pl.code.K
	pe.gamma(rel.s, rotS, rel.p1, pe.pl.lay.Rot[core.ClusterP1], rel.la1)
	pe.alpha(k + 3)
	pe.betaExt(k, true)
	pe.extFin(rel.s, rotS, rel.la1)
	pe.gather(pe.gSPerm, rel.la2, rel.ext, 0)

	pe.gamma(rel.sPerm, 0, rel.p2, pe.pl.lay.Rot[core.ClusterP2], rel.la2)
	pe.alpha(k)
	pe.betaExt(k, false)
	pe.extFin(rel.sPerm, 0, rel.la2)
	pe.gather(pe.gLa1, rel.la1, rel.ext, 0)
	pe.hdec()
}

// gather is packedState.gather.
func (pe *planEmitter) gather(prog [][]gatherSrc[int32], dstBase, srcBase int64, srcRot int) {
	var src, acc, tmp program.Reg
	pe.acquireN(&src, &acc, &tmp)
	var addrs [maxGatherLanes]int64
	var tabs [maxGatherLanes][]int32
	for gd, srcs := range prog {
		for i, gs := range srcs {
			addrs[i] = pe.vec(srcBase, gs.Group, srcRot)
			tabs[i] = gs.Idx
		}
		pe.e.QuadGather(src, acc, tmp, pe.vec(dstBase, gd, 0), addrs[:len(srcs)], tabs[:len(srcs)])
	}
	pe.release(src, acc, tmp)
}

// gamma is gammaPacked: one gamma sweep over every group, which keeps
// s, p, la and the four branch metrics in registers and stores only the
// quad lines.
func (pe *planEmitter) gamma(sysBase int64, sysRot int, parBase int64, parRot int, laBase int64) {
	var r [10]program.Reg // s p la t g0 g1 n0 n1 acc tmp
	pe.acquireN(&r[0], &r[1], &r[2], &r[3], &r[4], &r[5], &r[6], &r[7], &r[8], &r[9])
	// A group's lines are a packed group apart, its quad lines a group of
	// trellis steps: GroupLanes/nb = 8 of them, each a register wide.
	d := 2 * int64(pe.pl.lay.StrideLanes)
	in := [3]int64{pe.vec(sysBase, 0, sysRot), pe.vec(parBase, 0, parRot), pe.vec(laBase, 0, 0)}
	pe.e.GammaSweep(&r, pe.groups(), in, [3]int64{d, d, d}, pe.quad(0), program.GammaLines*pe.wb, pe.wb, &pe.scat)
	pe.release(r[:]...)
}

func (pe *planEmitter) quad(step int) int64    { return pe.rel.quad + int64(step)*pe.wb }
func (pe *planEmitter) alphaAt(step int) int64 { return pe.rel.alpha + int64(step)*pe.wb }

// alpha is alphaPacked over steps trellis steps.
func (pe *planEmitter) alpha(steps int) {
	e := pe.e
	alpha := pe.acquire()
	e.SetImm(alpha, pe.negInfInit)
	e.Store(pe.rel.alpha, alpha)
	var r [9]program.Reg // qd bm0 bm1 a0 a1 c0 c1 norm, then alpha
	pe.acquireN(&r[0], &r[1], &r[2], &r[3], &r[4], &r[5], &r[6], &r[7])
	r[8] = alpha
	tabs := [5][]int32{pe.bmA0, pe.bmA1, pe.prevIdx0, pe.prevIdx1, pe.lane0Idx}
	e.AlphaSweep(&r, steps, pe.quad(0), pe.wb, pe.alphaAt(1), pe.wb, &tabs)
	pe.release(alpha, r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7])
}

// betaExt is betaExtPacked over a block of k steps, and its three tail
// steps when terminated.
func (pe *planEmitter) betaExt(k int, terminated bool) {
	e, nb := pe.e, pe.pl.nb
	beta := pe.acquire()
	steps := k
	if terminated {
		steps += 3
		e.SetImm(beta, pe.negInfInit)
	} else {
		e.Xor(beta, beta, beta)
	}
	var r [9]program.Reg // qd bm0 bm1 b0 b1 v0 v1, beta, norm
	pe.acquireN(&r[0], &r[1], &r[2], &r[3], &r[4], &r[5], &r[6])
	r[7] = beta
	// A step's words land at lane positions that repeat a packed group
	// later: the sweep's rows are a group's steps, k-1 down to k-per, and
	// each later group of steps stores one packed group further back.
	per := pe.pl.lay.GroupLanes / nb
	x := &program.BetaExt{Alpha: pe.alphaAt(k - 1), DAlpha: -pe.wb, Hmax: pe.hmaxIdx,
		Lanes: make([]int, nb), DOut: -2 * int64(pe.pl.lay.StrideLanes)}
	for b := range nb {
		x.Lanes[b] = b * NumStates
	}
	for s := range per {
		for b := range nb {
			x.Out = append(x.Out, pe.pl.elemAddr(pe.rel.dPost, (k-1-s)*nb+b))
		}
	}
	// x.Regs is la e0 e1 m0 m1 tmp dv; betaExtPacked acquires alpha e0 e1
	// m0 m1 dv tmp, then norm.
	xr := &x.Regs
	pe.acquireN(&xr[0], &xr[1], &xr[2], &xr[3], &xr[4], &xr[6], &xr[5], &r[8])
	tabs := [5][]int32{pe.bmB0, pe.bmB1, pe.nextIdx0, pe.nextIdx1, pe.lane0Idx}
	if terminated {
		e.BetaSweep(&r, 3, pe.quad(steps-1), -pe.wb, &tabs, nil)
	}
	e.BetaSweep(&r, k, pe.quad(k-1), -pe.wb, &tabs, x)
	pe.release(beta, r[0], r[1], r[2], r[3], r[4], r[5], r[6], xr[0], xr[1], xr[2], xr[3], xr[4], xr[6], xr[5], r[8])
}

// extFin is extFinPacked.
func (pe *planEmitter) extFin(sysBase int64, sysRot int, laBase int64) {
	e := pe.e
	var r [7]program.Reg // dvec s la t half lim nlim
	pe.acquireN(&r[0], &r[1], &r[2], &r[3], &r[4], &r[5], &r[6])
	e.BcastImm(r[5], extClamp)
	e.BcastImm(r[6], -extClamp)
	e.Loop(pe.groups(), func(g int) {
		in := [3]int64{pe.vec(pe.rel.dPost, g, 0), pe.vec(sysBase, g, sysRot), pe.vec(laBase, g, 0)}
		e.ExtVec(&r, 1, in, pe.vec(pe.rel.ext, g, 0))
	})
	pe.release(r[:]...)
}

// hdec is hdecPacked.
func (pe *planEmitter) hdec() {
	e := pe.e
	var v, h program.Reg
	pe.acquireN(&v, &h)
	e.Loop(pe.groups(), func(g int) {
		e.Load(v, pe.vec(pe.rel.dPost, g, 0))
		e.Sra(h, v, 15)
		e.Store(pe.vec(pe.rel.hdec, g, 0), h)
	})
	pe.release(v, h)
}
