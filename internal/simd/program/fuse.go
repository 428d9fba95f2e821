package program

import (
	"fmt"

	"vransim/internal/simd"
)

// The fusion pass collapses the recorded stream's hot patterns into
// single executable ops. Two correctness disciplines make every fusion
// exact:
//
//  1. Fused ops preserve every observable effect of the sequence they
//     replace: all memory writes, and the final value of every register a
//     later op reads — a trellis step's carried state. visitEffects lists
//     the intermediate registers too; finalize's liveness pass proves no
//     later op reads one, or lowering refuses the op.
//  2. Lane-local op runs (adds, subs, min/max, and/or, broadcasts)
//     execute per lane in original op order. Because each such op's
//     output lane i depends only on lane i of its inputs, per-lane
//     sequential execution is equivalent to per-op sequential execution
//     under ANY register aliasing. Patterns containing permutes execute
//     the permute stepwise through scratch (like the engine does), and
//     patterns spanning loads and stores are only fused when the store
//     ranges are disjoint from the load ranges and each other.

// fuse lowers a raw segment, greedily matching fusion patterns and
// falling back to singletons; an op that is neither is refused
// (errUnsupported). Each op goes through the roller as it is formed, so
// the segment fuse returns is rolled, and it reports how many fused ops
// the segment runs unrolled.
func (p *Program) fuse(raw []rawOp) ([]mop, int, error) {
	r := newRoller(p)
	var words []int32
	n := 0
	for i := 0; i < len(raw); n++ {
		// A matcher leaves its op's operand words at the end of the pool,
		// where the roller takes them from.
		at := len(p.aux)
		m, k := p.match(raw[i:])
		if k == 0 {
			var ok bool
			if m, ok = single(raw[i]); !ok {
				return nil, 0, fmt.Errorf("%w: recorded kind %d", errUnsupported, raw[i].kind)
			}
			k = 1
		}
		words = append(words[:0], p.aux[at:]...)
		p.aux = p.aux[:at]
		r.push(m, words)
		i += k
	}
	return r.flush(), n, nil
}

// match fuses the pattern at the head of raw and reports how many raw ops
// it took, 0 when none matches.
func (p *Program) match(raw []rawOp) (mop, int) {
	for _, try := range [...]func([]rawOp) (mop, int){
		p.tryCopyRun, p.tryExtVec, p.tryAlphaStepP, p.tryBetaStepP, p.tryQuadGather, p.tryQuadScatter,
	} {
		if m, n := try(raw); n > 0 {
			return m, n
		}
	}
	return mop{}, 0
}

// pushAux appends operand words to the program pool and returns their
// offset. Every operand is a register lane offset, a table id, a lane or
// a recorded address, so it fits the pool's 32 bits: a rawOp holds
// addresses as int32.
func (p *Program) pushAux(xs ...int64) int32 {
	o := int32(len(p.aux))
	for _, x := range xs {
		p.aux = append(p.aux, int32(x))
	}
	return o
}

// disjoint reports whether [a, a+n) and [b, b+n) do not overlap.
func disjoint(a, b, n int64) bool { return a+n <= b || b+n <= a }

// tryCopyRun collapses a run of scalar element copies (the scalar
// arrangement strategy, and every arranger's remainder tail) into one op
// over a flat (dst, src) address table.
func (p *Program) tryCopyRun(raw []rawOp) (mop, int) {
	n := 0
	for n < len(raw) && raw[n].kind == simd.PCopy16 {
		n++
	}
	if n < 4 {
		return mop{}, 0
	}
	tab := int32(len(p.aux))
	for _, r := range raw[:n] {
		p.aux = append(p.aux, r.addr, r.addr2)
	}
	return mop{kind: mCopyRun, tab: tab, n: int32(n)}, n
}

// kindsAre matches the next ops' kinds exactly.
func kindsAre(raw []rawOp, kinds ...simd.ProgKind) bool {
	if len(raw) < len(kinds) {
		return false
	}
	for i, k := range kinds {
		if raw[i].kind != k {
			return false
		}
	}
	return true
}

// tryExtVec fuses the extrinsic-finalization inner-loop group
//
//	load dvec; load s; load la; padds t,s,la; psraw half,dvec,1;
//	psubs half,half,t; pmin half,half,lim; pmax half,half,nlim;
//	store half
func (p *Program) tryExtVec(raw []rawOp) (mop, int) {
	if !kindsAre(raw, simd.PLoad, simd.PLoad, simd.PLoad,
		simd.PAddS, simd.PSra, simd.PSubS, simd.PMinS, simd.PMaxS, simd.PStore) {
		return mop{}, 0
	}
	wb := int64(p.w)
	ld, ls, lla, at, sr, sb, mn, mx, st := raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[7], raw[8]
	if ld.imm != int32(wb) || ls.imm != int32(wb) || lla.imm != int32(wb) || st.imm != int32(wb) {
		return mop{}, 0
	}
	half := sr.d
	if at.a != ls.d || at.b != lla.d ||
		sr.a != ld.d ||
		sb.d != half || sb.a != half || sb.b != at.d ||
		mn.d != half || mn.a != half ||
		mx.d != half || mx.a != half ||
		st.a != half {
		return mop{}, 0
	}
	for _, la := range []int64{int64(ld.addr), int64(ls.addr), int64(lla.addr)} {
		if !disjoint(int64(st.addr), la, wb) {
			return mop{}, 0
		}
	}
	tab := p.pushAux(
		int64(off(ld.d)), int64(off(ls.d)), int64(off(lla.d)),
		int64(off(at.d)), int64(off(half)), int64(off(mn.b)), int64(off(mx.b)),
		int64(ld.addr), int64(ls.addr), int64(lla.addr), int64(st.addr),
	)
	return mop{kind: mExtVec, tab: tab, imm: int64(sr.imm)}, 9
}

// distinctRegs reports whether all register ids are pairwise distinct.
// The packed-step fusions execute whole recorded phases in one pass,
// which is only equivalent to op-by-op execution when no written
// register aliases another operand still live in the sequence.
func distinctRegs[R int16 | Reg](ids ...R) bool {
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[i] == ids[j] {
				return false
			}
		}
	}
	return true
}

// fullTabs reports whether every index table covers all active lanes.
// The packed fusions index tables directly per lane (no short-table
// guard like permute's), so they only fire on full-length tables.
func (p *Program) fullTabs(tabs ...int32) bool {
	for _, tb := range tabs {
		if int(tb) >= len(p.idxTabs) || len(p.idxTabs[tb]) < p.lanes {
			return false
		}
	}
	return true
}

// tryQuadScatter fuses the packed gamma scatter step — OR-merging
// permutations of register sources into one accumulator and storing it:
//
//	vpermw acc,s0,t0; ( vpermw tmp,s_j,t_j; por acc,acc,tmp ) × m;
//	store acc
//
// No source register is written by the pattern (acc and tmp must not
// alias any source), so one per-lane pass over the combined tables is
// exact; acc gets the merged result and tmp the last permute's output.
func (p *Program) tryQuadScatter(raw []rawOp) (mop, int) {
	if !kindsAre(raw, simd.PPermute) {
		return mop{}, 0
	}
	acc := raw[0].d
	srcs := []int16{raw[0].a}
	tabs := []int32{raw[0].tab}
	tmp := int16(-1)
	i := 1
	for kindsAre(raw[i:], simd.PPermute, simd.POr) &&
		raw[i].d != acc && (tmp < 0 || raw[i].d == tmp) &&
		raw[i+1].d == acc && raw[i+1].a == acc && raw[i+1].b == raw[i].d {
		tmp = raw[i].d
		srcs = append(srcs, raw[i].a)
		tabs = append(tabs, raw[i].tab)
		i += 2
	}
	if len(srcs) < 2 {
		return mop{}, 0
	}
	if !kindsAre(raw[i:], simd.PStore) || raw[i].a != acc || int64(raw[i].imm) != int64(p.w) {
		return mop{}, 0
	}
	for _, s := range srcs {
		if s == acc || s == tmp {
			return mop{}, 0
		}
	}
	if !p.fullTabs(tabs...) {
		return mop{}, 0
	}
	tab := p.pushAux(int64(off(acc)), int64(off(tmp)), int64(raw[i].addr))
	for j := range srcs {
		p.pushAux(int64(off(srcs[j])), int64(tabs[j]))
	}
	return mop{kind: mQuadScatter, tab: tab, n: int32(len(srcs))}, i + 1
}

// tryQuadGather fuses the packed interleave gather step — permutations
// of freshly loaded source groups OR-merged and stored:
//
//	load r; vpermw acc,r,t0;
//	( load r; vpermw tmp,r,t_j; por acc,acc,tmp ) × m;
//	store acc
//
// All loads precede the store in the recorded order, so the replay must
// keep source reads ahead of the destination write: the store range is
// required to be disjoint from every load range.
func (p *Program) tryQuadGather(raw []rawOp) (mop, int) {
	wb := int64(p.w)
	if !kindsAre(raw, simd.PLoad, simd.PPermute) || int64(raw[0].imm) != wb {
		return mop{}, 0
	}
	rr := raw[0].d
	acc := raw[1].d
	if raw[1].a != rr || acc == rr {
		return mop{}, 0
	}
	addrs := []int64{int64(raw[0].addr)}
	tabs := []int32{raw[1].tab}
	tmp := int16(-1)
	i := 2
	for kindsAre(raw[i:], simd.PLoad, simd.PPermute, simd.POr) &&
		raw[i].d == rr && int64(raw[i].imm) == wb &&
		raw[i+1].a == rr && raw[i+1].d != acc && raw[i+1].d != rr && (tmp < 0 || raw[i+1].d == tmp) &&
		raw[i+2].d == acc && raw[i+2].a == acc && raw[i+2].b == raw[i+1].d {
		tmp = raw[i+1].d
		addrs = append(addrs, int64(raw[i].addr))
		tabs = append(tabs, raw[i+1].tab)
		i += 3
	}
	if !kindsAre(raw[i:], simd.PStore) || raw[i].a != acc || int64(raw[i].imm) != wb {
		return mop{}, 0
	}
	dstA := int64(raw[i].addr)
	for _, la := range addrs {
		if !disjoint(dstA, la, wb) {
			return mop{}, 0
		}
	}
	if !p.fullTabs(tabs...) {
		return mop{}, 0
	}
	tab := p.pushAux(int64(off(rr)), int64(off(acc)), int64(off(tmp)), dstA)
	for j := range addrs {
		p.pushAux(addrs[j], int64(tabs[j]))
	}
	return mop{kind: mQuadGather, tab: tab, n: int32(len(addrs))}, i + 1
}

// tryAlphaStepP fuses one whole packed alpha recursion step:
//
//	load qd; vpermw bm0,qd,tA0; vpermw bm1,qd,tA1;
//	vpermw a0,alpha,tP0; vpermw a1,alpha,tP1;
//	padds c0,a0,bm0; padds c1,a1,bm1; pmax alpha,c0,c1;
//	vpermw norm,alpha,tN; psubs alpha,alpha,norm; store alpha
//
// The replay reads the quad group and the old alpha, computes the new
// alpha into scratch, then renormalizes and stores — writing each live
// intermediate register its final value. The load precedes the store in
// the replay exactly as recorded, so no disjointness check is needed.
func (p *Program) tryAlphaStepP(raw []rawOp) (mop, int) {
	if !kindsAre(raw, simd.PLoad, simd.PPermute, simd.PPermute, simd.PPermute, simd.PPermute,
		simd.PAddS, simd.PAddS, simd.PMaxS, simd.PPermute, simd.PSubS, simd.PStore) {
		return mop{}, 0
	}
	wb := int64(p.w)
	ld, pb0, pb1, pa0, pa1, ad0, ad1, mx, pn, sb, st := raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[7], raw[8], raw[9], raw[10]
	if int64(ld.imm) != wb || int64(st.imm) != wb {
		return mop{}, 0
	}
	qd := ld.d
	alpha := pa0.a
	if pb0.a != qd || pb1.a != qd || pa1.a != alpha ||
		ad0.a != pa0.d || ad0.b != pb0.d ||
		ad1.a != pa1.d || ad1.b != pb1.d ||
		mx.d != alpha || mx.a != ad0.d || mx.b != ad1.d ||
		pn.a != alpha ||
		sb.d != alpha || sb.a != alpha || sb.b != pn.d ||
		st.a != alpha {
		return mop{}, 0
	}
	if !distinctRegs(qd, pb0.d, pb1.d, pa0.d, pa1.d, ad0.d, ad1.d, pn.d, alpha) {
		return mop{}, 0
	}
	if !p.fullTabs(pb0.tab, pb1.tab, pa0.tab, pa1.tab, pn.tab) {
		return mop{}, 0
	}
	tab := p.pushAux(
		int64(off(qd)), int64(off(pb0.d)), int64(off(pb1.d)),
		int64(off(pa0.d)), int64(off(pa1.d)),
		int64(off(ad0.d)), int64(off(ad1.d)),
		int64(off(pn.d)), int64(off(alpha)),
		int64(ld.addr), int64(st.addr),
		int64(pb0.tab), int64(pb1.tab), int64(pa0.tab), int64(pa1.tab), int64(pn.tab),
	)
	return mop{kind: mAlphaStepP, tab: tab}, 11
}

// matchHmaxOn checks raw[0:6] for the horizontal-max butterfly over v
//
//	vpermw tmp,v,t0; pmax dst,v,tmp;
//	vpermw tmp,dst,t1; pmax dst,dst,tmp;
//	vpermw tmp,dst,t2; pmax dst,dst,tmp
//
// and returns its registers and tables.
func matchHmaxOn(raw []rawOp, v int16) (dst, tmp int16, t0, t1, t2 int32, ok bool) {
	if !kindsAre(raw, simd.PPermute, simd.PMaxS, simd.PPermute, simd.PMaxS, simd.PPermute, simd.PMaxS) {
		return
	}
	tmp = raw[0].d
	dst = raw[1].d
	if raw[0].a != v || tmp == dst ||
		raw[1].a != v || raw[1].b != tmp ||
		raw[2].d != tmp || raw[2].a != dst ||
		raw[3].d != dst || raw[3].a != dst || raw[3].b != tmp ||
		raw[4].d != tmp || raw[4].a != dst ||
		raw[5].d != dst || raw[5].a != dst || raw[5].b != tmp {
		return
	}
	return dst, tmp, raw[0].tab, raw[2].tab, raw[4].tab, true
}

// tryBetaStepP fuses one whole packed beta recursion step. The common
// prefix is
//
//	load qd; vpermw bm0,qd,tB0; vpermw bm1,qd,tB1;
//	vpermw b0,beta,tN0; vpermw b1,beta,tN1;
//	padds v0,b0,bm0; padds v1,b1,bm1
//
// followed either directly by the beta update (the tail-step form)
//
//	pmax beta,v0,v1; vpermw norm,beta,tN; psubs beta,beta,norm
//
// or (the in-block form) by the fused posterior extraction first:
//
//	load al; padds e0,al,v0; padds e1,al,v1;
//	hmax(e0 -> m0, tmp); hmax(e1 -> m1, tmp);
//	psubs dv,m0,m1; pextrw × nb; pmax beta,v0,v1; norm; sub
//
// Both hmax butterflies must share tmp and the three index tables. The
// recorded order has every load before every pextrw store; the replay
// preserves that order, so no load/store disjointness is required.
func (p *Program) tryBetaStepP(raw []rawOp) (mop, int) {
	if !kindsAre(raw, simd.PLoad, simd.PPermute, simd.PPermute, simd.PPermute, simd.PPermute,
		simd.PAddS, simd.PAddS) {
		return mop{}, 0
	}
	wb := int64(p.w)
	ld, pb0, pb1, pn0, pn1, av0, av1 := raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6]
	if int64(ld.imm) != wb {
		return mop{}, 0
	}
	qd := ld.d
	beta := pn0.a
	if pb0.a != qd || pb1.a != qd || pn1.a != beta ||
		av0.a != pn0.d || av0.b != pb0.d ||
		av1.a != pn1.d || av1.b != pb1.d {
		return mop{}, 0
	}
	v0, v1 := av0.d, av1.d
	if !p.fullTabs(pb0.tab, pb1.tab, pn0.tab, pn1.tab) {
		return mop{}, 0
	}

	// finish matches the trailing beta update at raw[i:].
	finish := func(i int) (norm int16, ok bool) {
		if !kindsAre(raw[i:], simd.PMaxS, simd.PPermute, simd.PSubS) {
			return 0, false
		}
		mx, pn, sb := raw[i], raw[i+1], raw[i+2]
		if mx.d != beta || mx.a != v0 || mx.b != v1 ||
			pn.a != beta ||
			sb.d != beta || sb.a != beta || sb.b != pn.d ||
			!p.fullTabs(pn.tab) {
			return 0, false
		}
		return pn.d, true
	}

	if raw[7].kind == simd.PMaxS {
		// Tail-step form: no posterior extraction.
		norm, ok := finish(7)
		if !ok || !distinctRegs(qd, pb0.d, pb1.d, pn0.d, pn1.d, v0, v1, norm, beta) {
			return mop{}, 0
		}
		tab := p.pushAux(
			int64(off(qd)), int64(off(pb0.d)), int64(off(pb1.d)),
			int64(off(pn0.d)), int64(off(pn1.d)), int64(off(v0)), int64(off(v1)),
			int64(off(beta)), int64(off(norm)),
			int64(ld.addr),
			int64(pb0.tab), int64(pb1.tab), int64(pn0.tab), int64(pn1.tab), int64(raw[8].tab),
		)
		return mop{kind: mBetaStepP, tab: tab}, 10
	}

	// In-block form with posterior extraction.
	if !kindsAre(raw[7:], simd.PLoad, simd.PAddS, simd.PAddS) {
		return mop{}, 0
	}
	la, ae0, ae1 := raw[7], raw[8], raw[9]
	if int64(la.imm) != wb ||
		ae0.a != la.d || ae0.b != v0 ||
		ae1.a != la.d || ae1.b != v1 {
		return mop{}, 0
	}
	e0, e1 := ae0.d, ae1.d
	m0, tmp0, h0, h1, h2, ok := matchHmaxOn(raw[10:], e0)
	if !ok {
		return mop{}, 0
	}
	m1, tmp1, g0, g1, g2, ok := matchHmaxOn(raw[16:], e1)
	if !ok || tmp1 != tmp0 || g0 != h0 || g1 != h1 || g2 != h2 {
		return mop{}, 0
	}
	if !kindsAre(raw[22:], simd.PSubS) {
		return mop{}, 0
	}
	sd := raw[22]
	if sd.a != m0 || sd.b != m1 {
		return mop{}, 0
	}
	dv := sd.d
	i := 23
	nx := 0
	for i < len(raw) && raw[i].kind == simd.PExtrW && raw[i].a == dv {
		nx++
		i++
	}
	if nx == 0 {
		return mop{}, 0
	}
	norm, ok := finish(i)
	if !ok {
		return mop{}, 0
	}
	if !distinctRegs(qd, pb0.d, pb1.d, pn0.d, pn1.d, v0, v1,
		la.d, e0, e1, m0, m1, tmp0, dv, norm, beta) {
		return mop{}, 0
	}
	if !p.fullTabs(h0, h1, h2) {
		return mop{}, 0
	}
	tab := p.pushAux(
		int64(off(qd)), int64(off(pb0.d)), int64(off(pb1.d)),
		int64(off(pn0.d)), int64(off(pn1.d)), int64(off(v0)), int64(off(v1)),
		int64(off(beta)), int64(off(norm)),
		int64(ld.addr),
		int64(pb0.tab), int64(pb1.tab), int64(pn0.tab), int64(pn1.tab), int64(raw[i+1].tab),
		int64(off(la.d)), int64(off(e0)), int64(off(e1)),
		int64(off(m0)), int64(off(m1)), int64(off(tmp0)), int64(off(dv)),
		int64(la.addr),
		int64(h0), int64(h1), int64(h2),
	)
	for j := 23; j < 23+nx; j++ {
		p.pushAux(int64(raw[j].addr), int64(raw[j].imm))
	}
	return mop{kind: mBetaStepP, tab: tab, imm: 1, n: int32(nx)}, i + 3
}
