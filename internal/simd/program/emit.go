package program

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"vransim/internal/simd"
)

// Reg names a register of an emitted program. Registers are numbered from
// zero; the register file holds as many as the highest number named.
type Reg int16

// Emitter is how a program is written: from a description of the decode
// (Emit). Each method appends one executable op to the current segment: a
// singleton stands for one engine op, a fused method for the whole engine
// sequence its comment spells out. A fused method checks what makes one
// pass over its operands do what that sequence does (distinct registers,
// disjoint load and store ranges) and refuses the op otherwise. Index
// tables are interned by identity: the first op to name a table gives it
// the next id, and the table is the program's from then on, so a caller
// must not change it.
type Emitter struct {
	w     simd.Width
	lanes int

	p   *Program
	out []mop // the segment being emitted
	seg int

	tabIDs map[*int32]int32
	// recent caches tabIDs, direct-mapped by address: a trellis step names
	// the same five to eight tables as the step before it and a gamma
	// scatter one of the same 32, and a look here is several times cheaper
	// than one in the map.
	recent [64]struct {
		t  *int32
		id int32
	}
	nregs int
	err   error
}

// Emit builds the program walk describes. walk emits SegFirst, the prefix,
// calls Steady, and emits SegSteady, one iteration. A run the walk states
// as a Loop is written as a loop of its trip count when its trips repeat,
// so no segment is held unrolled. The result is finished — validated,
// given its live masks and extent, and lowered to descriptor streams — by
// the one validator and the one lowering (finish).
func Emit(w simd.Width, walk func(*Emitter)) (*Program, error) {
	p, err := emit(w, walk)
	if err != nil {
		return nil, err
	}
	return p.finish()
}

// emit is Emit up to the fused segments: walk's program, not finalized.
func emit(w simd.Width, walk func(*Emitter)) (*Program, error) {
	p := &Program{w: w, lanes: w.Lanes16()}
	e := &Emitter{w: w, lanes: p.lanes, p: p, tabIDs: make(map[*int32]int32)}
	walk(e)
	if e.err == nil && e.seg != SegSteady {
		e.fail("Steady never called")
	}
	if e.err != nil {
		return nil, e.err
	}
	p.segs[SegSteady] = slices.Clip(e.out)
	p.nregs = int32(e.nregs * regStride)
	return p, nil
}

// Steady ends SegFirst: what is emitted from here on is SegSteady.
func (e *Emitter) Steady() {
	if e.seg == SegSteady {
		e.fail("Steady called twice")
		return
	}
	e.p.segs[SegFirst] = slices.Clip(e.out)
	e.out, e.seg = nil, SegSteady
}

// Loop emits trips trips of a loop: body(t) emits trip t, which must be
// trip 0 with each address moved by t times a stride of its own. Loop
// emits trips 0, 1 and the last. When both later ones have trip 0's shape
// and the last one's addresses are where trip 1's strides take trip 0's,
// the loop is an mLoop op and trip 0's ops (loop.go), for three trips'
// cost whatever the count. Otherwise, and for fewer than two trips or a
// body that holds a loop of its own, every trip is emitted as it is, in
// order.
func (e *Emitter) Loop(trips int, body func(t int)) {
	if trips < 2 {
		for t := range trips {
			body(t)
		}
		return
	}
	at := len(e.out)
	body(0)
	n, aux0 := len(e.out)-at, len(e.p.aux)
	body(1)
	ops1, aux1 := len(e.out), len(e.p.aux)
	if trips > 2 {
		body(trips - 1)
	}
	if e.fold(at, n, aux0, trips) {
		return
	}
	// The last trip is emitted again in its place. A table or pattern it
	// named stays interned: only its place in the pools moves.
	e.out, e.p.aux = e.out[:ops1], e.p.aux[:aux1]
	for t := 2; t < trips; t++ {
		body(t)
	}
}

// fold makes the trips emitted from out[at] on — trip 0, n ops whose aux
// words end at aux0, then trip 1 and, past two trips, the last — one loop
// of trips trips, and reports whether they are one.
func (e *Emitter) fold(at, n, aux0, trips int) bool {
	ops := e.out[at:]
	if n == 0 || len(ops) != n*min(trips, 3) {
		return false
	}
	t0, t1, last := ops[:n], ops[n:2*n], ops[len(ops)-n:]
	var addrs [3][]int64
	for i := range t0 {
		w0 := e.p.words(&t0[i])
		for j, op := range [3]*mop{&t0[i], &t1[i], &last[i]} {
			w := e.p.words(op)
			if op.kind == mLoop || !sameShape(&t0[i], w0, op, w) {
				return false
			}
			addrs[j] = appendAddrs(addrs[j], op, w)
		}
	}
	for j, a := range addrs[0] {
		if addrs[2][j] != a+int64(trips-1)*(addrs[1][j]-a) {
			return false
		}
	}
	// The strides follow trip 0's aux words, in place of the later trips'.
	e.p.aux = e.p.aux[:aux0]
	for j, a := range addrs[0] {
		e.p.aux = append(e.p.aux, int32(addrs[1][j]-a))
	}
	hd := mop{kind: mLoop, n: int32(n), imm: int64(trips), tab: int32(aux0)}
	e.out = slices.Insert(e.out[:at+n], at, hd)
	return true
}

func (e *Emitter) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("program: emit: "+format, args...)
	}
}

// put appends op to the current segment, the aux words of a fused op to
// the pool.
func (e *Emitter) put(op mop, words []int32) {
	if op.kind >= firstFused {
		op.tab = int32(len(e.p.aux))
		e.p.aux = append(e.p.aux, words...)
	}
	e.out = append(e.out, op)
}

// reg is r's lane offset, -1 for an absent operand (r < 0).
func (e *Emitter) reg(r Reg) int32 {
	e.nregs = max(e.nregs, int(r)+1)
	return off(int16(r))
}

// addr is a region offset as the aux pool holds it.
func (e *Emitter) addr(a int64) int32 {
	if a < 0 || a > math.MaxInt32 {
		e.fail("address %d outside compilable range", a)
		return 0
	}
	return int32(a)
}

// tab interns index table t and returns its id.
func (e *Emitter) tab(t []int32) int32 {
	if len(t) < e.lanes {
		e.fail("index table of %d lanes, need %d", len(t), e.lanes)
		return 0
	}
	key := &t[0]
	// A table of the widest register is 128 bytes, so tables made one after
	// another fall into neighbouring slots.
	slot := &e.recent[uintptr(unsafe.Pointer(key))>>7%uintptr(len(e.recent))]
	if slot.t == key {
		return slot.id
	}
	id, ok := e.tabIDs[key]
	if !ok {
		id = int32(len(e.p.idxTabs))
		e.tabIDs[key] = id
		e.p.idxTabs = append(e.p.idxTabs, t)
	}
	slot.t, slot.id = key, id
	return id
}

// single appends a singleton of kind with register operands d, a, b.
func (e *Emitter) single(kind uint8, d, a, b Reg, addr, imm int64, tab int32) {
	e.put(mop{kind: kind, d: e.reg(d), a: e.reg(a), b: e.reg(b), addr: addr, imm: imm, tab: tab}, nil)
}

// Clear zeroes d (a register taken from the engine's pool).
func (e *Emitter) Clear(d Reg) { e.single(mClear, d, -1, -1, 0, 0, -1) }

// SetImm loads lane pattern pat into d (the whole register cleared first);
// every SetImm adds a pattern to the pool.
func (e *Emitter) SetImm(d Reg, pat []int16) {
	id := int32(len(e.p.lanePats))
	e.p.lanePats = append(e.p.lanePats, append([]int16(nil), pat...))
	e.single(mSetImm, d, -1, -1, 0, 0, id)
}

// BcastImm fills every lane of d with x.
func (e *Emitter) BcastImm(d Reg, x int16) { e.single(mBcastImm, d, -1, -1, 0, int64(x), -1) }

// Load loads a full register into d from region offset at.
func (e *Emitter) Load(d Reg, at int64) {
	e.single(mLoad, d, -1, -1, int64(e.addr(at)), int64(e.w), -1)
}

// Store stores a full register a at region offset at.
func (e *Emitter) Store(at int64, a Reg) {
	e.single(mStore, -1, a, -1, int64(e.addr(at)), int64(e.w), -1)
}

// ExtrW stores lane of a at region offset at (pextrw).
func (e *Emitter) ExtrW(at int64, a Reg, lane int) {
	e.single(mExtrW, -1, a, -1, int64(e.addr(at)), int64(lane), -1)
}

// Ext copies part sel of a, a part being w wide, to the low lanes of d and
// zeroes the rest of d: vextracti128 for W128, vextracti32x8 for W256.
func (e *Emitter) Ext(d, a Reg, w simd.Width, sel int) {
	switch {
	case w == simd.W128 && sel >= 0 && sel < 4:
		e.single(mExt128, d, a, -1, 0, int64(sel), -1)
	case w == simd.W256 && sel >= 0 && sel < 2:
		e.single(mExt256, d, a, -1, 0, int64(sel), -1)
	default:
		e.fail("extract of part %d of width %v", sel, w)
	}
}

// Sra shifts every lane of a right arithmetically by imm into d.
func (e *Emitter) Sra(d, a Reg, imm uint) { e.single(mSra, d, a, -1, 0, int64(imm), -1) }

// AddS, SubS, And, Or and Xor are the lane ops d = a op b.
func (e *Emitter) AddS(d, a, b Reg) { e.single(mAddS, d, a, b, 0, 0, -1) }
func (e *Emitter) SubS(d, a, b Reg) { e.single(mSubS, d, a, b, 0, 0, -1) }
func (e *Emitter) And(d, a, b Reg)  { e.single(mAnd, d, a, b, 0, 0, -1) }
func (e *Emitter) Or(d, a, b Reg)   { e.single(mOr, d, a, b, 0, 0, -1) }
func (e *Emitter) Xor(d, a, b Reg)  { e.single(mXor, d, a, b, 0, 0, -1) }

// QuadScatter is the permutations of srcs by tabs OR-merged into acc and
// stored at dst,
//
//	vpermw acc,srcs[0],tabs[0]; ( vpermw tmp,srcs[j],tabs[j]; por acc,acc,tmp ) × n-1;
//	store acc,[dst]
func (e *Emitter) QuadScatter(acc, tmp Reg, dst int64, srcs []Reg, tabs [][]int32) {
	n := len(srcs)
	if n < 2 || n > regStride || len(tabs) != n || acc == tmp {
		e.fail("quad scatter of %d sources, %d tables", n, len(tabs))
		return
	}
	var w [3 + 2*regStride]int32
	w[0], w[1], w[2] = e.reg(acc), e.reg(tmp), e.addr(dst)
	for j, s := range srcs {
		if s == acc || s == tmp {
			e.fail("quad scatter source %d is its accumulator or scratch", s)
		}
		w[3+2*j], w[4+2*j] = e.reg(s), e.tab(tabs[j])
	}
	e.put(mop{kind: mQuadScatter, n: int32(n)}, w[:3+2*n])
}

// QuadGather is the register loaded from each of srcs permuted by tabs,
// OR-merged into acc and stored at dst,
//
//	load r,[srcs[0]]; vpermw acc,r,tabs[0];
//	( load r,[srcs[j]]; vpermw tmp,r,tabs[j]; por acc,acc,tmp ) × n-1;
//	store acc,[dst]
//
// tmp takes no part in a one-source gather, and dst may not overlap a
// source.
func (e *Emitter) QuadGather(r, acc, tmp Reg, dst int64, srcs []int64, tabs [][]int32) {
	n := len(srcs)
	if n < 1 || n > regStride || len(tabs) != n || acc == r || n > 1 && (tmp == acc || tmp == r) {
		e.fail("quad gather of %d sources, %d tables", n, len(tabs))
		return
	}
	if n == 1 {
		tmp = -1
	}
	var w [4 + 2*regStride]int32
	w[0], w[1], w[2], w[3] = e.reg(r), e.reg(acc), e.reg(tmp), e.addr(dst)
	for j, s := range srcs {
		if !disjoint(dst, s, int64(e.w)) {
			e.fail("quad gather stores [%d,+%d) over a source at %d", dst, e.w, s)
		}
		w[4+2*j], w[5+2*j] = e.addr(s), e.tab(tabs[j])
	}
	e.put(mop{kind: mQuadGather, n: int32(n)}, w[:4+2*n])
}

// AlphaStep is one forward recursion step over the registers
// r = {qd, bm0, bm1, a0, a1, c0, c1, norm, alpha} and tables
// t = {tA0, tA1, tP0, tP1, tN}:
//
//	load qd,[quad]; vpermw bm0,qd,tA0; vpermw bm1,qd,tA1;
//	vpermw a0,alpha,tP0; vpermw a1,alpha,tP1;
//	padds c0,a0,bm0; padds c1,a1,bm1; pmax alpha,c0,c1;
//	vpermw norm,alpha,tN; psubs alpha,alpha,norm; store alpha,[out]
func (e *Emitter) AlphaStep(r *[9]Reg, quad, out int64, t *[5][]int32) {
	if !distinct(r[:], nil) {
		e.fail("alpha step registers %v are not distinct", *r)
		return
	}
	var w [16]int32
	e.regs(w[:9], r[:])
	w[9], w[10] = e.addr(quad), e.addr(out)
	for j := range t {
		w[11+j] = e.tab(t[j])
	}
	e.put(mop{kind: mAlphaStepP}, w[:])
}

// BetaExt is the posterior extraction a beta step fuses (its in-block
// form): registers {la, e0, e1, m0, m1, tmp, dv}, the alpha group loaded
// into la, the three horizontal-max tables, and the (region offset, lane)
// of each word of dv stored.
type BetaExt struct {
	Regs  [7]Reg
	Alpha int64
	Hmax  [3][]int32
	Out   [][2]int64
}

// BetaStep is one backward recursion step over the registers
// r = {qd, bm0, bm1, b0, b1, v0, v1, beta, norm} and tables
// t = {tB0, tB1, tN0, tN1, tN}:
//
//	load qd,[quad]; vpermw bm0,qd,tB0; vpermw bm1,qd,tB1;
//	vpermw b0,beta,tN0; vpermw b1,beta,tN1; padds v0,b0,bm0; padds v1,b1,bm1;
//	[x: load la,[Alpha]; padds e0,la,v0; padds e1,la,v1; hmax(e0 -> m0, tmp);
//	    hmax(e1 -> m1, tmp); psubs dv,m0,m1; pextrw × len(Out)]
//	pmax beta,v0,v1; vpermw norm,beta,tN; psubs beta,beta,norm
//
// with the bracketed extraction when x is not nil, where hmax(e -> m, tmp)
// is the butterfly
//
//	vpermw tmp,e,h0; pmax m,e,tmp; vpermw tmp,m,h1; pmax m,m,tmp;
//	vpermw tmp,m,h2; pmax m,m,tmp
//
// and pextrw b stores lane Out[b][1] of dv at Out[b][0].
func (e *Emitter) BetaStep(r *[9]Reg, quad int64, t *[5][]int32, x *BetaExt) {
	var xr []Reg
	if x != nil {
		xr = x.Regs[:]
		if len(x.Out) == 0 || len(x.Out) > regStride {
			e.fail("beta step extracts %d words", len(x.Out))
			return
		}
	}
	if !distinct(r[:], xr) {
		e.fail("beta step registers %v %v are not distinct", *r, xr)
		return
	}
	var w [26 + 2*regStride]int32
	e.regs(w[:9], r[:])
	w[9] = e.addr(quad)
	for j := range 4 {
		w[10+j] = e.tab(t[j])
	}
	if x == nil {
		w[14] = e.tab(t[4])
		e.put(mop{kind: mBetaStepP}, w[:15])
		return
	}
	// The step names the horizontal-max tables before the normalisation
	// table, so they are interned first.
	for j := range x.Hmax {
		w[23+j] = e.tab(x.Hmax[j])
	}
	w[14] = e.tab(t[4])
	e.regs(w[15:22], xr)
	w[22] = e.addr(x.Alpha)
	for j, out := range x.Out {
		w[26+2*j], w[27+2*j] = e.addr(out[0]), int32(out[1])
	}
	n := len(x.Out)
	e.put(mop{kind: mBetaStepP, imm: 1, n: int32(n)}, w[:26+2*n])
}

// ExtVec is the extrinsic group over the registers r = {d, s, la, t,
// half, lim, nlim}, reading in = {[d], [s], [la]}:
//
//	load d,[in0]; load s,[in1]; load la,[in2]; padds t,s,la; psraw half,d,imm;
//	psubs half,half,t; pmin half,half,lim; pmax half,half,nlim; store half,[out]
func (e *Emitter) ExtVec(r *[7]Reg, imm uint, in [3]int64, out int64) {
	var w [11]int32
	e.regs(w[:7], r[:])
	for j, a := range in {
		if !disjoint(out, a, int64(e.w)) {
			e.fail("ext vec stores [%d,+%d) over a load at %d", out, e.w, a)
		}
		w[7+j] = e.addr(a)
	}
	w[10] = e.addr(out)
	e.put(mop{kind: mExtVec, imm: int64(imm)}, w[:])
}

// regs writes the lane offsets of rs to w.
func (e *Emitter) regs(w []int32, rs []Reg) {
	for i, r := range rs {
		w[i] = e.reg(r)
	}
}

// distinct reports whether the registers of a and b are pairwise
// distinct: a fused step executes a whole phase step in one pass, which is
// only what the step does when no register aliases another.
func distinct(a, b []Reg) bool {
	var seen [4]uint64
	for _, rs := range [2][]Reg{a, b} {
		for _, r := range rs {
			u := uint(r)
			if u >= 64*uint(len(seen)) {
				all := append(append([]Reg(nil), a...), b...)
				slices.Sort(all)
				return len(slices.Compact(all)) == len(a)+len(b)
			}
			if seen[u>>6]&(1<<(u&63)) != 0 {
				return false
			}
			seen[u>>6] |= 1 << (u & 63)
		}
	}
	return true
}

// disjoint reports whether [a, a+n) and [b, b+n) do not overlap.
func disjoint(a, b, n int64) bool { return a+n <= b || b+n <= a }
