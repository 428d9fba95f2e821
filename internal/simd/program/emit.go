package program

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"vransim/internal/simd"
)

// Reg names a register of an emitted program. Registers are numbered from
// zero; the register file holds as many as the highest number named.
type Reg int16

// errBigEndian: Run reads the arena through an int16 view, which is the
// engine's little-endian byte order only on a little-endian host. Like
// any compile error, it fails every batch of the plan's block size.
var errBigEndian = errors.New("program: replay needs a little-endian host")

// Emitter is how a program is written: from a description of the decode
// (Emit). Each method writes the descriptor record of the engine sequence
// its comment spells out to the current segment's stream — the one place
// each record kind's operands are laid out — and checks every operand as
// it writes it: registers, table entries and lanes in range, and each
// address non-negative, even and at most MaxUint32, a moving one at its
// first and its last step. The highest byte an address reaches is the
// program's extent, which NewExec holds every region to. Index tables are
// interned by content when they are first named, and remembered by
// identity, so a caller must not change a table it has named.
//
// A fused method writes memory and at most one carried register; the
// other registers its sequence writes are clobbered. A record that reads
// a clobbered register before it is written again fails the emit, as does
// a segment that reads a register before writing it while either segment
// ends with that register clobbered: replay would read what the
// interpreter's sequence left there, which the record never wrote.
type Emitter struct {
	p     *Program
	lanes int
	wb    int64 // bytes of an L-lane line
	seg   int
	code  []uint32 // the stream of the segment being written
	work  int      // units of work since the last stop record
	nregs int

	// regs holds, per segment, the state of each register (regWritten,
	// regClobbered, regIn).
	regs [2][]uint8

	// tabIDs maps each table named so far, by identity, to its vector in
	// the pool, and slots each distinct vector to its place there. recent
	// caches tabIDs, direct-mapped by address: a trellis sweep names the
	// same five to eight tables as the one before it and a gamma sweep the
	// same 32, and a look here is several times cheaper than one in the
	// map.
	tabIDs map[*int32]int32
	slots  map[[regStride]uint16]int32
	recent [64]struct {
		t  *int32
		id int32
	}

	// While Loop writes its trips (trip), where each record starts and its
	// units of work, where each address word is, and each register access
	// (its Reg and how it was used), in order.
	trip  bool
	recs  []tripRec
	addrs []int
	uses  []int32

	err error
}

// The state of a register in a segment.
const (
	regWritten   = 1 << iota // the segment has written it
	regClobbered             // its last write was a fused record's scratch, which replay never writes
	regIn                    // the segment read it before writing it
)

// Emit builds the program walk describes. walk emits SegFirst, the prefix,
// calls Steady, and emits SegSteady, one iteration. A run the walk states
// as a Loop is written as a loop of its trip count when its trips repeat,
// so no segment is held unrolled.
func Emit(w simd.Width, walk func(*Emitter)) (*Program, error) {
	e := newEmitter(w)
	walk(e)
	return e.finish()
}

func newEmitter(w simd.Width) *Emitter {
	p := &Program{w: w, lanes: w.Lanes16()}
	return &Emitter{p: p, lanes: p.lanes, wb: int64(2 * p.lanes),
		tabIDs: make(map[*int32]int32), slots: make(map[[regStride]uint16]int32)}
}

// Steady ends SegFirst: what is emitted from here on is SegSteady.
func (e *Emitter) Steady() {
	if e.seg == SegSteady || e.trip {
		e.fail("Steady called twice or in a Loop")
		return
	}
	e.end()
	e.seg = SegSteady
}

// end closes the current segment's stream with a stop record.
func (e *Emitter) end() {
	e.head(nStop, 0)
	e.p.code[e.seg] = slices.Clone(e.code)
	e.code, e.work = e.code[:0], 0
}

// finish closes SegSteady and checks the segment boundary: a decode runs
// SegFirst, SegSteady any number of times and the next decode's SegFirst,
// so no register either segment ends clobbered may be read first by
// either.
func (e *Emitter) finish() (*Program, error) {
	if e.seg != SegSteady {
		e.fail("Steady never called")
	}
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return nil, errBigEndian
	}
	e.end()
	for _, end := range e.regs {
		for _, in := range e.regs {
			for r := range min(len(end), len(in)) {
				if end[r]&regClobbered != 0 && in[r]&regIn != 0 {
					e.fail("register %d ends a segment clobbered and a segment reads it first", r)
				}
			}
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	p := e.p
	p.nregs = int32(e.nregs * regStride)
	p.gat, p.gatAnd, p.pats = slices.Clip(p.gat), slices.Clip(p.gatAnd), slices.Clip(p.pats)
	return p, nil
}

func (e *Emitter) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("program: emit: "+format, args...)
	}
}

// use records how the record being written uses registers rs: reads
// (regIn), writes (regWritten) or clobbers (regClobbered). A read of a
// clobbered register fails.
func (e *Emitter) use(how uint8, rs ...Reg) {
	for _, r := range rs {
		if r < 0 {
			e.fail("register %d", r)
			continue
		}
		e.nregs = max(e.nregs, int(r)+1)
		st := e.regs[e.seg]
		if int(r) >= len(st) {
			st = append(st, make([]uint8, int(r)+1-len(st))...)
			e.regs[e.seg] = st
		}
		if e.trip {
			e.uses = append(e.uses, int32(r)<<3|int32(how))
		}
		switch {
		case how != regIn:
			st[r] = st[r]&regIn | how | regWritten
		case st[r]&regClobbered != 0:
			e.fail("register %d is read after a fused record clobbered it", r)
		case st[r]&regWritten == 0:
			st[r] |= regIn
		}
	}
}

// reg is the byte offset of register r in the register file.
func (e *Emitter) reg(r Reg) uint32 { return e.lane(r, 0, regStride) }

// lane is the byte offset of lanes [from, from+n) of register r.
func (e *Emitter) lane(r Reg, from, n int) uint32 {
	if r < 0 || from < 0 || n < 0 || from+n > regStride {
		e.fail("lanes [%d,+%d) of register %d", from, n, r)
		return 0
	}
	return uint32(2 * (int(r)*regStride + from))
}

// check checks an n-byte access at region offset a and extends the extent
// over it.
func (e *Emitter) check(a, n int64) {
	if a < 0 || a&1 != 0 || a > math.MaxUint32 {
		e.fail("memory access [%d,+%d) at an odd, negative or too large address", a, n)
		return
	}
	e.p.extent = max(e.p.extent, a+n)
}

// addr writes the address word of an n-byte access at a, checked.
func (e *Emitter) addr(a, n int64) {
	e.check(a, n)
	if e.trip {
		e.addrs = append(e.addrs, len(e.code))
	}
	e.code = append(e.code, uint32(a))
}

// tab interns index table t and returns the byte offset of its vector in
// gat and gatAnd.
func (e *Emitter) tab(t []int32) uint32 {
	if len(t) < e.lanes {
		e.fail("index table of %d lanes, need %d", len(t), e.lanes)
		return 0
	}
	key := &t[0]
	// A table of the widest register is 128 bytes, so tables made one after
	// another fall into neighbouring slots.
	slot := &e.recent[uintptr(unsafe.Pointer(key))>>7%uintptr(len(e.recent))]
	if slot.t != key {
		id, ok := e.tabIDs[key]
		if !ok {
			id = e.intern(t)
			e.tabIDs[key] = id
		}
		slot.t, slot.id = key, id
	}
	return uint32(slot.id) * 2 * regStride
}

// intern returns the place of t's vector in the pool, adding it if it is
// new: every entry a lane below L, the rest the sentinel. A W512 plan's
// tables are 51 to 68 distinct vectors, a pool small enough to stay in L1.
func (e *Emitter) intern(t []int32) int32 {
	var v, and [regStride]uint16
	for i := range v {
		v[i] = sentinel
		if i < e.lanes && t[i] >= 0 && int(t[i]) < e.lanes {
			v[i], and[i] = uint16(t[i]), 0xffff
		}
	}
	id, ok := e.slots[v]
	if !ok {
		id = int32(len(e.p.gat))
		e.slots[v] = id
		e.p.gat, e.p.gatAnd = append(e.p.gat, v), append(e.p.gatAnd, and)
	}
	return id
}

// room returns how many units of work the next record may hold, after
// writing the stop record that is due: at once when the work since the
// last reaches yieldEvery, and early when less than need is left.
func (e *Emitter) room(need int) int {
	if e.work >= yieldEvery || e.work > 0 && yieldEvery-e.work < need {
		e.head(nStop, 0)
		e.work = 0
	}
	return yieldEvery - e.work
}

// head writes a record header, kind and count n, and words.
func (e *Emitter) head(kind uint32, n int, words ...uint32) {
	if n < 0 || n >= 1<<24 {
		e.fail("record count %d does not fit a header", n)
	}
	e.code = append(append(e.code, kind|uint32(n)<<8), words...)
}

// record starts a method's record of units units of work: in a Loop's
// trip it is logged, anywhere else the stop record due goes first.
func (e *Emitter) record(units int, kind uint32, n int, words ...uint32) {
	if e.trip {
		e.recs = append(e.recs, tripRec{len(e.code), units})
	} else {
		e.room(1)
		e.work += units
	}
	e.head(kind, n, words...)
}

// shift is a VPSRAW count: any count above 15 fills with the sign, as Go's
// >> does.
func shift(imm uint) int { return int(min(imm, 16)) }

// Clear zeroes d (a register taken from the engine's pool).
func (e *Emitter) Clear(d Reg) {
	e.use(regWritten, d)
	e.record(1, nClear, 0, e.reg(d))
}

// SetImm loads lane pattern pat into d (the whole register cleared first);
// every SetImm adds a pattern to the pool.
func (e *Emitter) SetImm(d Reg, pat []int16) {
	var v [regStride]int16
	copy(v[:], pat)
	e.p.pats = append(e.p.pats, v)
	e.use(regWritten, d)
	e.record(1, nSetImm, 0, e.reg(d), uint32(len(e.p.pats)-1)*2*regStride)
}

// BcastImm fills every lane of d with x.
func (e *Emitter) BcastImm(d Reg, x int16) {
	e.use(regWritten, d)
	e.record(1, nBcastImm, int(uint16(x)), e.reg(d))
}

// Load loads a full register into d from region offset at.
func (e *Emitter) Load(d Reg, at int64) { e.load(d, at, e.lanes) }

// load loads the low n lanes of d from at and zeroes the rest.
func (e *Emitter) load(d Reg, at int64, n int) {
	e.use(regWritten, d)
	e.record(1, nLoad, 0, e.lane(d, 0, n))
	e.addr(at, int64(2*n))
	e.code = append(e.code, laneMask(n))
}

// Store stores a full register a at region offset at.
func (e *Emitter) Store(at int64, a Reg) { e.store(at, a, e.lanes) }

// store stores the low n lanes of a at at.
func (e *Emitter) store(at int64, a Reg, n int) {
	e.use(regIn, a)
	e.record(1, nStore, 0, e.lane(a, 0, n))
	e.addr(at, int64(2*n))
	e.code = append(e.code, laneMask(n))
}

// ExtrW stores lane of a at region offset at (pextrw).
func (e *Emitter) ExtrW(at int64, a Reg, lane int) {
	e.use(regIn, a)
	e.record(1, nExtrW, 0, e.lane(a, lane, 1))
	e.addr(at, 2)
}

// Ext copies part sel of a, a part being w wide, to the low lanes of d and
// zeroes the rest of d: vextracti128 for W128, vextracti32x8 for W256.
func (e *Emitter) Ext(d, a Reg, w simd.Width, sel int) {
	n := w.Lanes16()
	if w != simd.W128 && w != simd.W256 || sel < 0 || (sel+1)*n > regStride {
		e.fail("extract of part %d of width %v", sel, w)
		return
	}
	e.use(regIn, a)
	e.use(regWritten, d)
	e.record(1, nLoadReg, 0, e.reg(d), e.lane(a, n*sel, n), laneMask(n))
}

// Sra shifts every lane of a right arithmetically by imm into d.
func (e *Emitter) Sra(d, a Reg, imm uint) {
	e.use(regIn, a)
	e.use(regWritten, d)
	e.record(1, nSra, shift(imm), e.reg(d), e.reg(a))
}

// And, Or and Xor are the lane ops d = a op b.
func (e *Emitter) And(d, a, b Reg) { e.laneOp(nAnd, d, a, b) }
func (e *Emitter) Or(d, a, b Reg)  { e.laneOp(nOr, d, a, b) }
func (e *Emitter) Xor(d, a, b Reg) { e.laneOp(nXor, d, a, b) }

func (e *Emitter) laneOp(kind uint32, d, a, b Reg) {
	e.use(regIn, a, b)
	e.use(regWritten, d)
	e.record(1, kind, 0, e.reg(d), e.reg(a), e.reg(b))
}

// GammaLines is how many quad lines a gamma group writes: a group holds
// GroupLanes elements of nb blocks, GroupLanes/nb = 8 trellis steps at
// every width.
const GammaLines = 8

// GammaSweep is groups gamma groups over the registers r = {s, p, la, t,
// g0, g1, n0, n1, acc, tmp} and tables t, group g reading in[i]+g·din[i]
// and writing quad line j at quad+g·dq+j·dl:
//
//	load s,[in0]; load p,[in1]; load la,[in2]; padds t,s,la;
//	padds g0,t,p; psubs g1,t,p; psubs n0,0,g0; psubs n1,0,g1;
//	( vpermw acc,g0,t[j][0]; ( vpermw tmp,x,t[j][v]; por acc,acc,tmp ) for
//	  x = g1, n0, n1; store acc,[quad+j·dl] ) × GammaLines
//
// The record keeps every one of them in a vector register and writes only
// the quad lines; every line a group reads is loaded before it stores.
func (e *Emitter) GammaSweep(r *[10]Reg, groups int, in, din [3]int64, quad, dq, dl int64, t *[GammaLines][4][]int32) {
	if groups < 1 || !distinct(r[:], nil) {
		e.fail("gamma sweep of %d groups over registers %v", groups, *r)
		return
	}
	e.use(regClobbered, r[:]...)
	var tabs [GammaLines * 4]uint32
	for j := range t {
		for v := range t[j] {
			tabs[4*j+v] = e.tab(t[j][v])
		}
	}
	last := int64(groups - 1)
	for i := range in {
		e.check(in[i]+last*din[i], e.wb)
	}
	for _, at := range []int64{quad, quad + last*dq} {
		e.check(at, e.wb)
		e.check(at+(GammaLines-1)*dl, e.wb)
	}
	e.sweep(groups, 1, gammaUnits, func(g0, n int) {
		e.head(nGammaSweep, n)
		for i := range in {
			e.addr(in[i]+int64(g0)*din[i], e.wb)
			e.code = append(e.code, uint32(din[i]))
		}
		e.addr(quad+int64(g0)*dq, e.wb)
		e.code = append(append(e.code, uint32(dq), uint32(dl)), tabs[:]...)
	})
}

// gammaUnits is a gamma group's units of work: 20 to 40 ns native,
// three records' worth.
const gammaUnits = 3

// QuadGather is the register loaded from each of srcs permuted by tabs,
// OR-merged into acc and stored at dst,
//
//	load r,[srcs[0]]; vpermw acc,r,tabs[0];
//	( load r,[srcs[j]]; vpermw tmp,r,tabs[j]; por acc,acc,tmp ) × n-1;
//	store acc,[dst]
//
// tmp takes no part in a one-source gather. Every source is loaded before
// the store, so dst may be a source.
func (e *Emitter) QuadGather(r, acc, tmp Reg, dst int64, srcs []int64, tabs [][]int32) {
	n := len(srcs)
	if n < 1 || n > regStride || len(tabs) != n || acc == r || n > 1 && (tmp == acc || tmp == r) {
		e.fail("quad gather of %d sources, %d tables", n, len(tabs))
		return
	}
	e.use(regClobbered, r, acc)
	if n > 1 {
		e.use(regClobbered, tmp)
	}
	e.record(1+n/4, nMergeMem, n)
	e.addr(dst, e.wb)
	for j, s := range srcs {
		e.addr(s, e.wb)
		e.code = append(e.code, e.tab(tabs[j]))
	}
}

// ExtVec is the extrinsic group over the registers r = {d, s, la, t,
// half, lim, nlim}, reading in = {[d], [s], [la]}:
//
//	load d,[in0]; load s,[in1]; load la,[in2]; padds t,s,la; psraw half,d,imm;
//	psubs half,half,t; pmin half,half,lim; pmax half,half,nlim; store half,[out]
//
// Every line is loaded before the store, so out may be one of in.
func (e *Emitter) ExtVec(r *[7]Reg, imm uint, in [3]int64, out int64) {
	e.use(regIn, r[5], r[6])
	e.use(regClobbered, r[:5]...)
	e.record(1, nExtVec, shift(imm), e.reg(r[5]), e.reg(r[6]))
	for _, a := range in {
		e.addr(a, e.wb)
	}
	e.addr(out, e.wb)
}

// AlphaSweep is steps forward recursion steps over the registers
// r = {qd, bm0, bm1, a0, a1, c0, c1, norm, alpha} and tables
// t = {tA0, tA1, tP0, tP1, tN}, step s being
//
//	load qd,[quad+s·dq]; vpermw bm0,qd,tA0; vpermw bm1,qd,tA1;
//	vpermw a0,alpha,tP0; vpermw a1,alpha,tP1;
//	padds c0,a0,bm0; padds c1,a1,bm1; pmax alpha,c0,c1;
//	vpermw norm,alpha,tN; psubs alpha,alpha,norm; store alpha,[out+s·dout]
func (e *Emitter) AlphaSweep(r *[9]Reg, steps int, quad, dq, out, dout int64, t *[5][]int32) {
	if steps < 1 || !distinct(r[:], nil) {
		e.fail("alpha sweep of %d steps over registers %v", steps, *r)
		return
	}
	e.use(regIn, r[8])
	e.use(regClobbered, r[:8]...)
	e.use(regWritten, r[8])
	c := e.reg(r[8])
	var tabs [5]uint32
	for j := range t {
		tabs[j] = e.tab(t[j])
	}
	last := int64(steps - 1)
	e.check(quad+last*dq, e.wb)
	e.check(out+last*dout, e.wb)
	e.sweep(steps, 1, 1, func(s0, n int) {
		e.head(nAlphaSweep, n, c, tabs[0], tabs[1], tabs[2], tabs[3], tabs[4])
		e.addr(quad+int64(s0)*dq, e.wb)
		e.code = append(e.code, uint32(dq))
		e.addr(out+int64(s0)*dout, e.wb)
		e.code = append(e.code, uint32(dout))
	})
}

// BetaExt is the posterior extraction a beta step fuses (its in-block
// form): registers {la, e0, e1, m0, m1, tmp, dv}, the alpha line loaded
// into la, at Alpha + s·DAlpha in step s, the three horizontal-max tables,
// and where the words of dv go: np rows of nx = len(Lanes) addresses, Out,
// step s storing lane Lanes[x] of dv at Out[(s mod np)·nx + x] +
// (s/np)·DOut.
type BetaExt struct {
	Regs          [7]Reg
	Alpha, DAlpha int64
	Hmax          [3][]int32
	Lanes         []int
	Out           []int64
	DOut          int64
}

// BetaSweep is steps backward recursion steps over the registers
// r = {qd, bm0, bm1, b0, b1, v0, v1, beta, norm} and tables
// t = {tB0, tB1, tN0, tN1, tN}, step s being
//
//	load qd,[quad+s·dq]; vpermw bm0,qd,tB0; vpermw bm1,qd,tB1;
//	vpermw b0,beta,tN0; vpermw b1,beta,tN1; padds v0,b0,bm0; padds v1,b1,bm1;
//	[x: load la,[alpha]; padds e0,la,v0; padds e1,la,v1; hmax(e0 -> m0, tmp);
//	    hmax(e1 -> m1, tmp); psubs dv,m0,m1; pextrw × nx]
//	pmax beta,v0,v1; vpermw norm,beta,tN; psubs beta,beta,norm
//
// with the bracketed extraction when x is not nil, steps a whole number of
// its np rows, where hmax(e -> m, tmp) is the butterfly
//
//	vpermw tmp,e,h0; pmax m,e,tmp; vpermw tmp,m,h1; pmax m,m,tmp;
//	vpermw tmp,m,h2; pmax m,m,tmp
func (e *Emitter) BetaSweep(r *[9]Reg, steps int, quad, dq int64, t *[5][]int32, x *BetaExt) {
	var xr []Reg
	np, nx := 1, 0
	if x != nil {
		xr, nx = x.Regs[:], len(x.Lanes)
		if nx == 0 || nx > regStride || len(x.Out) == 0 || len(x.Out)%nx != 0 {
			e.fail("beta sweep extracts %d lanes to %d words", nx, len(x.Out))
			return
		}
		np = len(x.Out) / nx
	}
	if steps < 1 || steps%np != 0 || !distinct(r[:], xr) {
		e.fail("beta sweep of %d steps, %d rows, over registers %v %v", steps, np, *r, xr)
		return
	}
	e.use(regIn, r[7])
	e.use(regClobbered, r[:7]...)
	e.use(regClobbered, r[8])
	e.use(regClobbered, xr...)
	e.use(regWritten, r[7])
	c := e.reg(r[7])
	var tabs [5]uint32
	for j := range 4 {
		tabs[j] = e.tab(t[j])
	}
	last := int64(steps - 1)
	e.check(quad+last*dq, e.wb)
	if x == nil {
		tabs[4] = e.tab(t[4])
		e.sweep(steps, 1, 1, func(s0, n int) {
			e.head(nBetaSweep, n, c, tabs[0], tabs[1], tabs[2], tabs[3], tabs[4])
			e.addr(quad+int64(s0)*dq, e.wb)
			e.code = append(e.code, uint32(dq))
		})
		return
	}
	// The step names the horizontal-max tables before the normalisation
	// table, so they are interned first.
	var h [3]uint32
	for j := range h {
		h[j] = e.tab(x.Hmax[j])
	}
	tabs[4] = e.tab(t[4])
	// The extracted lanes as the index operand of one VPERMW: a whole
	// register of words, two to a stream word.
	var lanes [regStride / 2]uint32
	for i, l := range x.Lanes {
		lanes[i/2] |= e.lane(0, l, 1) / 2 << (16 * (i % 2))
	}
	e.check(x.Alpha+last*x.DAlpha, e.wb)
	for _, a := range x.Out {
		e.check(a+last/int64(np)*x.DOut, 2)
	}
	e.sweep(steps, np, 1+nx/8, func(s0, n int) {
		e.head(nBetaExtSweep, n, c, tabs[0], tabs[1], tabs[2], tabs[3], tabs[4], h[0], h[1], h[2], uint32(nx))
		e.code = append(e.code, lanes[:]...)
		e.addr(quad+int64(s0)*dq, e.wb)
		e.code = append(e.code, uint32(dq))
		e.addr(x.Alpha+int64(s0)*x.DAlpha, e.wb)
		e.code = append(e.code, uint32(x.DAlpha), uint32(x.DOut), uint32(np))
		for _, a := range x.Out {
			e.addr(a+int64(s0/np)*x.DOut, 2)
		}
	})
}

// sweep writes steps steps of a trellis sweep, np steps a period, cost
// units of work a step: in a Loop's trip as one record, anywhere else as
// records cut where the room left runs out, each piece whole periods. rec
// writes the record of steps [s0, s0+n).
func (e *Emitter) sweep(steps, np, cost int, rec func(s0, n int)) {
	if e.trip {
		e.recs = append(e.recs, tripRec{len(e.code), steps * cost})
		rec(0, steps)
		return
	}
	per := np * cost
	for s0 := 0; s0 < steps; {
		n := min(max(e.room(per)/per, 1)*np, steps-s0)
		e.work += n * cost
		rec(s0, n)
		s0 += n
	}
}

// distinct reports whether the registers of a and b are pairwise
// distinct: a fused step executes a whole phase step in one pass, which is
// only what the step does when no register aliases another.
func distinct(a, b []Reg) bool {
	all := append(slices.Clone(a), b...)
	slices.Sort(all)
	return len(slices.Compact(all)) == len(a)+len(b)
}
