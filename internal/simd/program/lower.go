package program

import (
	"fmt"
	"math"
	"slices"
)

// lower translates a segment analyze has validated and marked into the
// descriptor stream of kern.go: one record an op; a trellis step, or a loop
// of trellis steps, as one sweep record holding a base and a stride per
// address; any other loop as a loop record holding its body's records and
// a stride per moving address word; and a stop record wherever the work
// since the last reaches yieldEvery, cutting a long sweep or loop into
// pieces. It is one forward pass and reads only what the visitEffects
// walk has been over; every operand it emits is checked again on the way
// out (lowerer.reg, .mem, .tab, .lane), against the register file, the
// extent that walk computed and the table pool — a moving address at its
// first and at its last trip — so the stream cannot address anything
// NewExec's extent check does not cover even if the two disagreed about
// an op's layout. It refuses an op that has no record kind, and a fused op
// whose intermediate registers a later op reads: the streams write only
// what a lean op writes. An error means the caller stays on the
// interpreter, as for any other compile error.
func (p *Program) lower(ops []mop) (code []uint32, err error) {
	lw := &lowerer{p: p, wb: int64(2 * p.lanes), code: make([]uint32, 0, 8*len(ops)), unroll: 1}
	for i := 0; i < len(ops) && lw.err == nil; {
		i += lw.item(ops, i)
	}
	lw.put(nStop, 0)
	return slices.Clone(lw.code), lw.err
}

type lowerer struct {
	p    *Program
	wb   int64 // bytes of an L-lane line
	code []uint32
	work int // units of work since the last stop record
	err  error

	// While a loop's body is lowered: the strides of the addresses still
	// to come, in operand order, and the trip whose addresses the records
	// take. Inside a loop record (trips > 0): its trip count, the copies of
	// the body a trip runs, the strides of its classes, the header of the
	// record being lowered and its class, the class the records before it
	// leave in place, and whether some record's addresses move by strides
	// of two classes, or the classes ran out.
	strides  []int32
	at       int64
	trips    int64
	unroll   int64
	classes  []int64
	rec      int
	recClass int
	cur      int
	mixed    bool
}

func (lw *lowerer) fail(format string, args ...any) {
	if lw.err == nil {
		lw.err = fmt.Errorf("program: lowering: "+format, args...)
	}
}

// put appends a record header and operand words.
func (lw *lowerer) put(kind uint32, n int, words ...uint32) {
	if n < 0 || n >= 1<<24 {
		lw.fail("record count %d does not fit a header", n)
	}
	lw.rec, lw.recClass = len(lw.code), -1
	lw.code = append(append(lw.code, kind|uint32(n)<<8), words...)
}

// room returns how many units of work the next record may hold, after
// emitting the stop record that is due: at once when the work since the
// last reaches yieldEvery, and early when less than need is left.
func (lw *lowerer) room(need int) int {
	if lw.work >= yieldEvery || lw.work > 0 && yieldEvery-lw.work < need {
		lw.put(nStop, 0)
		lw.work = 0
	}
	return yieldEvery - lw.work
}

// reg is the byte offset of the register at lane offset off.
func (lw *lowerer) reg(off int32) uint32 { return lw.lane(int64(off), 0, regStride) }

// lane is the byte offset of lanes [from, from+n) of the register at lane
// offset off.
func (lw *lowerer) lane(off, from, n int64) uint32 {
	if off < 0 || off+regStride > int64(lw.p.nregs) || from < 0 || n < 0 || from+n > regStride {
		lw.fail("lanes [%d,+%d) of register offset %d outside the file", from, n, off)
		return 0
	}
	return uint32(2 * (off + from))
}

// mem is the arena byte offset addr of an n-byte access.
func (lw *lowerer) mem(addr, n int64) uint32 {
	if addr < 0 || addr&1 != 0 || n < 0 || addr+n > lw.p.extent || addr > math.MaxUint32 {
		lw.fail("memory access [%d,+%d) outside the extent %d", addr, n, lw.p.extent)
		return 0
	}
	return uint32(addr)
}

// addr appends the address word of an n-byte access at a. In a loop body a
// is trip 0's, moved to the trip lowered. In a loop record the access at
// the last trip is checked as well, and the record's addresses are the
// base of the class of their stride plus their words: a base record naming
// the class goes before the record unless the class is already in place.
func (lw *lowerer) addr(a, n int64) {
	if lw.strides != nil {
		if len(lw.strides) == 0 {
			lw.fail("loop body has more addresses than strides")
			return
		}
		s := int64(lw.strides[0])
		lw.strides = lw.strides[1:]
		a += lw.at * s
		if s *= lw.unroll; lw.trips > 0 {
			lw.mem(a+(lw.trips-1)*s, n)
			c := slices.Index(lw.classes, s)
			if c < 0 {
				c, lw.classes = len(lw.classes), append(lw.classes, s)
			}
			switch {
			case c >= maxClasses || lw.recClass >= 0 && lw.recClass != c:
				lw.mixed = true
			case lw.recClass < 0 && c != lw.cur:
				lw.code = slices.Insert(lw.code, lw.rec, nBase|uint32(c+1)<<8)
				lw.rec++
				lw.cur = c
			}
			lw.recClass = c
		}
	}
	lw.code = append(lw.code, lw.mem(a, n))
}

// tab is the byte offset in gat and gatAnd of index table id's vector.
func (lw *lowerer) tab(id int32) uint32 {
	if id < 0 || int(id) >= len(lw.p.tabSlot) {
		lw.fail("index table %d outside %d", id, len(lw.p.tabSlot))
		return 0
	}
	slot := lw.p.tabSlot[id]
	if slot < 0 || int(slot) >= len(lw.p.gat) {
		lw.fail("index table %d in slot %d outside the pool of %d", id, slot, len(lw.p.gat))
		return 0
	}
	return uint32(slot) * 2 * regStride
}

// shift is a VPSRAW count: any count above 15 fills with the sign, as Go's
// >> does.
func shift(imm int64) int { return int(min(uint64(imm), 16)) }

// item lowers the op at ops[i], or the loop it heads, and returns how many
// ops it consumed.
func (lw *lowerer) item(ops []mop, i int) int {
	op := &ops[i]
	switch op.kind {
	case mLoop:
		return lw.loop(ops, i)
	case mAlphaStepP, mBetaStepP:
		if sw, ok := lw.sweepOf(ops[i:i+1], nil, 1); ok {
			lw.sweep(&sw)
		}
	default:
		lw.room(1)
		lw.work += lw.single(op)
	}
	return 1
}

// laneOps is the record kind of each binary lane op.
var laneOps = [...]uint32{mAddS: nAddS, mSubS: nSubS, mAnd: nAnd, mOr: nOr, mXor: nXor}

// single emits the record of op and returns its units of work: one, and
// one for every four sources of a merge. A trellis step is a sweep of one
// step.
func (lw *lowerer) single(op *mop) int {
	p, wb := lw.p, lw.wb
	switch op.kind {
	case mClear:
		lw.put(nClear, 0, lw.reg(op.d))
	case mAddS, mSubS, mAnd, mOr, mXor:
		lw.put(laneOps[op.kind], 0, lw.reg(op.d), lw.reg(op.a), lw.reg(op.b))
	case mSra:
		lw.put(nSra, shift(op.imm), lw.reg(op.d), lw.reg(op.a))
	case mBcastImm:
		lw.put(nBcastImm, int(uint16(op.imm)), lw.reg(op.d))
	case mSetImm:
		if op.tab < 0 || int(op.tab) >= len(p.pats) {
			lw.fail("pattern %d outside %d", op.tab, len(p.pats))
		}
		lw.put(nSetImm, 0, lw.reg(op.d), uint32(op.tab)*2*regStride)
	case mExt128:
		lw.put(nLoadReg, 0, lw.reg(op.d), lw.lane(int64(op.a), 8*op.imm, 8), laneMask(8))
	case mExt256:
		lw.put(nLoadReg, 0, lw.reg(op.d), lw.lane(int64(op.a), 16*op.imm, 16), laneMask(16))
	case mLoad:
		lw.lane(int64(op.d), 0, op.imm/2)
		lw.put(nLoad, 0, lw.reg(op.d))
		lw.addr(op.addr, op.imm)
		lw.code = append(lw.code, laneMask(int(op.imm/2)))
	case mStore:
		lw.put(nStore, 0, lw.lane(int64(op.a), 0, op.imm/2))
		lw.addr(op.addr, op.imm)
		lw.code = append(lw.code, laneMask(int(op.imm/2)))
	case mExtrW:
		lw.put(nExtrW, 0, lw.lane(int64(op.a), op.imm, 1))
		lw.addr(op.addr, 2)
	case mExtVec:
		if op.live != 0 {
			lw.live(op)
			return 1
		}
		t := p.aux[op.tab : op.tab+11]
		lw.put(nExtVec, shift(op.imm), lw.reg(t[5]), lw.reg(t[6]))
		for _, a := range t[7:] {
			lw.addr(int64(a), wb)
		}
	case mQuadScatter:
		if op.live != 0 {
			lw.live(op)
			return 1
		}
		t := p.aux[op.tab : op.tab+3+2*op.n]
		lw.put(nMergeReg, int(op.n))
		lw.addr(int64(t[2]), wb)
		for t = t[3:]; len(t) > 0; t = t[2:] {
			lw.code = append(lw.code, lw.reg(t[0]), lw.tab(t[1]))
		}
		return 1 + int(op.n)/4
	case mQuadGather:
		if op.live != 0 {
			lw.live(op)
			return 1
		}
		t := p.aux[op.tab : op.tab+4+2*op.n]
		lw.put(nMergeMem, int(op.n))
		lw.addr(int64(t[3]), wb)
		for t = t[4:]; len(t) > 0; t = t[2:] {
			lw.addr(int64(t[0]), wb)
			lw.code = append(lw.code, lw.tab(t[1]))
		}
		return 1 + int(op.n)/4
	case mAlphaStepP, mBetaStepP:
		if sw, ok := lw.sweepOf([]mop{*op}, nil, 1); ok {
			lw.sweepRecord(&sw, 0, 1)
			return sw.cost
		}
	default:
		lw.fail("op kind %d, which no record kind runs", op.kind)
	}
	return 1
}

// live refuses op, whose intermediate registers a later op reads.
func (lw *lowerer) live(op *mop) {
	lw.fail("an op of kind %d has a live intermediate register", op.kind)
}

// minTrip is the fewest records a loop record's trip runs: a shorter body
// is unrolled, so that the record's cost a trip, about one record's, is
// spread over several.
const minTrip = 8

// loop lowers the loop headed by ops[i] and returns how many ops it
// consumed: a loop of trellis steps as a sweep, any other as loop records
// and, for the trips a short body's unrolled copies do not divide, its
// records. The body's copies are lowered once, as trip 0, to a definition
// the first loop record holds: the strides of its classes, then its
// records, each record's addresses of one class. That record runs as many
// trips as the room left holds; each further piece is a loop record of its
// own naming the definition and its first trip. A body whose records
// cannot be given classes, a record with addresses that move by two
// strides or more strides than classes, is lowered trip by trip.
func (lw *lowerer) loop(ops []mop, i int) int {
	body, strides, err := lw.p.loopAt(ops, i)
	if err != nil {
		lw.fail("%v", err)
		return 1
	}
	trips := int(ops[i].imm)
	if sw, ok := lw.sweepOf(body, strides, trips); ok {
		lw.sweep(&sw)
		return 1 + len(body)
	}
	u := min((minTrip+len(body)-1)/len(body), trips)
	rolled := trips / u
	outer, work := lw.code, lw.work
	lw.code, lw.trips, lw.unroll, lw.classes, lw.mixed = make([]uint32, 0, 8*u*len(body)), int64(rolled), int64(u), nil, false
	lw.cur = 0 // a trip starts at class 1
	for c := range u {
		lw.strides, lw.at = strides, int64(c)
		for j := range body {
			lw.work += lw.single(&body[j])
		}
		if len(lw.strides) != 0 {
			lw.fail("loop at op %d has %d strides too many", i, len(lw.strides))
		}
	}
	lw.put(nEnd, 0)
	def, perTrip := lw.code, lw.work-work
	lw.code, lw.work, lw.trips, lw.unroll = outer, work, 0, 1
	if lw.mixed {
		rolled = 0
	}
	at := -1
	for t0 := 0; t0 < rolled; {
		n := min(max(lw.room(perTrip)/perTrip, 1), rolled-t0)
		lw.work += n * perTrip
		if at < 0 {
			at = len(lw.code)
			lw.put(nLoop, n, 0, 0, uint32(len(lw.classes)))
			for _, s := range lw.classes {
				lw.code = append(lw.code, uint32(s))
			}
			lw.code = append(append(lw.code, uint32(len(def))), def...)
		} else {
			lw.put(nLoop, n, uint32(t0), uint32(len(lw.code)-at))
		}
		t0 += n
	}
	for t := rolled * u; t < trips; t++ {
		lw.room(perTrip / u)
		lw.strides, lw.at = strides, int64(t)
		for j := range body {
			lw.work += lw.single(&body[j])
		}
	}
	lw.strides, lw.at = nil, 0
	return 1 + len(body)
}

// sweepRun is a sweep: steps steps of op's form, a step costing cost
// units. Step s reads its quad line at q + s·dq, an alpha sweep stores to
// out[0] + s·dout, and a beta sweep with extraction reads its alpha line
// at al + s·dal and stores its words to the row s mod np of the np×nx
// table out, moved by (s/np)·dout.
type sweepRun struct {
	op          *mop
	steps, cost int
	np          int
	q, dq       int64
	al, dal     int64
	out         []int64
	dout        int64
}

// sweepOf reports the sweep a body of trellis steps run trips times forms,
// strides its addresses' strides (nil for one pass): one step of the
// alpha form or the beta tail form, or np steps of the beta form with
// extraction alike but for their addresses, whose quad and alpha lines
// each move by one stride a step. It refuses a step that is not lean.
func (lw *lowerer) sweepOf(steps []mop, strides []int32, trips int) (sweepRun, bool) {
	op := &steps[0]
	for j := range steps {
		if k := steps[j].kind; k != mAlphaStepP && k != mBetaStepP {
			return sweepRun{}, false
		}
		if !leanStep(&steps[j]) {
			lw.live(&steps[j])
			return sweepRun{}, false
		}
	}
	np, na := len(steps), addrCount(op)
	st := func(j, k int) int64 {
		if strides == nil {
			return 0
		}
		return int64(strides[j*na+k])
	}
	aux := func(j int) []int32 { return lw.p.words(&steps[j]) }
	t := aux(0)
	sw := sweepRun{op: op, steps: np * trips, cost: 1, np: np, q: int64(t[9]), dq: st(0, 0)}
	switch {
	case np > 1 && (op.kind == mAlphaStepP || op.imm == 0):
		return sweepRun{}, false
	case op.kind == mAlphaStepP:
		sw.out, sw.dout = []int64{int64(t[10])}, st(0, 1)
	case op.imm != 0:
		nx := int(op.n)
		sw.cost += nx / 8
		sw.al, sw.dal, sw.dout = int64(t[22]), st(0, 1), st(0, 2)
		if np > 1 {
			sw.dq, sw.dal = int64(aux(1)[9])-sw.q, int64(aux(1)[22])-sw.al
		}
		for j := range steps {
			tj := aux(j)
			if !sameShape(&steps[j], tj, op, t) || int64(tj[9]) != sw.q+int64(j)*sw.dq || int64(tj[22]) != sw.al+int64(j)*sw.dal {
				return sweepRun{}, false
			}
			if strides != nil && (st(j, 0) != int64(np)*sw.dq || st(j, 1) != int64(np)*sw.dal) {
				return sweepRun{}, false
			}
			for x := 0; x < nx; x++ {
				if strides != nil && st(j, 2+x) != sw.dout {
					return sweepRun{}, false
				}
				sw.out = append(sw.out, int64(tj[26+2*x]))
			}
		}
	}
	return sw, true
}

// sweep emits sw as sweep records, cut where the room left runs out, each
// piece a whole number of periods.
func (lw *lowerer) sweep(sw *sweepRun) {
	per := sw.np * sw.cost
	for s0 := 0; s0 < sw.steps; {
		n := min(max(lw.room(per)/per, 1)*sw.np, sw.steps-s0)
		lw.work += n * sw.cost
		lw.sweepRecord(sw, s0, n)
		s0 += n
	}
}

// sweepRecord emits the record of steps [s0, s0+n) of sw, s0 and n whole
// periods. Each address is checked at its first step and its last.
func (lw *lowerer) sweepRecord(sw *sweepRun, s0, n int) {
	op, wb := sw.op, lw.wb
	t := lw.p.aux[op.tab:]
	base := func(a, d int64, k int, size int64) {
		lw.mem(a+int64(k-1)*d, size)
		lw.addr(a, size)
	}
	stride := func(d int64) { lw.code = append(lw.code, uint32(int32(d))) }
	q := sw.q + int64(s0)*sw.dq
	switch {
	case op.kind == mAlphaStepP:
		lw.put(nAlphaSweep, n, lw.reg(t[8]),
			lw.tab(t[11]), lw.tab(t[12]), lw.tab(t[13]), lw.tab(t[14]), lw.tab(t[15]))
		base(q, sw.dq, n, wb)
		stride(sw.dq)
		base(sw.out[0]+int64(s0)*sw.dout, sw.dout, n, wb)
		stride(sw.dout)
	case op.imm == 0:
		lw.put(nBetaSweep, n, lw.reg(t[7]),
			lw.tab(t[10]), lw.tab(t[11]), lw.tab(t[12]), lw.tab(t[13]), lw.tab(t[14]))
		base(q, sw.dq, n, wb)
		stride(sw.dq)
	default:
		nx := int(op.n)
		if nx > regStride {
			lw.fail("a beta step extracts %d lanes of a %d-lane register", nx, regStride)
			return
		}
		lw.put(nBetaExtSweep, n, lw.reg(t[7]),
			lw.tab(t[10]), lw.tab(t[11]), lw.tab(t[12]), lw.tab(t[13]), lw.tab(t[14]),
			lw.tab(t[23]), lw.tab(t[24]), lw.tab(t[25]), uint32(nx))
		// The extracted lanes as the index operand of one VPERMW: a whole
		// register of words, two to a stream word.
		var lanes [regStride / 2]uint32
		for x := 0; x < nx; x++ {
			lanes[x/2] |= lw.lane(0, int64(t[27+2*x]), 1) / 2 << (16 * (x % 2))
		}
		lw.code = append(lw.code, lanes[:]...)
		base(q, sw.dq, n, wb)
		stride(sw.dq)
		base(sw.al+int64(s0)*sw.dal, sw.dal, n, wb)
		stride(sw.dal)
		stride(sw.dout)
		lw.code = append(lw.code, uint32(sw.np))
		periods, from := n/sw.np, int64(s0/sw.np)*sw.dout
		for _, a := range sw.out {
			base(a+from, sw.dout, periods, 2)
		}
	}
}

// leanStep reports whether a trellis step writes nothing but its carried
// register that a later op reads.
func leanStep(op *mop) bool {
	if op.kind == mAlphaStepP {
		return op.live&0xff == 0
	}
	return op.live&^(1<<7) == 0
}
