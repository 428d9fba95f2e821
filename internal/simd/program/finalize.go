package program

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// errBigEndian: Run reads the arena through an int16 view, which is the
// engine's little-endian byte order only on a little-endian host.
// Callers fall back to the interpreter, as for any compile error.
var errBigEndian = errors.New("program: replay needs a little-endian host")

// finalize derives everything Run needs from the fused segments —
// validation, live masks, extent, the pools the streams address and the
// descriptor streams themselves — and is the one place a program becomes
// runnable: Compile and Emit end here.
func (p *Program) finalize() error {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return errBigEndian
	}
	if err := p.analyze(); err != nil {
		return err
	}
	p.resolve()
	for seg, ops := range p.segs {
		code, err := p.lower(ops)
		if err != nil {
			return err
		}
		p.code[seg] = code
	}
	return nil
}

// resolve builds the pools the streams address: gat from the index tables
// p holds, per vector the mask gatAnd that zeroes a VPERMW result's
// sentinel lanes, and the lane patterns zero-extended to whole registers.
// The vectors are interned by content, in order of first use: a W512 plan
// refers to 84 (K=40) to 12,332 (K=6144) tables but resolves them to 51 to
// 68 distinct vectors, a pool small enough to stay in L1. tabSlot maps each
// table id to its vector.
func (p *Program) resolve() {
	type vec struct{ gat, gatAnd [regStride]uint16 }
	slots := make(map[vec]int32)
	p.tabSlot = make([]int32, len(p.idxTabs))
	p.gat, p.gatAnd = nil, nil
	for t, tb := range p.idxTabs {
		var v vec
		for i := range v.gat {
			v.gat[i] = sentinel
			if i < p.lanes && i < len(tb) && tb[i] >= 0 && int(tb[i]) < p.lanes {
				v.gat[i] = uint16(tb[i])
				v.gatAnd[i] = 0xffff
			}
		}
		slot, ok := slots[v]
		if !ok {
			slot = int32(len(p.gat))
			slots[v] = slot
			p.gat, p.gatAnd = append(p.gat, v.gat), append(p.gatAnd, v.gatAnd)
		}
		p.tabSlot[t] = slot
	}
	p.gat, p.gatAnd = slices.Clip(p.gat), slices.Clip(p.gatAnd)
	p.pats = make([][regStride]int16, len(p.lanePats))
	for t, pat := range p.lanePats {
		copy(p.pats[t][:], pat)
	}
}

// lower translates a segment analyze has validated and marked into the
// descriptor stream of kern.go: one record an op, a run of lean trellis
// steps sharing their carried register and tables as one sweep record, and
// a stop record wherever the work since the last reaches yieldEvery. It is
// one forward pass and reads only what the visitEffects walk has been
// over; every operand it emits is checked again on the way out
// (lowerer.reg, .mem, .tab, .lane), against the register file, the extent
// that walk computed and the table pool, so the stream cannot address
// anything NewExec's extent check does not cover even if the two disagreed
// about an op's layout. It refuses an op that has no record kind, and a
// fused op whose intermediate registers a later op reads: the streams
// write only what a lean op writes. An error means the caller stays on the
// interpreter, as for any other compile error.
func (p *Program) lower(ops []mop) (code []uint32, err error) {
	lw := &lowerer{p: p, code: make([]uint32, 0, 8*len(ops))}
	for i := 0; i < len(ops) && lw.err == nil; {
		i += lw.op(ops, i)
	}
	lw.put(nStop, 0)
	return slices.Clone(lw.code), lw.err
}

type lowerer struct {
	p    *Program
	code []uint32
	work int // units of work since the last stop record
	err  error
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
	lw.code = append(append(lw.code, kind|uint32(n)<<8), words...)
}

// room returns how many units of work the next record may hold, after
// emitting the stop record that is due.
func (lw *lowerer) room() int {
	if lw.work >= yieldEvery {
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

// live refuses op i, whose intermediate registers a later op reads.
func (lw *lowerer) live(i int, op *mop) int {
	lw.fail("op %d (kind %d) has a live intermediate register", i, op.kind)
	return 1
}

// op lowers ops[i], or the sweep that starts there, and returns how many
// ops it consumed. The binary lane ops rely on mAddS..mAndN and
// nAddS..nAndN being declared in the same order.
func (lw *lowerer) op(ops []mop, i int) int {
	p, op := lw.p, &ops[i]
	wb := int64(2 * p.lanes)
	room := lw.room()
	lw.work++
	switch op.kind {
	case mClear:
		lw.put(nClear, 0, lw.reg(op.d))
	case mAddS, mSubS, mMaxS, mMinS, mAnd, mOr, mXor, mAndN:
		lw.put(nAddS+uint32(op.kind-mAddS), 0, lw.reg(op.d), lw.reg(op.a), lw.reg(op.b))
	case mSra:
		lw.put(nSra, shift(op.imm), lw.reg(op.d), lw.reg(op.a))
	case mBcastImm:
		lw.put(nBcastImm, int(uint16(op.imm)), lw.reg(op.d))
	case mBcastMem:
		lw.put(nBcastMem, 0, lw.reg(op.d), lw.mem(op.addr, 2))
	case mSetImm:
		if op.tab < 0 || int(op.tab) >= len(p.pats) {
			lw.fail("pattern %d outside %d", op.tab, len(p.pats))
		}
		lw.put(nSetImm, 0, lw.reg(op.d), uint32(op.tab)*2*regStride)
	case mPermute:
		lw.put(nPermute, 0, lw.reg(op.d), lw.reg(op.a), lw.tab(op.tab))
	case mExt128:
		lw.put(nLoadReg, 0, lw.reg(op.d), lw.lane(int64(op.a), 8*op.imm, 8), laneMask(8))
	case mExt256:
		lw.put(nLoadReg, 0, lw.reg(op.d), lw.lane(int64(op.a), 16*op.imm, 16), laneMask(16))
	case mLoad:
		lw.lane(int64(op.d), 0, op.imm/2)
		lw.put(nLoad, 0, lw.reg(op.d), lw.mem(op.addr, op.imm), laneMask(int(op.imm/2)))
	case mStore:
		lw.put(nStore, 0, lw.lane(int64(op.a), 0, op.imm/2), lw.mem(op.addr, op.imm), laneMask(int(op.imm/2)))
	case mExtrW:
		lw.put(nExtrW, 0, lw.lane(int64(op.a), op.imm, 1), lw.mem(op.addr, 2))
	case mCopyRun:
		// Four copies to a unit of work; a long run is cut at the yield.
		lw.work--
		for t := p.aux[op.tab : op.tab+2*op.n]; len(t) > 0; {
			n := min(len(t)/2, 4*lw.room())
			lw.put(nCopyRun, n)
			for _, a := range t[:2*n] {
				lw.code = append(lw.code, lw.mem(int64(a), 2))
			}
			lw.work += (n + 3) / 4
			t = t[2*n:]
		}
	case mExtVec:
		if op.live != 0 {
			return lw.live(i, op)
		}
		t := p.aux[op.tab : op.tab+11]
		lw.put(nExtVec, shift(op.imm), lw.reg(t[5]), lw.reg(t[6]),
			lw.mem(int64(t[7]), wb), lw.mem(int64(t[8]), wb), lw.mem(int64(t[9]), wb), lw.mem(int64(t[10]), wb))
	case mQuadScatter:
		if op.live != 0 {
			return lw.live(i, op)
		}
		t := p.aux[op.tab : op.tab+3+2*op.n]
		lw.put(nMergeReg, int(op.n), lw.mem(int64(t[2]), wb))
		for t = t[3:]; len(t) > 0; t = t[2:] {
			lw.code = append(lw.code, lw.reg(t[0]), lw.tab(t[1]))
		}
		lw.work += int(op.n) / 4
	case mQuadGather:
		if op.live != 0 {
			return lw.live(i, op)
		}
		t := p.aux[op.tab : op.tab+4+2*op.n]
		lw.put(nMergeMem, int(op.n), lw.mem(int64(t[3]), wb))
		for t = t[4:]; len(t) > 0; t = t[2:] {
			lw.code = append(lw.code, lw.mem(int64(t[0]), wb), lw.tab(t[1]))
		}
		lw.work += int(op.n) / 4
	case mAlphaStepP, mBetaStepP:
		if !leanStep(op) {
			return lw.live(i, op)
		}
		if op.n > regStride {
			lw.fail("op %d extracts %d lanes of a %d-lane register", i, op.n, regStride)
			return 1
		}
		// A step with many extractions counts for more than one unit.
		n, cost := 1, 1+int(op.n)/8
		for n < room/cost && i+n < len(ops) && p.sameSweep(op, &ops[i+n]) {
			n++
		}
		lw.sweep(ops[i:i+n], wb)
		lw.work += n*cost - 1
		return n
	default:
		lw.fail("op %d has kind %d, which no record kind runs", i, op.kind)
	}
	return 1
}

// leanStep reports whether a trellis step writes nothing but its carried
// register that a later op reads.
func leanStep(op *mop) bool {
	if op.kind == mAlphaStepP {
		return op.live&0xff == 0
	}
	return op.live&^(1<<7) == 0
}

// sameSweep reports whether step b can follow step a in one sweep record:
// the same kind and form, lean, and the same carried register, tables and
// extracted lanes, which the record holds once.
func (p *Program) sameSweep(a, b *mop) bool {
	if b.kind != a.kind || b.imm != a.imm || b.n != a.n || !leanStep(b) {
		return false
	}
	ta, tb := p.aux[a.tab:], p.aux[b.tab:]
	if a.kind == mAlphaStepP {
		return ta[8] == tb[8] && slices.Equal(ta[11:16], tb[11:16])
	}
	if ta[7] != tb[7] || !slices.Equal(ta[10:15], tb[10:15]) {
		return false
	}
	if a.imm == 0 {
		return true
	}
	for x := int32(0); x < a.n; x++ {
		if ta[27+2*x] != tb[27+2*x] {
			return false
		}
	}
	return slices.Equal(ta[23:26], tb[23:26])
}

// sweep emits one sweep record for steps, which sameSweep has matched.
func (lw *lowerer) sweep(steps []mop, wb int64) {
	p, op := lw.p, &steps[0]
	t := p.aux[op.tab:]
	switch {
	case op.kind == mAlphaStepP:
		lw.put(nAlphaSweep, len(steps), lw.reg(t[8]),
			lw.tab(t[11]), lw.tab(t[12]), lw.tab(t[13]), lw.tab(t[14]), lw.tab(t[15]))
		for i := range steps {
			t := p.aux[steps[i].tab:]
			lw.code = append(lw.code, lw.mem(int64(t[9]), wb), lw.mem(int64(t[10]), wb))
		}
	case op.imm == 0:
		lw.put(nBetaSweep, len(steps), lw.reg(t[7]),
			lw.tab(t[10]), lw.tab(t[11]), lw.tab(t[12]), lw.tab(t[13]), lw.tab(t[14]))
		for i := range steps {
			lw.code = append(lw.code, lw.mem(int64(p.aux[steps[i].tab+9]), wb))
		}
	default:
		nx := int(op.n)
		lw.put(nBetaExtSweep, len(steps), lw.reg(t[7]),
			lw.tab(t[10]), lw.tab(t[11]), lw.tab(t[12]), lw.tab(t[13]), lw.tab(t[14]),
			lw.tab(t[23]), lw.tab(t[24]), lw.tab(t[25]), uint32(nx))
		// The extracted lanes as the index operand of one VPERMW: a whole
		// register of words, two to a stream word.
		var lanes [regStride / 2]uint32
		for x := 0; x < nx; x++ {
			lanes[x/2] |= lw.lane(0, int64(t[27+2*x]), 1) / 2 << (16 * (x % 2))
		}
		lw.code = append(lw.code, lanes[:]...)
		for i := range steps {
			t := p.aux[steps[i].tab:]
			lw.code = append(lw.code, lw.mem(int64(t[9]), wb), lw.mem(int64(t[22]), wb))
			for x := 0; x < nx; x++ {
				lw.code = append(lw.code, lw.mem(int64(t[26+2*x]), 2))
			}
		}
	}
}

// analyze is the one walk of visitEffects finalize makes over every op
// (two walks measured 1.1 ms on the 3 ms K=512 compile). It validates:
// register offsets inside the register file, memory ranges non-negative
// and at even addresses (Run views the arena as int16 lanes); visitEffects
// itself rejects malformed aux windows, table ids and immediates. It
// records the end of the highest range as the program's extent, which
// NewExec checks the region it is handed against. And it sets every op's
// live mask.
//
// Registers are private to an execution state and region bytes are the only
// observable state, so a register write is needed only if some later op
// reads it first. Each segment is walked backwards. A write followed in
// its segment by a read is live, one followed by another write is dead,
// and one that reaches the end of the segment untouched is as live as the
// register is at a segment boundary. A decode runs SegFirst, then
// SegSteady any number of times, then the next decode's SegFirst, so
// both segments share one live-out set: whatever is live into either.
// That is the registers some segment reads before writing them (what the
// backward walk has left live when it reaches the segment's first op): a
// register is live at a boundary when the ops that follow read it before
// they write it, and the first of them to touch it does so in some
// segment, ahead of that segment's writes.
func (p *Program) analyze() error {
	var live [2]segLive
	boundary := make([]bool, p.nregs/regStride)
	p.extent = 0
	for seg, ops := range p.segs {
		l, err := p.walkLive(ops)
		if err != nil {
			return err
		}
		live[seg] = l
		p.extent = max(p.extent, l.extent)
		for id, in := range l.in {
			boundary[id] = boundary[id] || in
		}
	}
	for seg := range live {
		live[seg].setTails(boundary)
	}
	return nil
}

// segLive is what the backward walk of one segment leaves: the registers
// the segment reads before it writes them (live into it), the writes that
// reach its end untouched, and the end of the highest byte range it
// touches.
type segLive struct {
	in     []bool
	tails  []tailWrite
	extent int64
}

// tailWrite is the bit-th register write of op, to register id, which no
// later op of its segment reads or writes.
type tailWrite struct {
	op  *mop
	bit int
	id  int32
}

// setTails marks live the tail writes to a register live at a segment
// boundary.
func (l *segLive) setTails(boundary []bool) {
	for _, w := range l.tails {
		if boundary[w.id] {
			w.op.live |= 1 << w.bit
		}
	}
}

// walkLive validates ops and sets their live masks, all but the bits of
// tail writes, walking the segment backwards (analyze).
func (p *Program) walkLive(ops []mop) (segLive, error) {
	nregs := p.nregs
	l := segLive{in: make([]bool, nregs/regStride)}
	live := l.in                       // read later in the segment, not written in between
	touched := make([]bool, len(live)) // read or written later in the segment
	var reads, writes []int32          // the op being walked, in visitEffects order
	var verr error
	v := &effectVisitor{
		reg: func(off int32, write bool) {
			if off < 0 || off+regStride > nregs {
				if verr == nil {
					verr = fmt.Errorf("program: register offset %d outside file of %d lanes", off, nregs)
				}
			} else if write {
				writes = append(writes, off/regStride)
			} else {
				reads = append(reads, off/regStride)
			}
		},
		mem: func(addr, n int64, write bool) {
			if verr == nil && (addr < 0 || n < 0) {
				verr = fmt.Errorf("program: negative memory access [%d,+%d)", addr, n)
			}
			if verr == nil && addr&1 != 0 {
				verr = fmt.Errorf("program: memory access at odd address %d", addr)
			}
			l.extent = max(l.extent, addr+n)
		},
	}
	for i := len(ops) - 1; i >= 0; i-- {
		op := &ops[i]
		reads, writes = reads[:0], writes[:0]
		if err := p.visitEffects(op, v); err != nil {
			return l, err
		}
		if verr != nil {
			return l, verr
		}
		op.live = 0
		for k, id := range writes {
			if live[id] {
				op.live |= 1 << k
			} else if !touched[id] {
				l.tails = append(l.tails, tailWrite{op, k, id})
			}
		}
		// Writes kill before reads revive: an op reporting both for
		// one register (the carried alpha/beta) keeps it live.
		for _, id := range writes {
			live[id], touched[id] = false, true
		}
		for _, id := range reads {
			live[id], touched[id] = true, true
		}
	}
	return l, nil
}

// effectVisitor receives one mop's effects. Nil callbacks are skipped.
type effectVisitor struct {
	// reg is called with a register lane offset (regID*regStride).
	reg func(off int32, write bool)
	// mem is called with a byte range [addr, addr+n).
	mem func(addr, n int64, write bool)
}

// visitEffects walks op's reads and writes: registers as whole register
// file entries, memory as byte ranges, every register an op writes
// whether or not its record does (an intermediate of a lean op). It is the
// single authority on each kind's operand layout, which lower reads the
// same way. It returns an error — and guarantees the callbacks saw nothing out of
// the op's true layout — when the op is structurally malformed: unknown
// kind, aux window out of pool bounds, a table id out of range, or an
// immediate outside the range Run indexes with. The matchers never emit
// such an op, so on a compiled program an error means a compiler bug.
func (p *Program) visitEffects(op *mop, v *effectVisitor) error {
	reg := v.reg
	if reg == nil {
		reg = func(int32, bool) {}
	}
	mem := v.mem
	if mem == nil {
		mem = func(int64, int64, bool) {}
	}
	// aux returns the op's aux window after bounds-checking it.
	aux := func(need int32) ([]int32, error) {
		if need < 0 || op.tab < 0 || int(op.tab)+int(need) > len(p.aux) {
			return nil, fmt.Errorf("program: op kind %d aux window [%d,+%d) outside pool of %d", op.kind, op.tab, need, len(p.aux))
		}
		return p.aux[op.tab : op.tab+need], nil
	}
	wb := int64(2 * p.lanes)

	switch op.kind {
	case mClear, mBcastImm:
		reg(op.d, true)
	case mAddS, mSubS, mMaxS, mMinS, mAnd, mOr, mXor, mAndN:
		reg(op.a, false)
		reg(op.b, false)
		reg(op.d, true)
	case mSra:
		reg(op.a, false)
		reg(op.d, true)
	case mBcastMem:
		mem(op.addr, 2, false)
		reg(op.d, true)
	case mSetImm:
		if op.tab < 0 || int(op.tab) >= len(p.lanePats) {
			return fmt.Errorf("program: mSetImm pattern %d outside %d", op.tab, len(p.lanePats))
		}
		reg(op.d, true)
	case mPermute:
		if op.tab < 0 || int(op.tab) >= len(p.idxTabs) {
			return fmt.Errorf("program: mPermute table %d outside %d", op.tab, len(p.idxTabs))
		}
		reg(op.a, false)
		reg(op.d, true)
	case mExt128:
		if op.imm < 0 || 8*op.imm+8 > regStride {
			return fmt.Errorf("program: mExt128 sel %d out of range", op.imm)
		}
		reg(op.a, false)
		reg(op.d, true)
	case mExt256:
		if op.imm < 0 || 16*op.imm+16 > regStride {
			return fmt.Errorf("program: mExt256 sel %d out of range", op.imm)
		}
		reg(op.a, false)
		reg(op.d, true)
	case mLoad:
		if op.imm < 0 || op.imm/2 > regStride {
			return fmt.Errorf("program: mLoad of %d bytes out of range", op.imm)
		}
		mem(op.addr, op.imm, false)
		reg(op.d, true)
	case mStore:
		if op.imm < 0 || op.imm/2 > regStride {
			return fmt.Errorf("program: mStore of %d bytes out of range", op.imm)
		}
		reg(op.a, false)
		mem(op.addr, op.imm, true)
	case mExtrW:
		if op.imm < 0 || op.imm >= regStride {
			return fmt.Errorf("program: mExtrW lane %d out of range", op.imm)
		}
		reg(op.a, false)
		mem(op.addr, 2, true)
	case mCopyRun:
		if op.n < 1 {
			return fmt.Errorf("program: mCopyRun n=%d", op.n)
		}
		t, err := aux(2 * op.n)
		if err != nil {
			return err
		}
		for i := 0; i < len(t); i += 2 {
			mem(int64(t[i+1]), 2, false)
			mem(int64(t[i]), 2, true)
		}
	case mExtVec:
		t, err := aux(11)
		if err != nil {
			return err
		}
		for _, o := range t[:5] {
			reg(int32(o), true)
		}
		reg(int32(t[5]), false)
		reg(int32(t[6]), false)
		mem(int64(t[7]), wb, false)
		mem(int64(t[8]), wb, false)
		mem(int64(t[9]), wb, false)
		mem(int64(t[10]), wb, true)
	case mQuadScatter:
		if op.n < 2 {
			return fmt.Errorf("program: mQuadScatter n=%d", op.n)
		}
		t, err := aux(3 + 2*op.n)
		if err != nil {
			return err
		}
		for s := int32(0); s < op.n; s++ {
			if err := p.checkTabs(true, t[4+2*s]); err != nil {
				return err
			}
			reg(int32(t[3+2*s]), false)
		}
		reg(int32(t[0]), true)
		reg(int32(t[1]), true)
		mem(int64(t[2]), wb, true)
	case mQuadGather:
		if op.n < 1 {
			return fmt.Errorf("program: mQuadGather n=%d", op.n)
		}
		t, err := aux(4 + 2*op.n)
		if err != nil {
			return err
		}
		for s := int32(0); s < op.n; s++ {
			if err := p.checkTabs(true, t[5+2*s]); err != nil {
				return err
			}
			mem(int64(t[4+2*s]), wb, false)
		}
		reg(int32(t[0]), true)
		reg(int32(t[1]), true)
		if op.n > 1 {
			reg(int32(t[2]), true)
		}
		mem(int64(t[3]), wb, true)
	case mAlphaStepP:
		t, err := aux(16)
		if err != nil {
			return err
		}
		if err := p.checkTabs(true, t[11], t[12], t[13], t[14], t[15]); err != nil {
			return err
		}
		for _, o := range t[:8] {
			reg(int32(o), true)
		}
		reg(int32(t[8]), false) // alpha: read then rewritten
		reg(int32(t[8]), true)
		mem(int64(t[9]), wb, false)
		mem(int64(t[10]), wb, true)
	case mBetaStepP:
		need := int32(15)
		if op.imm != 0 {
			if op.n < 1 {
				return fmt.Errorf("program: mBetaStepP extract n=%d", op.n)
			}
			need = 26 + 2*op.n
		}
		t, err := aux(need)
		if err != nil {
			return err
		}
		if err := p.checkTabs(true, t[10], t[11], t[12], t[13], t[14]); err != nil {
			return err
		}
		for _, o := range t[:7] {
			reg(int32(o), true)
		}
		reg(int32(t[7]), false) // beta: read then rewritten
		reg(int32(t[7]), true)
		reg(int32(t[8]), true)
		mem(int64(t[9]), wb, false)
		if op.imm != 0 {
			if err := p.checkTabs(true, t[23], t[24], t[25]); err != nil {
				return err
			}
			for _, o := range t[15:22] {
				reg(int32(o), true)
			}
			mem(int64(t[22]), wb, false)
			et := t[26 : 26+2*op.n]
			for x := 0; x < len(et); x += 2 {
				if lane := et[x+1]; lane < 0 || lane >= regStride {
					return fmt.Errorf("program: mBetaStepP extract lane %d out of range", lane)
				}
				mem(int64(et[x]), 2, true)
			}
		}
	default:
		return fmt.Errorf("program: unknown op kind %d", op.kind)
	}
	return nil
}

// checkTabs verifies idxTabs ids are in range and, when full is set,
// long enough for per-lane indexing without permute's short-table
// guard (what fullTabs established at fuse time).
func (p *Program) checkTabs(full bool, ids ...int32) error {
	for _, id := range ids {
		if id < 0 || int(id) >= len(p.idxTabs) {
			return fmt.Errorf("program: index table %d outside %d", id, len(p.idxTabs))
		}
		if full && len(p.idxTabs[id]) < p.lanes {
			return fmt.Errorf("program: index table %d has %d lanes, need %d", id, len(p.idxTabs[id]), p.lanes)
		}
	}
	return nil
}
