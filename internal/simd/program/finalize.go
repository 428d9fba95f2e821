package program

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// errBigEndian: Run reads the arena through an int16 view, which is the
// engine's little-endian byte order only on a little-endian host.
// Callers fall back to the interpreter, as for any compile error.
var errBigEndian = errors.New("program: replay needs a little-endian host")

// finalize derives everything Run needs from the fused segments —
// validation, live masks, extent, the pools the streams address and the
// descriptor streams themselves — and is the one place a program becomes
// runnable: Emit ends here.
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
// tail writes, walking the segment backwards (analyze). A loop's body is
// walked twice: first as its last trip, which the ops after the loop
// follow, then as any earlier trip, which the next trip follows. Liveness
// into a trip is the same from the second walk on, so the two give every
// trip's masks, and an op keeps the union. An address is validated, and
// counted in the extent, at its first trip and at its last.
func (p *Program) walkLive(ops []mop) (segLive, error) {
	nregs := p.nregs
	l := segLive{in: make([]bool, nregs/regStride)}
	live := l.in                       // read later in the segment, not written in between
	touched := make([]bool, len(live)) // read or written later in the segment
	var reads, writes []int32          // the op being walked, in visitEffects order
	var strides []int32                // of the op being walked: its addresses' strides, in operand order
	var last int64                     // trips of the loop being walked, less one
	var verr error
	check := func(addr, n int64) {
		if verr == nil && (addr < 0 || n < 0) {
			verr = fmt.Errorf("program: negative memory access [%d,+%d)", addr, n)
		}
		if verr == nil && addr&1 != 0 {
			verr = fmt.Errorf("program: memory access at odd address %d", addr)
		}
		l.extent = max(l.extent, addr+n)
	}
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
			check(addr, n)
			if last > 0 && len(strides) > 0 {
				check(addr+last*int64(strides[0]), n)
				strides = strides[1:]
			} else if last > 0 && verr == nil {
				verr = errors.New("program: a loop body has more addresses than strides")
			}
		},
	}
	walk := func(op *mop, union bool) error {
		reads, writes = reads[:0], writes[:0]
		if err := p.visitEffects(op, v); err != nil {
			return err
		}
		if verr != nil {
			return verr
		}
		if !union {
			op.live = 0
		}
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
		return nil
	}
	// The ops that begin an item: a loop header, or an op outside loops.
	var heads []int
	for i := 0; i < len(ops); i++ {
		heads = append(heads, i)
		if ops[i].kind == mLoop {
			if ops[i].n < 1 || int(ops[i].n) >= len(ops)-i {
				return l, fmt.Errorf("program: loop at op %d of %d ops overruns the segment", i, ops[i].n)
			}
			i += int(ops[i].n)
		}
	}
	for h := len(heads) - 1; h >= 0; h-- {
		i := heads[h]
		if ops[i].kind != mLoop {
			last = 0
			if err := walk(&ops[i], false); err != nil {
				return l, err
			}
			continue
		}
		body, all, err := p.loopAt(ops, i)
		if err != nil {
			return l, err
		}
		at := make([]int, len(body)+1)
		for j := range body {
			at[j+1] = at[j] + addrCount(&body[j])
		}
		for _, s := range all {
			if s&1 != 0 {
				return l, fmt.Errorf("program: loop at op %d moves an address by an odd stride %d", i, s)
			}
		}
		last = ops[i].imm - 1
		for pass := 0; pass < 2; pass++ {
			for j := len(body) - 1; j >= 0; j-- {
				strides = all[at[j]:at[j+1]]
				if err := walk(&body[j], pass == 1); err != nil {
					return l, err
				}
				if len(strides) != 0 {
					return l, fmt.Errorf("program: op kind %d in a loop at op %d has %d addresses", body[j].kind, i, at[j+1]-at[j]-len(strides))
				}
			}
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
// file entries, memory as byte ranges in operand order (addrAt), every
// register an op writes
// whether or not its record does (an intermediate of a lean op). It is the
// single authority on each kind's operand layout, which lower reads the
// same way. It returns an error — and guarantees the callbacks saw nothing out of
// the op's true layout — when the op is structurally malformed: unknown
// kind, aux window out of pool bounds, a table id out of range, or an
// immediate outside the range Run indexes with. The Emitter never appends
// such an op, so on an emitted program an error means a compiler bug.
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
	case mAddS, mSubS, mAnd, mOr, mXor:
		reg(op.a, false)
		reg(op.b, false)
		reg(op.d, true)
	case mSra:
		reg(op.a, false)
		reg(op.d, true)
	case mSetImm:
		if op.tab < 0 || int(op.tab) >= len(p.lanePats) {
			return fmt.Errorf("program: mSetImm pattern %d outside %d", op.tab, len(p.lanePats))
		}
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
			if err := p.checkTabs(t[4+2*s]); err != nil {
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
		mem(int64(t[3]), wb, true)
		for s := int32(0); s < op.n; s++ {
			if err := p.checkTabs(t[5+2*s]); err != nil {
				return err
			}
			mem(int64(t[4+2*s]), wb, false)
		}
		reg(int32(t[0]), true)
		reg(int32(t[1]), true)
		if op.n > 1 {
			reg(int32(t[2]), true)
		}
	case mAlphaStepP:
		t, err := aux(16)
		if err != nil {
			return err
		}
		if err := p.checkTabs(t[11], t[12], t[13], t[14], t[15]); err != nil {
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
		if err := p.checkTabs(t[10], t[11], t[12], t[13], t[14]); err != nil {
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
			if err := p.checkTabs(t[23], t[24], t[25]); err != nil {
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

// checkTabs verifies idxTabs ids are in range and long enough for
// per-lane indexing (what Emitter.tab established).
func (p *Program) checkTabs(ids ...int32) error {
	for _, id := range ids {
		if id < 0 || int(id) >= len(p.idxTabs) {
			return fmt.Errorf("program: index table %d outside %d", id, len(p.idxTabs))
		}
		if len(p.idxTabs[id]) < p.lanes {
			return fmt.Errorf("program: index table %d has %d lanes, need %d", id, len(p.idxTabs[id]), p.lanes)
		}
	}
	return nil
}
