package program

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// errBigEndian: Run reads the arena through an int16 view, which is the
// engine's little-endian byte order only on a little-endian host.
// Callers fall back to the interpreter, as for any compile error.
var errBigEndian = errors.New("program: replay needs a little-endian host")

// finalize derives everything Run needs that is not part of the
// serialized program, and is the one place a program becomes runnable:
// CompileOpts (after scheduling), ReorderRandom and UnmarshalProgram all
// end here, so the op order Run sees is always the order the tables and
// live masks were derived from. memSize bounds memory accesses when
// positive (see analyze).
func (p *Program) finalize(memSize int64) error {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return errBigEndian
	}
	if err := p.analyze(memSize); err != nil {
		return err
	}
	p.gat = make([][regStride]uint16, len(p.idxTabs))
	for id, tb := range p.idxTabs {
		g := &p.gat[id]
		for i := range g {
			g[i] = sentinel
			if i < p.lanes && i < len(tb) && tb[i] >= 0 && int(tb[i]) < p.lanes {
				g[i] = uint16(tb[i])
			}
		}
	}
	return nil
}

// analyze is the one walk of visitEffects finalize makes over every op
// (two walks measured 1.1 ms on the 3 ms K=512 compile). It validates:
// register offsets inside the register file, memory ranges inside
// memSize (when positive) and at even addresses (Run views the arena as
// int16 lanes); visitEffects itself rejects malformed aux windows, table
// ids and immediates. It records the end of the highest range as the
// program's extent: a compiled program is finalized without a memSize, so
// Run checks the arena it is handed against the extent instead. And it
// sets every op's live mask.
//
// Registers are private to the program and arena bytes are the only
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
func (p *Program) analyze(memSize int64) error {
	nregs := int32(len(p.regs))
	live := make([]bool, nregs/regStride) // read later in the segment, not written in between
	touched := make([]bool, len(live))    // read or written later in the segment
	boundary := make([]bool, len(live))   // live into some segment
	type write struct {
		op  *mop
		bit int
		id  int32
	}
	var tails []write         // writes that reach the end of their segment
	var reads, writes []int32 // the op being walked, in visitEffects order
	var verr error
	var extent int64
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
			if verr == nil && (addr < 0 || n < 0 || (memSize > 0 && addr+n > memSize)) {
				verr = fmt.Errorf("program: memory access [%d,+%d) outside arena of %d", addr, n, memSize)
			}
			if verr == nil && addr&1 != 0 {
				verr = fmt.Errorf("program: memory access at odd address %d", addr)
			}
			extent = max(extent, addr+n)
		},
	}
	for _, ops := range p.segs {
		clear(live)
		clear(touched)
		for i := len(ops) - 1; i >= 0; i-- {
			op := &ops[i]
			reads, writes = reads[:0], writes[:0]
			if err := p.visitEffects(op, v); err != nil {
				return err
			}
			if verr != nil {
				return verr
			}
			op.live = 0
			for k, id := range writes {
				if live[id] {
					op.live |= 1 << k
				} else if !touched[id] {
					tails = append(tails, write{op, k, id})
				}
			}
			// Writes kill before reads revive: an op reporting both for
			// one register (mInsrW, the carried alpha/beta) keeps it live.
			for _, id := range writes {
				live[id], touched[id] = false, true
			}
			for _, id := range reads {
				live[id], touched[id] = true, true
			}
		}
		for id, l := range live {
			boundary[id] = boundary[id] || l
		}
	}
	for _, w := range tails {
		if boundary[w.id] {
			w.op.live |= 1 << w.bit
		}
	}
	p.extent = extent
	return nil
}
