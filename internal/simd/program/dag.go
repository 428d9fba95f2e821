package program

import "fmt"

// This file derives, for every executable mop kind, the exact set of
// architectural resources the op reads and writes — registers (whole
// register files entries, conservatively) and memory byte ranges — and
// builds the dependency DAG over a segment from them. The walker is the
// single authority on each kind's operand layout (mirroring Run's
// semantics op for op), shared by three consumers: the DAG builder
// (register def/use plus memory aliasing), finalize's validator
// (bounds-checking every program, compiled or loaded from the tuner's
// disk cache, before it may touch an arena) and finalize's liveness pass
// (which register writes Run may skip), and nothing else — run.go stays
// the executable truth it is checked against by the differential tests.
//
// Dependency rules (no renaming, so anti/output dependencies are real
// order constraints):
//
//   - a read of a resource depends on its last writer;
//   - a write depends on its last writer AND every reader since.
//
// Op scratch lives in Run's locals and never carries state across ops,
// so it is invisible to the DAG. Partial register writes (mInsrW's
// single lane, short loads) are treated as whole-register writes, and a
// write the liveness pass lets Run skip still counts as one; both only
// add edges, never drop one. Memory is tracked at 64-byte page
// granularity: two accesses on the same page conflict unless both are
// reads — again conservative in the safe direction (the fusion pass's
// `disjoint` discipline guarantees intra-op exactness; the page map is
// the inter-op aliasing check).

// effectVisitor receives one mop's effects. Nil callbacks are skipped.
type effectVisitor struct {
	// reg is called with a register lane offset (regID*regStride).
	reg func(off int32, write bool)
	// mem is called with a byte range [addr, addr+n).
	mem func(addr, n int64, write bool)
	// tab is called with an idxTabs id; full marks ids the op indexes
	// per active lane without permute's short-table guard.
	tab func(id int64, full bool)
	// pat is called with a lanePats id.
	pat func(id int64)
}

// visitEffects walks op's reads and writes. It returns an error — and
// guarantees the callbacks saw nothing out of the op's true layout —
// when the op is structurally malformed: unknown kind, aux window out
// of pool bounds, or an immediate outside the range Run indexes with.
// On a freshly compiled program errors are impossible; on a
// deserialized one they mean the bytes are not a program.
func (p *Program) visitEffects(op *mop, v *effectVisitor) error {
	reg := v.reg
	if reg == nil {
		reg = func(int32, bool) {}
	}
	mem := v.mem
	if mem == nil {
		mem = func(int64, int64, bool) {}
	}
	tab := v.tab
	if tab == nil {
		tab = func(int64, bool) {}
	}
	pat := v.pat
	if pat == nil {
		pat = func(int64) {}
	}
	// aux returns the op's aux window after bounds-checking it.
	aux := func(need int32) ([]int64, error) {
		if need < 0 || op.tab < 0 || int(op.tab)+int(need) > len(p.aux) {
			return nil, fmt.Errorf("program: op kind %d aux window [%d,+%d) outside pool of %d", op.kind, op.tab, need, len(p.aux))
		}
		return p.aux[op.tab : op.tab+need], nil
	}
	aux32 := func(need int32) ([]int32, error) {
		if op.tab < 0 || int(op.tab)+int(need) > len(p.aux32) {
			return nil, fmt.Errorf("program: op kind %d aux32 window [%d,+%d) outside pool of %d", op.kind, op.tab, need, len(p.aux32))
		}
		return p.aux32[op.tab : op.tab+need], nil
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
		pat(int64(op.tab))
		reg(op.d, true)
	case mPermute:
		if op.tab < 0 || int(op.tab) >= len(p.idxTabs) {
			return fmt.Errorf("program: mPermute table %d outside %d", op.tab, len(p.idxTabs))
		}
		tab(int64(op.tab), false)
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
	case mInsrW:
		if op.imm < 0 || op.imm >= regStride {
			return fmt.Errorf("program: mInsrW lane %d out of range", op.imm)
		}
		mem(op.addr, 2, false)
		reg(op.d, false) // single-lane insert: the other lanes persist
		reg(op.d, true)
	case mCopy16:
		mem(op.addr2, 2, false)
		mem(op.addr, 2, true)
	case mGammaPoint:
		t, err := aux32(3)
		if err != nil {
			return err
		}
		for _, a := range t {
			mem(int64(a), 2, false)
		}
		mem(op.addr, 2, true)
		mem(op.addr2, 2, true)
	case mExtPoint:
		t, err := aux32(3)
		if err != nil {
			return err
		}
		for _, a := range t {
			mem(int64(a), 2, false)
		}
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
			mem(t[i+1], 2, false)
			mem(t[i], 2, true)
		}
	case mGammaRun:
		if op.n < 1 {
			return fmt.Errorf("program: mGammaRun n=%d", op.n)
		}
		t, err := aux(5 * op.n)
		if err != nil {
			return err
		}
		for i := 0; i < len(t); i += 5 {
			mem(t[i+2], 2, false)
			mem(t[i+3], 2, false)
			mem(t[i+4], 2, false)
			mem(t[i], 2, true)
			mem(t[i+1], 2, true)
		}
	case mExtRun:
		if op.n < 1 {
			return fmt.Errorf("program: mExtRun n=%d", op.n)
		}
		t, err := aux(4 * op.n)
		if err != nil {
			return err
		}
		for i := 0; i < len(t); i += 4 {
			mem(t[i+1], 2, false)
			mem(t[i+2], 2, false)
			mem(t[i+3], 2, false)
			mem(t[i], 2, true)
		}
	case mGammaVec:
		t, err := aux(11)
		if err != nil {
			return err
		}
		for _, o := range t[:6] {
			reg(int32(o), true)
		}
		mem(t[6], wb, false)
		mem(t[7], wb, false)
		mem(t[8], wb, false)
		mem(t[9], wb, true)
		mem(t[10], wb, true)
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
		mem(t[7], wb, false)
		mem(t[8], wb, false)
		mem(t[9], wb, false)
		mem(t[10], wb, true)
	case mSelect:
		t, err := aux(12)
		if err != nil {
			return err
		}
		for _, i := range []int{2, 3, 4, 5, 7, 8, 9, 10} {
			reg(int32(t[i]), false)
		}
		for _, i := range []int{0, 1, 6, 11} {
			reg(int32(t[i]), true)
		}
	case mPack:
		if op.n < 2 {
			return fmt.Errorf("program: mPack n=%d", op.n)
		}
		t, err := aux(3 + 2*op.n)
		if err != nil {
			return err
		}
		reg(int32(t[0]), true)
		reg(int32(t[1]), true)
		reg(int32(t[2]), true)
		for b := int32(0); b < op.n; b++ {
			mem(t[3+2*b], 2, false)
			reg(int32(t[4+2*b]), false)
		}
	case mRecurse:
		t, err := aux(10)
		if err != nil {
			return err
		}
		if err := p.checkTabs(false, t[3], t[4]); err != nil {
			return err
		}
		tab(t[3], false)
		tab(t[4], false)
		reg(int32(t[2]), false)
		reg(int32(t[6]), false)
		reg(int32(t[8]), false)
		reg(int32(t[0]), true)
		reg(int32(t[1]), true)
		reg(int32(t[5]), true)
		reg(int32(t[7]), true)
		if t[9] >= 0 {
			reg(int32(t[9]), true)
		}
	case mHmax:
		t, err := aux(6)
		if err != nil {
			return err
		}
		if err := p.checkTabs(false, t[3], t[4], t[5]); err != nil {
			return err
		}
		tab(t[3], false)
		tab(t[4], false)
		tab(t[5], false)
		reg(int32(t[1]), false)
		reg(int32(t[0]), true)
		reg(int32(t[2]), true)
	case mNormSub:
		if op.tab < 0 || int(op.tab) >= len(p.idxTabs) {
			return fmt.Errorf("program: mNormSub table %d outside %d", op.tab, len(p.idxTabs))
		}
		tab(int64(op.tab), false)
		reg(op.d, false)
		reg(op.d, true)
		reg(op.a, true)
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
			tab(t[4+2*s], true)
			reg(int32(t[3+2*s]), false)
		}
		reg(int32(t[0]), true)
		reg(int32(t[1]), true)
		mem(t[2], wb, true)
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
			tab(t[5+2*s], true)
			mem(t[4+2*s], wb, false)
		}
		reg(int32(t[0]), true)
		reg(int32(t[1]), true)
		if op.n > 1 {
			reg(int32(t[2]), true)
		}
		mem(t[3], wb, true)
	case mAlphaStepP:
		t, err := aux(16)
		if err != nil {
			return err
		}
		if err := p.checkTabs(true, t[11], t[12], t[13], t[14], t[15]); err != nil {
			return err
		}
		for _, id := range t[11:16] {
			tab(id, true)
		}
		for _, o := range t[:8] {
			reg(int32(o), true)
		}
		reg(int32(t[8]), false) // alpha: read then rewritten
		reg(int32(t[8]), true)
		mem(t[9], wb, false)
		mem(t[10], wb, true)
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
		for _, id := range t[10:15] {
			tab(id, true)
		}
		for _, o := range t[:7] {
			reg(int32(o), true)
		}
		reg(int32(t[7]), false) // beta: read then rewritten
		reg(int32(t[7]), true)
		reg(int32(t[8]), true)
		mem(t[9], wb, false)
		if op.imm != 0 {
			if err := p.checkTabs(true, t[23], t[24], t[25]); err != nil {
				return err
			}
			for _, id := range t[23:26] {
				tab(id, true)
			}
			for _, o := range t[15:22] {
				reg(int32(o), true)
			}
			mem(t[22], wb, false)
			et := t[26 : 26+2*op.n]
			for x := 0; x < len(et); x += 2 {
				if lane := et[x+1]; lane < 0 || lane >= regStride {
					return fmt.Errorf("program: mBetaStepP extract lane %d out of range", lane)
				}
				mem(et[x], 2, true)
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
func (p *Program) checkTabs(full bool, ids ...int64) error {
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

// pageShift is the memory-aliasing granularity for DAG construction:
// accesses are tracked per 64-byte page (one W512 register line), so
// two ops conflict when they touch the same page and at least one
// writes. Coarser than byte-exact, therefore safe.
const pageShift = 6

// Edge kinds: what carries a dependency between two mops. An edge can
// be both (the pair conflicts through a register and through memory).
// The distinction only matters to the cost model — the scheduler's
// legality is kind-blind — which uses it to gate a mop's load µops on
// memory-carried predecessors and its compute µops on register-carried
// ones, instead of serializing everything behind everything.
const (
	edgeReg uint8 = 1 << iota
	edgeMem
)

// dag is the dependency graph over one segment's mops. Edges always
// point from a lower index to a higher one (program order is a
// topological order by construction). predKind[i][j] carries the edge
// kind bits for preds[i][j].
type dag struct {
	preds    [][]int32
	predKind [][]uint8
	succs    [][]int32
	indeg    []int32
}

// accessState tracks one resource's last writer and the readers seen
// since that write.
type accessState struct {
	lastWriter int32
	readers    []int32
}

// buildDAG constructs the dependency DAG for seg. Any topological
// order of the result replays bit-identically to program order.
func (p *Program) buildDAG(seg []mop) (*dag, error) {
	n := len(seg)
	d := &dag{
		preds:    make([][]int32, n),
		predKind: make([][]uint8, n),
		succs:    make([][]int32, n),
		indeg:    make([]int32, n),
	}
	nreg := len(p.regs) / regStride
	regs := make([]accessState, nreg)
	for i := range regs {
		regs[i].lastWriter = -1
	}
	pages := make(map[int64]*accessState)
	// mark dedups edges into the current op: mark[j] == i+1 means the
	// edge j -> i already exists, at position edgeAt[j] of preds[i].
	mark := make([]int32, n)
	edgeAt := make([]int32, n)

	var cur int32
	var verr error
	addPred := func(j int32, kind uint8) {
		if j < 0 || j == cur {
			return
		}
		if mark[j] == cur+1 {
			d.predKind[cur][edgeAt[j]] |= kind
			return
		}
		mark[j] = cur + 1
		edgeAt[j] = int32(len(d.preds[cur]))
		d.preds[cur] = append(d.preds[cur], j)
		d.predKind[cur] = append(d.predKind[cur], kind)
		d.succs[j] = append(d.succs[j], cur)
		d.indeg[cur]++
	}
	touch := func(st *accessState, write bool, kind uint8) {
		if write {
			addPred(st.lastWriter, kind)
			for _, r := range st.readers {
				addPred(r, kind)
			}
			st.lastWriter = cur
			st.readers = st.readers[:0]
		} else {
			addPred(st.lastWriter, kind)
			if k := len(st.readers); k == 0 || st.readers[k-1] != cur {
				st.readers = append(st.readers, cur)
			}
		}
	}
	v := &effectVisitor{
		reg: func(off int32, write bool) {
			id := off / regStride
			if off < 0 || int(id) >= nreg {
				if verr == nil {
					verr = fmt.Errorf("program: register offset %d outside file of %d", off, nreg)
				}
				return
			}
			touch(&regs[id], write, edgeReg)
		},
		mem: func(addr, nb int64, write bool) {
			if nb <= 0 {
				return
			}
			for pg := addr >> pageShift; pg <= (addr+nb-1)>>pageShift; pg++ {
				st := pages[pg]
				if st == nil {
					st = &accessState{lastWriter: -1}
					pages[pg] = st
				}
				touch(st, write, edgeMem)
			}
		},
	}
	for i := range seg {
		cur = int32(i)
		if err := p.visitEffects(&seg[i], v); err != nil {
			return nil, err
		}
		if verr != nil {
			return nil, verr
		}
	}
	return d, nil
}

// legalOrder reports whether order is a permutation of [0,n) in which
// every mop appears after all of its DAG predecessors.
func (d *dag) legalOrder(order []int32) bool {
	n := len(d.preds)
	if len(order) != n {
		return false
	}
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	for at, idx := range order {
		if idx < 0 || int(idx) >= n || pos[idx] >= 0 {
			return false
		}
		pos[idx] = int32(at)
	}
	for i := 0; i < n; i++ {
		for _, pr := range d.preds[i] {
			if pos[pr] >= pos[i] {
				return false
			}
		}
	}
	return true
}
