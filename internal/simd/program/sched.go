package program

import (
	"fmt"
	"math/rand"

	"vransim/internal/trace"
	"vransim/internal/uarch"
)

// This file is the port-aware scheduling pass: mops are classified
// into the trace.Class vocabulary internal/uarch prices (via their µop
// expansions), list-scheduled against per-class port capacity within
// the dependency DAG of dag.go, and the uarch simulator arbitrates —
// each candidate ordering of a segment is replayed through the port
// model and the program keeps whichever order simulates at the highest
// IPC. Replay stays bit-exact because only the order changes, never an
// operand: any order the DAG admits produces the same architectural
// state, which the differential and fuzz tests in internal/turbo pin.

// Heuristic selects a list-scheduling policy.
type Heuristic uint8

const (
	// HeurCP schedules by critical-path priority: the mop with the
	// longest latency-weighted path to the end of the segment issues
	// first among ready mops, subject to per-class port capacity.
	HeurCP Heuristic = iota
	// HeurCPStore is the windowed variant with APCM-aware store
	// batching: candidates are drawn from a bounded lookahead over the
	// recorded order (so the schedule is a local perturbation, not a
	// global reshuffle), picked by critical-path priority — except that
	// once a storing mop is placed, ready mops storing to nearby
	// addresses are preferred within the same issue cycle, so the
	// packed path's quad scatters commit in address-contiguous runs
	// instead of interleaving with unrelated traffic in the store
	// buffer.
	HeurCPStore

	numHeuristics
)

var heurNames = [numHeuristics]string{"cp", "cp+store"}

// String names the heuristic ("cp", "cp+store").
func (h Heuristic) String() string {
	if int(h) < len(heurNames) {
		return heurNames[h]
	}
	return fmt.Sprintf("heuristic(%d)", uint8(h))
}

// AllHeuristics lists every scheduling heuristic, in search order.
func AllHeuristics() []Heuristic { return []Heuristic{HeurCP, HeurCPStore} }

// ParseHeuristic maps a name back to its Heuristic.
func ParseHeuristic(s string) (Heuristic, error) {
	for h, name := range heurNames {
		if s == name {
			return Heuristic(h), nil
		}
	}
	return 0, fmt.Errorf("program: unknown schedule heuristic %q", s)
}

// DefaultSimBudget caps the µops each candidate ordering feeds the
// cost-model simulation (per segment). It bounds compile latency at
// large K deterministically — no wall-clock cutoffs — while keeping
// the simulated window far wider than the core's reorder buffer.
const DefaultSimBudget = 120_000

// CompileOptions configures Builder.CompileOpts. The zero value
// compiles exactly like Builder.Compile (no scheduling pass).
type CompileOptions struct {
	// Schedule enables the scheduling pass: candidate orderings of
	// SegFirst and SegSteady are simulated against the cost-model
	// core and the program keeps the winner.
	Schedule bool
	// Heuristics is the candidate set to search; nil means
	// AllHeuristics(). The recorded order is always a candidate, so a
	// schedule is only adopted when it strictly improves simulated
	// IPC.
	Heuristics []Heuristic
	// SimBudget caps simulated µops per candidate segment
	// (0 = DefaultSimBudget).
	SimBudget int
	// Core is the cost-model core configuration; nil means
	// uarch.SkylakeServer(). Stochastic noise sources (frontend
	// stalls, branch misprediction) are zeroed so the cost model is
	// deterministic.
	Core *uarch.Config
}

// SchedInfo reports what the scheduling pass did to a program.
type SchedInfo struct {
	// Enabled records that the pass ran; Scheduled that at least one
	// segment was actually reordered.
	Enabled   bool
	Scheduled bool
	// Per segment (SegFirst, SegSteady): the winning heuristic
	// ("original" when the recorded order won), the cost-model IPC of
	// the recorded order and of the winner, and how many mops moved.
	Heuristic [2]string
	IPCBefore [2]float64
	IPCAfter  [2]float64
	Moved     [2]int
	// Search cost: candidate orderings simulated (including the
	// recorded-order baselines) and total µops fed to the simulator.
	Candidates    int
	SimulatedUops int64
}

// Sched reports the scheduling pass's outcome (zero value when the
// program was compiled without scheduling).
func (p *Program) Sched() SchedInfo { return p.sched }

// Scheduled reports whether any segment was reordered by the
// scheduling pass.
func (p *Program) Scheduled() bool { return p.sched.Scheduled }

// schedule runs the scheduling pass over both segments in place.
func (p *Program) schedule(opts *CompileOptions) {
	core := uarch.SkylakeServer()
	if opts.Core != nil {
		core = *opts.Core
	} else {
		// Default scheduling core: same ports and latencies, but a
		// tight window. A 224-entry ROB hides almost any static order
		// at steady state — the regime where pre-scheduling pays is
		// when the effective scheduler window is the constraint
		// (full-rate issue, reservation stations shared with the other
		// hyperthread, µop-cache misses), so candidate orders are
		// priced where they differ. The before/after IPCs in SchedInfo
		// are both measured on this same core.
		core.WindowSize = 64
		core.SchedWindow = 24
	}
	core.FrontendStallFrac = 0
	core.BranchMispredictRate = 0
	budget := opts.SimBudget
	if budget <= 0 {
		budget = DefaultSimBudget
	}
	heurs := opts.Heuristics
	if heurs == nil {
		heurs = AllHeuristics()
	}
	p.sched.Enabled = true
	tb := uarch.NewTraceBuilder(budget)
	sim := uarch.NewSimulator(core, nil)
	for seg := range p.segs {
		mops := p.segs[seg]
		p.sched.Heuristic[seg] = "original"
		if len(mops) < 2 {
			continue
		}
		d, err := p.buildDAG(mops)
		if err != nil {
			// Conservative: an unanalyzable segment keeps its
			// recorded order (still bit-exact — it is the order the
			// interpreter ran).
			continue
		}
		specs := make([]uarch.MopSpec, len(mops))
		for i := range mops {
			p.mopSpec(&mops[i], &specs[i])
		}
		term := make([]int32, len(mops))
		base := p.simulateOrder(tb, sim, specs, d, nil, term)
		p.sched.Candidates++
		p.sched.SimulatedUops += base.Insts
		p.sched.IPCBefore[seg] = base.IPC()
		p.sched.IPCAfter[seg] = base.IPC()
		bestIPC := base.IPC()
		var bestOrder []int32
		for _, h := range heurs {
			order := listSchedule(specs, d, h, &core)
			if !d.legalOrder(order) {
				continue // scheduler bug; never trade exactness for it
			}
			res := p.simulateOrder(tb, sim, specs, d, order, term)
			p.sched.Candidates++
			p.sched.SimulatedUops += res.Insts
			if ipc := res.IPC(); ipc > bestIPC {
				bestIPC = ipc
				bestOrder = order
				p.sched.Heuristic[seg] = h.String()
				p.sched.IPCAfter[seg] = ipc
			}
		}
		if bestOrder != nil {
			p.sched.Moved[seg] = applyOrder(mops, bestOrder)
			p.sched.Scheduled = p.sched.Scheduled || p.sched.Moved[seg] > 0
		}
	}
}

// simulateOrder prices one candidate ordering (nil = recorded order)
// of the segment whose specs and DAG are given, feeding at most the
// builder's budget of µops to the simulator. term is caller-provided
// scratch of len(specs).
func (p *Program) simulateOrder(tb *uarch.TraceBuilder, sim *uarch.Simulator, specs []uarch.MopSpec, d *dag, order []int32, term []int32) uarch.Result {
	tb.Reset()
	var sp uarch.MopSpec
	for k := 0; k < len(specs) && !tb.Full(); k++ {
		idx := int32(k)
		if order != nil {
			idx = order[k]
		}
		sp = specs[idx]
		sp.Deps = latestTerminals(d.preds[idx], d.predKind[idx], edgeMem, term)
		sp.CompDeps = latestTerminals(d.preds[idx], d.predKind[idx], edgeReg, term)
		term[idx] = tb.Add(&sp)
	}
	return sim.Run(tb.Insts())
}

// latestTerminals picks the up-to-three predecessor terminal µops of
// the given edge kind with the highest trace indices — the ones that
// finish last dominate the dependency anyway.
func latestTerminals(preds []int32, kinds []uint8, want uint8, term []int32) [3]int32 {
	out := [3]int32{trace.NoDep, trace.NoDep, trace.NoDep}
	for pi, pr := range preds {
		if kinds[pi]&want == 0 {
			continue
		}
		t := term[pr]
		if t < 0 {
			continue
		}
		switch {
		case t > out[0]:
			out[0], out[1], out[2] = t, out[0], out[1]
		case t > out[1]:
			out[1], out[2] = t, out[1]
		case t > out[2]:
			out[2] = t
		}
	}
	return out
}

// Class-capacity groups for the list scheduler's cycle model. ccTotal
// models issue bandwidth: every µop consumes one slot regardless of
// class, so a scheduled "cycle" is a feasible issue group for the
// core, not just a port-feasible one.
const (
	ccScalar = iota
	ccALU
	ccShuf
	ccLoad
	ccStore
	ccTotal
	numCC
)

func classCaps(core *uarch.Config) [numCC]int32 {
	cap := func(c trace.Class) int32 {
		n := int32(len(core.PortsByClass[c]))
		if n < 1 {
			n = 1
		}
		return n
	}
	caps := [numCC]int32{
		ccScalar: cap(trace.ScalarALU),
		ccALU:    cap(trace.VecALU),
		ccShuf:   cap(trace.VecShuffle),
		ccLoad:   cap(trace.Load),
		ccStore:  cap(trace.Store),
		ccTotal:  int32(core.IssueWidth),
	}
	if caps[ccTotal] < 1 {
		caps[ccTotal] = 1
	}
	if sc := int32(core.StoreCommitPerCycle); sc >= 1 && sc < caps[ccStore] {
		// Sustained store throughput is commit-limited, not
		// port-limited; schedule against the tighter bound.
		caps[ccStore] = sc
	}
	return caps
}

func classCounts(sp *uarch.MopSpec) [numCC]int32 {
	return [numCC]int32{
		ccScalar: int32(sp.Scalar),
		ccALU:    int32(sp.VecALU),
		ccShuf:   int32(sp.VecShuffle),
		ccLoad:   int32(sp.Loads),
		ccStore:  int32(sp.Stores),
		ccTotal:  int32(sp.Scalar + sp.VecALU + sp.VecShuffle + sp.Loads + sp.Stores),
	}
}

// mopHeap is a deterministic max-heap of mop indices ordered by
// priority, ties broken toward the lower (earlier-recorded) index.
type mopHeap struct {
	idx  []int32
	prio []int64
}

func (h *mopHeap) less(a, b int32) bool {
	if h.prio[a] != h.prio[b] {
		return h.prio[a] > h.prio[b]
	}
	return a < b
}

func (h *mopHeap) len() int { return len(h.idx) }

func (h *mopHeap) push(x int32) {
	h.idx = append(h.idx, x)
	i := len(h.idx) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !h.less(h.idx[i], h.idx[up]) {
			break
		}
		h.idx[i], h.idx[up] = h.idx[up], h.idx[i]
		i = up
	}
}

func (h *mopHeap) removeAt(i int) int32 {
	x := h.idx[i]
	last := len(h.idx) - 1
	h.idx[i] = h.idx[last]
	h.idx = h.idx[:last]
	if i < last {
		h.siftDown(i)
		// The moved element may also need to rise.
		for i > 0 {
			up := (i - 1) / 2
			if !h.less(h.idx[i], h.idx[up]) {
				break
			}
			h.idx[i], h.idx[up] = h.idx[up], h.idx[i]
			i = up
		}
	}
	return x
}

func (h *mopHeap) pop() int32 { return h.removeAt(0) }

func (h *mopHeap) siftDown(i int) {
	n := len(h.idx)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(h.idx[l], h.idx[best]) {
			best = l
		}
		if r < n && h.less(h.idx[r], h.idx[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.idx[i], h.idx[best] = h.idx[best], h.idx[i]
		i = best
	}
}

// listSchedule builds one candidate ordering for the given heuristic:
// critical-path priority within the DAG, issued against a per-cycle,
// per-class port-capacity model derived from the core config (with
// capacity debt carried across cycles so multi-µop fused ops occupy
// their ports across the cycles they realistically need).
func listSchedule(specs []uarch.MopSpec, d *dag, h Heuristic, core *uarch.Config) []int32 {
	n := len(specs)
	prio := make([]int64, n)
	loadLat := int64(core.LatencyByClass[trace.Load])
	if loadLat < 1 {
		loadLat = 1
	}
	for i := n - 1; i >= 0; i-- {
		var best int64
		for _, s := range d.succs[i] {
			if prio[s] > best {
				best = prio[s]
			}
		}
		w := int64(specs[i].Depth)
		if w < 1 {
			w = 1
		}
		if specs[i].Loads > 0 {
			w += loadLat
		}
		if specs[i].Stores > 0 {
			w++
		}
		prio[i] = w + best
	}
	if h == HeurCPStore {
		return scheduleWindowed(specs, d, prio, core)
	}
	return scheduleGlobal(specs, d, prio, core)
}

// scheduleGlobal is the HeurCP policy: pure greedy list scheduling
// over the whole segment by critical-path priority.
func scheduleGlobal(specs []uarch.MopSpec, d *dag, prio []int64, core *uarch.Config) []int32 {
	n := len(specs)
	caps := classCaps(core)
	indeg := append([]int32(nil), d.indeg...)
	hp := &mopHeap{prio: prio, idx: make([]int32, 0, 64)}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			hp.push(int32(i))
		}
	}
	order := make([]int32, 0, n)
	var rem [numCC]int32
	deferred := make([]int32, 0, 16)
	const maxMisfits = 16

	admit := func(cand int32) {
		order = append(order, cand)
		cst := classCounts(&specs[cand])
		for c, k := range cst {
			rem[c] -= k
		}
		for _, s := range d.succs[cand] {
			indeg[s]--
			if indeg[s] == 0 {
				hp.push(s)
			}
		}
	}

	for len(order) < n {
		for c := range rem {
			r := rem[c] + caps[c]
			if r > caps[c] {
				r = caps[c]
			}
			rem[c] = r
		}
		scheduled := 0
		misfits := 0
		for hp.len() > 0 && misfits < maxMisfits {
			cand := hp.pop()
			cst := classCounts(&specs[cand])
			fits := true
			for c, k := range cst {
				if k > 0 && rem[c] <= 0 {
					fits = false
					break
				}
			}
			if fits || (scheduled == 0 && misfits == 0) {
				// The first candidate of a cycle always issues, even
				// over capacity debt — guarantees forward progress.
				admit(cand)
				scheduled++
			} else {
				deferred = append(deferred, cand)
				misfits++
			}
		}
		for _, x := range deferred {
			hp.push(x)
		}
		deferred = deferred[:0]
	}
	return order
}

// scheduleWindowed is the HeurCPStore policy: candidates are the
// lowest-index (earliest-recorded) ready mops within a bounded
// lookahead, so the result tracks the recorded order and only hoists
// nearby independent work into stalls — the regime where the recorded
// order is already good (per-block plans, whose trellis walk the
// interpreter emitted in dependency order) and a global reshuffle
// loses locality. Within the window, critical-path priority picks,
// with store affinity: after a storing mop issues, a ready mop storing
// within storeWindow bytes of it is preferred in the same cycle.
func scheduleWindowed(specs []uarch.MopSpec, d *dag, prio []int64, core *uarch.Config) []int32 {
	const lookahead = 32
	storeWindow := int64(8 * 64)
	n := len(specs)
	caps := classCaps(core)
	indeg := append([]int32(nil), d.indeg...)
	var ready idxHeap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(int32(i))
		}
	}
	order := make([]int32, 0, n)
	var rem [numCC]int32
	buf := make([]int32, 0, lookahead)

	for len(order) < n {
		for c := range rem {
			r := rem[c] + caps[c]
			if r > caps[c] {
				r = caps[c]
			}
			rem[c] = r
		}
		buf = buf[:0]
		for len(buf) < lookahead && ready.len() > 0 {
			buf = append(buf, ready.pop())
		}
		scheduled := 0
		lastStoreEnd := int64(-1)
		for len(buf) > 0 {
			// Pick: nearest fitting store to the last store if affinity
			// is live, else the fitting candidate with the highest
			// critical-path priority (ties toward the earlier-recorded
			// mop). Track the best regardless of fit for the forced
			// first issue of the cycle.
			best, bestFit := -1, -1
			bestDist := storeWindow + 1
			for bi, cand := range buf {
				if best < 0 || prio[cand] > prio[buf[best]] {
					best = bi
				}
				cst := classCounts(&specs[cand])
				fits := true
				for c, k := range cst {
					if k > 0 && rem[c] <= 0 {
						fits = false
						break
					}
				}
				if !fits {
					continue
				}
				if sp := &specs[cand]; lastStoreEnd >= 0 && sp.Stores > 0 {
					dist := sp.StoreAddr - lastStoreEnd
					if dist < 0 {
						dist = -dist
					}
					if dist <= storeWindow && dist < bestDist {
						bestDist = dist
						bestFit = bi
						continue
					}
				}
				if bestDist > storeWindow && (bestFit < 0 || prio[cand] > prio[buf[bestFit]]) {
					bestFit = bi
				}
			}
			pick := bestFit
			if pick < 0 {
				if scheduled > 0 {
					break // cycle full; leftovers wait
				}
				pick = best
			}
			cand := buf[pick]
			buf = append(buf[:pick], buf[pick+1:]...)
			order = append(order, cand)
			scheduled++
			cst := classCounts(&specs[cand])
			for c, k := range cst {
				rem[c] -= k
			}
			if sp := &specs[cand]; sp.Stores > 0 {
				lastStoreEnd = sp.StoreAddr + int64(sp.Stores)*sp.StoreStep + int64(sp.StoreBytes)
			}
			for _, s := range d.succs[cand] {
				indeg[s]--
				if indeg[s] == 0 {
					ready.push(s)
				}
			}
		}
		for _, x := range buf {
			ready.push(x)
		}
	}
	return order
}

// idxHeap is a deterministic min-heap of mop indices: the windowed
// scheduler pulls ready mops in recorded order.
type idxHeap []int32

func (h idxHeap) len() int { return len(h) }

func (h *idxHeap) push(x int32) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if s[i] >= s[up] {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
}

func (h *idxHeap) pop() int32 {
	s := *h
	x := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s) && s[l] < s[best] {
			best = l
		}
		if r < len(s) && s[r] < s[best] {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return x
}

// applyOrder permutes seg in place and reports how many mops changed
// position.
func applyOrder(seg []mop, order []int32) int {
	out := make([]mop, len(seg))
	moved := 0
	for at, idx := range order {
		out[at] = seg[idx]
		if int(idx) != at {
			moved++
		}
	}
	copy(seg, out)
	return moved
}

// ReorderRandom permutes one segment into a uniformly random legal
// topological order of its dependency DAG (seeded, deterministic).
// Replay output is unchanged for any legal order — the property the
// fuzz target in internal/turbo asserts against the interpreter.
func (p *Program) ReorderRandom(seg int, seed int64) error {
	mops := p.segs[seg]
	d, err := p.buildDAG(mops)
	if err != nil {
		return err
	}
	n := len(mops)
	indeg := append([]int32(nil), d.indeg...)
	ready := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	order := make([]int32, 0, n)
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		cand := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, cand)
		for _, s := range d.succs[cand] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("program: dependency graph of segment %d is cyclic", seg)
	}
	applyOrder(mops, order)
	return p.finalize(0)
}

// mopSpec fills sp with op's µop expansion for the cost model: how
// many µops of each trace class it becomes, the internal dependency
// depth, and its memory footprint. The counts mirror the engine
// sequences the fusion pass collapsed (fuse.go documents each
// pattern).
func (p *Program) mopSpec(op *mop, sp *uarch.MopSpec) {
	*sp = uarch.MopSpec{}
	wb := int32(2 * p.lanes)
	switch op.kind {
	case mClear, mBcastImm, mAddS, mSubS, mMaxS, mMinS, mAnd, mOr, mXor, mAndN, mSra:
		sp.VecALU, sp.Depth = 1, 1
	case mBcastMem:
		sp.Loads, sp.LoadBytes, sp.LoadAddr = 1, 2, op.addr
		sp.VecShuffle, sp.Depth = 1, 2
	case mSetImm:
		sp.Loads, sp.LoadBytes, sp.Depth = 1, wb, 1
	case mPermute, mExt128, mExt256:
		sp.VecShuffle, sp.Depth = 1, 1
	case mLoad:
		sp.Loads, sp.LoadBytes, sp.LoadAddr, sp.Depth = 1, int32(op.imm), op.addr, 1
	case mStore:
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.Depth = 1, int32(op.imm), op.addr, 1
	case mExtrW:
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.Depth = 1, 2, op.addr, 1
	case mInsrW:
		sp.Loads, sp.LoadBytes, sp.LoadAddr = 1, 2, op.addr
		sp.VecShuffle, sp.Depth = 1, 2
	case mCopy16:
		sp.Loads, sp.LoadBytes, sp.LoadAddr = 1, 2, op.addr2
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.Depth = 1, 2, op.addr, 1
	case mGammaPoint:
		sp.Loads, sp.LoadBytes, sp.LoadAddr, sp.LoadStep = 3, 2, int64(p.aux32[op.tab]), 2
		sp.Scalar = 4
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.StoreStep = 2, 2, op.addr, op.addr2-op.addr
		sp.Depth = 3
	case mExtPoint:
		sp.Loads, sp.LoadBytes, sp.LoadAddr, sp.LoadStep = 3, 2, int64(p.aux32[op.tab]), 2
		sp.Scalar = 4
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.Depth = 1, 2, op.addr, 3
	case mCopyRun:
		t := p.aux[op.tab:]
		sp.Loads, sp.LoadBytes, sp.LoadAddr, sp.LoadStep = int(op.n), 2, t[1], 2
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.StoreStep = int(op.n), 2, t[0], 2
		sp.Depth = 1
	case mGammaRun:
		t := p.aux[op.tab:]
		sp.Loads, sp.LoadBytes, sp.LoadAddr, sp.LoadStep = 3*int(op.n), 2, t[2], 2
		sp.Scalar = 4 * int(op.n)
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.StoreStep = 2*int(op.n), 2, t[0], 2
		sp.Depth = 3
	case mExtRun:
		t := p.aux[op.tab:]
		sp.Loads, sp.LoadBytes, sp.LoadAddr, sp.LoadStep = 3*int(op.n), 2, t[1], 2
		sp.Scalar = 4 * int(op.n)
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.StoreStep = int(op.n), 2, t[0], 2
		sp.Depth = 3
	case mGammaVec:
		t := p.aux[op.tab:]
		sp.Loads, sp.LoadBytes, sp.LoadAddr = 3, wb, t[6]
		sp.VecALU = 3
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.StoreStep = 2, wb, t[9], t[10]-t[9]
		sp.Depth = 2
	case mExtVec:
		t := p.aux[op.tab:]
		sp.Loads, sp.LoadBytes, sp.LoadAddr = 3, wb, t[7]
		sp.VecALU = 5
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.Depth = 1, wb, t[10], 4
	case mSelect:
		sp.VecALU, sp.Depth = 6, 2
	case mPack:
		nb := int(op.n)
		t := p.aux[op.tab:]
		sp.Loads, sp.LoadBytes, sp.LoadAddr, sp.LoadStep = nb, 2, t[3], 2
		sp.VecShuffle = nb
		sp.VecALU = 2*nb - 1
		sp.Depth = nb + 1
	case mRecurse:
		t := p.aux[op.tab:]
		sp.VecShuffle = 2
		sp.VecALU = 2
		if t[9] >= 0 {
			sp.VecALU++
		}
		sp.Depth = 3
	case mHmax:
		sp.VecShuffle, sp.VecALU, sp.Depth = 3, 3, 6
	case mNormSub:
		sp.VecShuffle, sp.VecALU, sp.Depth = 1, 1, 2
	case mQuadScatter:
		ns := int(op.n)
		t := p.aux[op.tab:]
		sp.VecShuffle = ns
		sp.VecALU = ns - 1
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.Depth = 1, wb, t[2], ns
	case mQuadGather:
		ns := int(op.n)
		t := p.aux[op.tab:]
		sp.Loads, sp.LoadBytes, sp.LoadAddr, sp.LoadStep = ns+1, wb, t[4], 0
		sp.VecShuffle = ns
		sp.VecALU = ns - 1
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.Depth = 1, wb, t[3], ns+1
	case mAlphaStepP:
		t := p.aux[op.tab:]
		sp.Loads, sp.LoadBytes, sp.LoadAddr = 1, wb, t[9]
		sp.VecShuffle, sp.VecALU = 5, 4
		sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.Depth = 1, wb, t[10], 6
	case mBetaStepP:
		t := p.aux[op.tab:]
		sp.Loads, sp.LoadBytes, sp.LoadAddr = 1, wb, t[9]
		sp.VecShuffle, sp.VecALU, sp.Depth = 5, 4, 6
		if op.imm != 0 {
			sp.Loads = 2
			sp.LoadStep = t[22] - t[9]
			sp.VecShuffle = 11
			sp.VecALU = 13
			sp.Stores, sp.StoreBytes, sp.StoreAddr, sp.StoreStep = int(op.n), 2, t[26], 2
			sp.Depth = 12
		}
	default:
		// Unknown kinds never reach here (fuse produces only the
		// kinds above); price as one scalar µop if they ever do.
		sp.Scalar, sp.Depth = 1, 1
	}
}
