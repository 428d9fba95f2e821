package uarch

import (
	"vransim/internal/cache"
	"vransim/internal/trace"
)

// robEntry tracks one µop living in the reorder buffer.
type robEntry struct {
	idx        int32
	lat        int32
	dispatched bool
	isLoadMiss bool
	doneCycle  int64
}

// Simulator replays an instruction trace against a core configuration and
// an optional cache hierarchy.
type Simulator struct {
	cfg  Config
	hier *cache.Hierarchy
}

// NewSimulator builds a simulator. hier may be nil, in which case every
// memory access hits L1 at the configured load latency.
func NewSimulator(cfg Config, hier *cache.Hierarchy) *Simulator {
	return &Simulator{cfg: cfg, hier: hier}
}

// Run simulates insts to completion and returns the timing result.
//
// The model: a perfect frontend delivers cfg.IssueWidth µops per cycle
// (minus an injected frontend-stall fraction) into a WindowSize reorder
// buffer; ready µops dispatch out of order to the first free port allowed
// for their class, at most one µop per port per cycle, scanning at most
// SchedWindow waiting entries; loads take their latency from the cache
// hierarchy; stores occupy a store-buffer entry until the L1 commits them
// at StoreCommitPerCycle; retirement is in order, IssueWidth per cycle.
// Every issue slot of every cycle (while the trace is still being
// fetched) is attributed to exactly one top-down category.
func (s *Simulator) Run(insts []trace.Inst) Result {
	cfg := s.cfg
	n := len(insts)
	res := Result{FrequencyGHz: cfg.FrequencyGHz, Mix: trace.MixOf(insts)}
	if n == 0 {
		return res
	}

	var l1h0, l1m0, l2h0, l2m0, l3h0, l3m0 int64
	if s.hier != nil {
		l1h0, l1m0 = s.hier.L1.Hits(), s.hier.L1.Misses()
		l2h0, l2m0 = s.hier.L2.Hits(), s.hier.L2.Misses()
		l3h0, l3m0 = s.hier.L3.Hits(), s.hier.L3.Misses()
	}

	// doneAt[i] is the cycle µop i finished executing, or -1.
	doneAt := make([]int64, n)
	for i := range doneAt {
		doneAt[i] = -1
	}
	// loadMiss[i] marks loads whose latency exceeded the L1 hit cost.
	loadMiss := make([]bool, n)

	rob := make([]robEntry, cfg.WindowSize)
	head, count := 0, 0 // ring buffer state

	var (
		cycle       int64 = -1
		fetch       int   // next trace index to issue
		retired     int64
		slotsRet    int64
		slotsFE     int64
		slotsBS     int64
		slotsBECore int64
		slotsBEMem  int64
		feAcc       float64
		brAcc       float64
		bsCountdown int
		sbOcc       int
		sbReady     []int64 // dispatch cycles of buffered stores (FIFO)
		mshr        []int64 // completion cycles of outstanding L1 misses
		portUsed    [NumPorts]bool
	)

	l1Lat := int64(cfg.LatencyByClass[trace.Load])
	if s.hier != nil {
		l1Lat = int64(s.hier.Config().L1Latency)
	}

	for retired < int64(n) {
		cycle++

		// 1. Store-buffer drain: the L1 commits up to
		// StoreCommitPerCycle stores that were dispatched in an
		// earlier cycle.
		drained := 0
		for len(sbReady) > 0 && sbReady[0] < cycle && drained < cfg.StoreCommitPerCycle {
			sbReady = sbReady[1:]
			sbOcc--
			drained++
		}

		// 1b. Retire completed L1 misses from the MSHRs.
		live := mshr[:0]
		for _, done := range mshr {
			if done > cycle {
				live = append(live, done)
			}
		}
		mshr = live

		// 2. In-order retirement.
		for r := 0; r < cfg.IssueWidth && count > 0; r++ {
			e := &rob[head]
			if !e.dispatched || e.doneCycle > cycle {
				break
			}
			head = (head + 1) % cfg.WindowSize
			count--
			retired++
		}

		// 3. Out-of-order dispatch to ports.
		for p := range portUsed {
			portUsed[p] = false
		}
		scanned := 0
		for i := 0; i < count && scanned < cfg.SchedWindow; i++ {
			e := &rob[(head+i)%cfg.WindowSize]
			if e.dispatched {
				continue
			}
			scanned++
			in := &insts[e.idx]
			if !depsReady(in, doneAt, cycle) {
				continue
			}
			if in.Class == trace.Store && sbOcc >= cfg.StoreBufferSize {
				continue
			}
			if in.Class == trace.Load && s.hier != nil && cfg.MSHRs > 0 &&
				len(mshr) >= cfg.MSHRs && s.hier.WouldMissL1(in.Addr) {
				continue // no fill buffer free for a new miss
			}
			port := -1
			for _, p := range cfg.PortsByClass[in.Class] {
				if !portUsed[p] {
					port = p
					break
				}
			}
			if in.Class == trace.Nop {
				e.dispatched = true
				e.doneCycle = cycle
				doneAt[e.idx] = cycle
				continue
			}
			if port < 0 {
				continue
			}
			portUsed[port] = true
			res.PortBusy[port]++
			lat := int64(cfg.LatencyByClass[in.Class])
			switch in.Class {
			case trace.Load:
				if s.hier != nil {
					lat = int64(s.hier.Load(in.Addr))
				}
				if lat > l1Lat {
					loadMiss[e.idx] = true
					e.isLoadMiss = true
					mshr = append(mshr, cycle+lat-1)
				}
				res.LoadBytes += int64(in.Bytes)
			case trace.Store:
				if s.hier != nil {
					s.hier.Store(in.Addr)
				}
				sbOcc++
				sbReady = append(sbReady, cycle)
				res.StoreBytes += int64(in.Bytes)
			}
			e.dispatched = true
			e.lat = int32(lat)
			e.doneCycle = cycle + lat - 1
			doneAt[e.idx] = e.doneCycle
		}

		// 4. Issue into the window, with top-down slot accounting.
		if fetch >= n {
			continue // fetch done; drain without accounting slots
		}
		if bsCountdown > 0 {
			bsCountdown--
			slotsBS += int64(cfg.IssueWidth)
			continue
		}
		feAcc += cfg.FrontendStallFrac * float64(cfg.IssueWidth)
		feSlots := int(feAcc)
		feAcc -= float64(feSlots)
		slotsFE += int64(feSlots)
		supply := cfg.IssueWidth - feSlots

		issued := 0
		mispredicted := false
		for issued < supply && fetch < n {
			if count >= cfg.WindowSize {
				break
			}
			e := &rob[(head+count)%cfg.WindowSize]
			*e = robEntry{idx: int32(fetch)}
			count++
			issued++
			isBranch := insts[fetch].Class == trace.Branch
			fetch++
			if isBranch {
				brAcc += cfg.BranchMispredictRate
				if brAcc >= 1 {
					brAcc -= 1
					bsCountdown = cfg.BranchPenalty
					mispredicted = true
					break
				}
			}
		}
		slotsRet += int64(issued)
		if issued < supply {
			// Leftover slots of an accounting cycle must land in
			// exactly one category. In priority order: slots wasted
			// behind a mispredicted branch are bad speculation (the
			// fetch redirect starts this cycle, not next); slots left
			// because the trace's tail just issued are frontend
			// starvation (nothing to fetch); otherwise the window is
			// full — backend bound, classified by what blocks the
			// oldest unfinished µop.
			stall := int64(supply - issued)
			switch {
			case mispredicted:
				slotsBS += stall
			case fetch >= n:
				slotsFE += stall
			default:
				mshrFull := cfg.MSHRs > 0 && len(mshr) >= cfg.MSHRs
				if s.headBlockedOnMemory(insts, rob[head], doneAt, loadMiss, cycle, mshrFull) {
					slotsBEMem += stall
				} else {
					slotsBECore += stall
				}
			}
		}
	}

	res.Cycles = cycle + 1
	res.Insts = int64(n)
	total := slotsRet + slotsFE + slotsBS + slotsBECore + slotsBEMem
	res.Slots = total
	if total > 0 {
		res.TopDown = TopDown{
			Retiring:      float64(slotsRet) / float64(total),
			FrontendBound: float64(slotsFE) / float64(total),
			BadSpec:       float64(slotsBS) / float64(total),
			BackendBound:  float64(slotsBECore+slotsBEMem) / float64(total),
			CoreBound:     float64(slotsBECore) / float64(total),
			MemoryBound:   float64(slotsBEMem) / float64(total),
		}
	}
	if s.hier != nil {
		res.L1Hits = s.hier.L1.Hits() - l1h0
		res.L1Misses = s.hier.L1.Misses() - l1m0
		res.L2Hits = s.hier.L2.Hits() - l2h0
		res.L2Misses = s.hier.L2.Misses() - l2m0
		res.L3Hits = s.hier.L3.Hits() - l3h0
		res.L3Misses = s.hier.L3.Misses() - l3m0
	}
	return res
}

// headBlockedOnMemory decides whether the window-full stall should be
// attributed to memory bound (an outstanding cache miss) or core bound
// (port or store-buffer pressure, dependency chains).
func (s *Simulator) headBlockedOnMemory(insts []trace.Inst, head robEntry, doneAt []int64, loadMiss []bool, cycle int64, mshrFull bool) bool {
	if head.dispatched {
		return head.isLoadMiss && head.doneCycle > cycle
	}
	if mshrFull && insts[head.idx].Class == trace.Load {
		return true
	}
	for _, d := range insts[head.idx].Deps {
		if d >= 0 && loadMiss[d] && doneAt[d] >= cycle {
			return true
		}
	}
	return false
}

func depsReady(in *trace.Inst, doneAt []int64, cycle int64) bool {
	for _, d := range in.Deps {
		if d < 0 {
			continue
		}
		if doneAt[d] < 0 || doneAt[d] >= cycle {
			return false
		}
	}
	return true
}

// Simulate is a convenience wrapper constructing a Simulator with a fresh
// hierarchy from cfgCache (or nil for perfect L1) and running insts.
func Simulate(insts []trace.Inst, core Config, caches *cache.Config) Result {
	var h *cache.Hierarchy
	if caches != nil {
		h = cache.NewHierarchy(*caches)
	}
	return NewSimulator(core, h).Run(insts)
}
