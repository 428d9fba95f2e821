package phy

import (
	"fmt"
	"sort"
	"sync"

	"vransim/internal/turbo"
)

// ProcKey identifies one HARQ process: the (cell, UE, process) triple a
// soft buffer is keyed by. Process ids wrap modulo the set's MaxProcs
// (LTE FDD: 8 processes per UE), so a monotonically increasing process
// counter lands on the right buffer.
type ProcKey struct {
	Cell, UE, Proc int
}

// procEntry is one live soft buffer plus its LRU bookkeeping.
type procEntry struct {
	word     *turbo.LLRWord
	k        int
	attempts int
	// tick is the set's logical clock at the entry's last Combine; the
	// eviction scan removes the smallest.
	tick uint64
}

// ProcessSet manages soft combining buffers for every HARQ process the
// serving runtime tracks, in the LLR-word domain (chase combining via
// turbo.LLRWord.Accumulate — the runtime retransmits the same rate-
// matched word, so every position realigns and no combining in the
// rate-dematched domain is needed). The set is
// bounded: at most Capacity buffers are live, and combining into a new
// key past the bound evicts the least-recently-combined buffer — a
// retransmission arriving after its buffer was evicted simply starts a
// fresh accumulation (counted in Evictions; recovery then rests on the
// retransmission alone). Safe for concurrent use.
type ProcessSet struct {
	// MaxProcs wraps process ids; Capacity bounds live buffers.
	MaxProcs, Capacity int

	mu        sync.Mutex
	m         map[ProcKey]*procEntry
	clock     uint64
	evictions uint64
	combines  uint64
}

// NewProcessSet builds a set wrapping process ids modulo maxProcs
// (default 8) holding at most capacity soft buffers (default 1024).
func NewProcessSet(maxProcs, capacity int) *ProcessSet {
	if maxProcs <= 0 {
		maxProcs = 8
	}
	if capacity <= 0 {
		capacity = 1024
	}
	return &ProcessSet{
		MaxProcs: maxProcs,
		Capacity: capacity,
		m:        make(map[ProcKey]*procEntry),
	}
}

// key canonicalizes proc into [0, MaxProcs).
func (ps *ProcessSet) key(cell, ue, proc int) ProcKey {
	p := proc % ps.MaxProcs
	if p < 0 {
		p += ps.MaxProcs
	}
	return ProcKey{Cell: cell, UE: ue, Proc: p}
}

// Combine folds one received transmission into (cell, ue, proc)'s soft
// buffer and returns an independent snapshot of the combined word plus
// the number of transmissions accumulated so far. A transmission whose
// K differs from the buffered one is rejected without touching the
// buffer (a new transport block must not corrupt the old one's soft
// bits); the caller decides whether to Release and start over.
func (ps *ProcessSet) Combine(cell, ue, proc int, w *turbo.LLRWord) (*turbo.LLRWord, int, error) {
	k := len(w.Sys)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	key := ps.key(cell, ue, proc)
	e, ok := ps.m[key]
	if !ok {
		if len(ps.m) >= ps.Capacity {
			ps.evictOldestLocked()
		}
		e = &procEntry{word: w.Clone(), k: k}
	} else {
		if e.k != k {
			return nil, e.attempts, fmt.Errorf("phy: HARQ process %v holds K=%d, got K=%d", key, e.k, k)
		}
		if err := e.word.Accumulate(w); err != nil {
			return nil, e.attempts, err
		}
	}
	e.attempts++
	ps.clock++
	e.tick = ps.clock
	ps.m[key] = e
	ps.combines++
	return e.word.Clone(), e.attempts, nil
}

// evictOldestLocked removes the least-recently-combined buffer.
func (ps *ProcessSet) evictOldestLocked() {
	var victim ProcKey
	var best uint64
	found := false
	for k, e := range ps.m {
		if !found || e.tick < best {
			victim, best, found = k, e.tick, true
		}
	}
	if found {
		delete(ps.m, victim)
		ps.evictions++
	}
}

// Release drops (cell, ue, proc)'s soft buffer — called when the block
// is delivered or terminally dropped, freeing the process for its next
// transport block.
func (ps *ProcessSet) Release(cell, ue, proc int) {
	ps.mu.Lock()
	delete(ps.m, ps.key(cell, ue, proc))
	ps.mu.Unlock()
}

// Attempts reports how many transmissions (cell, ue, proc)'s buffer has
// accumulated; 0 when no buffer is live.
func (ps *ProcessSet) Attempts(cell, ue, proc int) int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if e, ok := ps.m[ps.key(cell, ue, proc)]; ok {
		return e.attempts
	}
	return 0
}

// Len reports the number of live soft buffers.
func (ps *ProcessSet) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.m)
}

// ProcState is one HARQ process's exported soft buffer — the unit the
// cell-migration path serializes through the fronthaul. Word is the
// live combined buffer (combined-range LLRs, up to ±2·(channel max)
// before saturation — serialize losslessly).
type ProcState struct {
	UE, Proc int
	K        int
	Attempts int
	Word     *turbo.LLRWord
}

// ExportCell removes and returns every live soft buffer belonging to
// cell, ordered by (UE, Proc) for deterministic serialization. The
// buffers leave the set — after export the cell owns no HARQ state
// here, which is exactly the drain-and-migrate invariant.
func (ps *ProcessSet) ExportCell(cell int) []ProcState {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var out []ProcState
	for k, e := range ps.m {
		if k.Cell != cell {
			continue
		}
		out = append(out, ProcState{UE: k.UE, Proc: k.Proc, K: e.k, Attempts: e.attempts, Word: e.word})
		delete(ps.m, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].UE != out[j].UE {
			return out[i].UE < out[j].UE
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// Inject installs an exported soft buffer for cell, replacing any
// existing entry on the same key and evicting LRU if the set is at
// capacity — the import side of a cell migration.
func (ps *ProcessSet) Inject(cell int, st ProcState) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	key := ps.key(cell, st.UE, st.Proc)
	if _, ok := ps.m[key]; !ok && len(ps.m) >= ps.Capacity {
		ps.evictOldestLocked()
	}
	ps.clock++
	ps.m[key] = &procEntry{word: st.Word, k: st.K, attempts: st.Attempts, tick: ps.clock}
}

// Stats reports lifetime combine and eviction counts.
func (ps *ProcessSet) Stats() (combines, evictions uint64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.combines, ps.evictions
}
