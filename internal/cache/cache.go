// Package cache models a three-level set-associative data-cache hierarchy
// with LRU replacement. The timing simulator replays the Load/Store µops
// of a trace through a Hierarchy to decide each access's latency and to
// split backend stalls into core-bound vs memory-bound, reproducing the
// wimpy-node / beefy-node comparison of the paper's Table 1 and Figure 7.
package cache

import "fmt"

// Level simulates one set-associative cache level.
type Level struct {
	assoc    int
	lineSize int
	numSets  int
	sets     [][]int64 // per-set LRU stack of line tags, most recent first
	hits     int64
	misses   int64
}

// NewLevel builds a cache level. size must be a multiple of assoc*lineSize.
func NewLevel(sizeBytes, assoc, lineSize int) *Level {
	numSets := sizeBytes / (assoc * lineSize)
	if numSets < 1 {
		numSets = 1
	}
	sets := make([][]int64, numSets)
	for i := range sets {
		sets[i] = make([]int64, 0, assoc)
	}
	return &Level{
		assoc:    assoc,
		lineSize: lineSize,
		numSets:  numSets,
		sets:     sets,
	}
}

// Hits and Misses report the access statistics so far.
func (l *Level) Hits() int64   { return l.hits }
func (l *Level) Misses() int64 { return l.misses }

// Access looks up the line containing addr, updating LRU state, and
// reports whether it hit. On miss the line is installed (allocate on
// read and write alike).
func (l *Level) Access(addr int64) bool {
	line := addr / int64(l.lineSize)
	set := l.sets[line%int64(l.numSets)]
	for i, tag := range set {
		if tag == line {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = line
			l.hits++
			return true
		}
	}
	l.misses++
	if len(set) < l.assoc {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	l.sets[line%int64(l.numSets)] = set
	return false
}

// Contains reports whether the line holding addr is present, without
// updating LRU state or statistics.
func (l *Level) Contains(addr int64) bool {
	line := addr / int64(l.lineSize)
	for _, tag := range l.sets[line%int64(l.numSets)] {
		if tag == line {
			return true
		}
	}
	return false
}

// Install inserts the line containing addr without touching the hit/miss
// statistics; the hierarchy's prefetcher uses it.
func (l *Level) Install(addr int64) {
	line := addr / int64(l.lineSize)
	set := l.sets[line%int64(l.numSets)]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return
		}
	}
	if len(set) < l.assoc {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	l.sets[line%int64(l.numSets)] = set
}

// Config describes a full hierarchy. Sizes are bytes.
type Config struct {
	Name       string
	L1Size     int
	L1Assoc    int
	L2Size     int
	L2Assoc    int
	L3Size     int
	L3Assoc    int
	LineSize   int
	L1Latency  int // cycles
	L2Latency  int
	L3Latency  int
	MemLatency int // cycles on full miss
	// PrefetchDegree is how many successor lines (plus one predecessor
	// line) the hardware stream prefetcher installs on every access.
	// Modern Intel cores prefetch ascending and descending streams;
	// without this, the streaming kernels that dominate vRAN would
	// look memory bound, which contradicts the paper's measurements.
	PrefetchDegree int
}

// The two platforms of the paper's Table 1. Cache sizes are the totals
// reported there (the paper lists socket totals; the model treats them as
// the capacity visible to the measured core, which preserves the
// wimpy-vs-beefy contrast that drives Figure 7). Latencies are typical
// Skylake-generation figures.
var (
	// WimpyNode models the Core i7-8700 vRAN host.
	WimpyNode = Config{
		Name:   "wimpy",
		L1Size: 384 << 10, L1Assoc: 8,
		L2Size: 1536 << 10, L2Assoc: 4,
		L3Size: 12288 << 10, L3Assoc: 16,
		LineSize:  64,
		L1Latency: 4, L2Latency: 12, L3Latency: 38, MemLatency: 180,
		PrefetchDegree: 2,
	}
	// BeefyNode models the Xeon W2195 host.
	BeefyNode = Config{
		Name:   "beefy",
		L1Size: 1152 << 10, L1Assoc: 8,
		L2Size: 18432 << 10, L2Assoc: 16,
		L3Size: 25344 << 10, L3Assoc: 11,
		LineSize:  64,
		L1Latency: 4, L2Latency: 14, L3Latency: 44, MemLatency: 180,
		PrefetchDegree: 2,
	}
)

// Hierarchy glues three Levels together.
type Hierarchy struct {
	cfg Config
	L1  *Level
	L2  *Level
	L3  *Level
}

// NewHierarchy builds the three levels described by cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		L1:  NewLevel(cfg.L1Size, cfg.L1Assoc, cfg.LineSize),
		L2:  NewLevel(cfg.L2Size, cfg.L2Assoc, cfg.LineSize),
		L3:  NewLevel(cfg.L3Size, cfg.L3Assoc, cfg.LineSize),
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Load returns the latency in cycles to read the line containing addr,
// walking the hierarchy and installing the line at every level it missed
// (inclusive fill). The stream prefetcher then installs the neighboring
// lines so sequential sweeps in either direction hit.
func (h *Hierarchy) Load(addr int64) int {
	lat := h.cfg.MemLatency
	switch {
	case h.L1.Access(addr):
		lat = h.cfg.L1Latency
	case h.L2.Access(addr):
		lat = h.cfg.L2Latency
	case h.L3.Access(addr):
		lat = h.cfg.L3Latency
	}
	line := int64(h.cfg.LineSize)
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		h.install(addr + int64(d)*line)
	}
	if h.cfg.PrefetchDegree > 0 {
		h.install(addr - line)
	}
	return lat
}

// install pushes a prefetched line into every level without counting it
// in the demand hit/miss statistics.
func (h *Hierarchy) install(addr int64) {
	if addr < 0 {
		return
	}
	h.L1.Install(addr)
	h.L2.Install(addr)
	h.L3.Install(addr)
}

// WouldMissL1 reports whether a load of addr would miss the L1, without
// performing the access (the core model uses it to gate dispatch on MSHR
// availability).
func (h *Hierarchy) WouldMissL1(addr int64) bool { return !h.L1.Contains(addr) }

// Store models a write access. With a write-back write-allocate policy
// the line must be owned locally, so the lookup walk matches Load; the
// returned latency is what a dependent operation would observe.
func (h *Hierarchy) Store(addr int64) int { return h.Load(addr) }

// String summarizes the hierarchy's geometry.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("%s: L1=%dKB L2=%dKB L3=%dKB line=%dB",
		h.cfg.Name, h.cfg.L1Size>>10, h.cfg.L2Size>>10, h.cfg.L3Size>>10, h.cfg.LineSize)
}
