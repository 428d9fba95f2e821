package cache

import (
	"testing"
	"testing/quick"
)

func TestLevelHitAfterMiss(t *testing.T) {
	l := NewLevel(1024, 2, 64)
	if l.Access(0) {
		t.Error("cold access should miss")
	}
	if !l.Access(0) {
		t.Error("second access should hit")
	}
	if !l.Access(63) {
		t.Error("same-line access should hit")
	}
	if l.Access(64) {
		t.Error("next line should miss")
	}
	if l.Hits() != 2 || l.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", l.Hits(), l.Misses())
	}
}

func TestLevelLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 2 sets (256 bytes). Lines 0, 2, 4 map to set 0.
	l := NewLevel(256, 2, 64)
	l.Access(0 * 64)
	l.Access(2 * 64)
	l.Access(0 * 64) // 0 is now MRU, 2 is LRU
	l.Access(4 * 64) // evicts 2
	if !l.Access(0 * 64) {
		t.Error("line 0 should have survived")
	}
	if l.Access(2 * 64) {
		t.Error("line 2 should have been evicted")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(Config{
		Name:   "test",
		L1Size: 1 << 10, L1Assoc: 2,
		L2Size: 8 << 10, L2Assoc: 2,
		L3Size: 64 << 10, L3Assoc: 4,
		LineSize:  64,
		L1Latency: 4, L2Latency: 12, L3Latency: 40, MemLatency: 200,
	})
	if got := h.Load(0); got != 200 {
		t.Errorf("cold load latency = %d, want 200 (memory)", got)
	}
	if got := h.Load(0); got != 4 {
		t.Errorf("warm load latency = %d, want 4 (L1)", got)
	}
	// Thrash L1 (16 lines) but stay inside L2 (128 lines).
	for i := int64(1); i <= 32; i++ {
		h.Load(i * 64)
	}
	if got := h.Load(0); got != 12 {
		t.Errorf("L1-evicted load latency = %d, want 12 (L2)", got)
	}
}

func TestHierarchyStoreInstalls(t *testing.T) {
	h := NewHierarchy(WimpyNode)
	if got := h.Store(4096); got != WimpyNode.MemLatency {
		t.Errorf("cold store = %d, want %d", got, WimpyNode.MemLatency)
	}
	if got := h.Load(4096); got != WimpyNode.L1Latency {
		t.Errorf("load after store = %d, want L1 hit %d", got, WimpyNode.L1Latency)
	}
}

func TestWimpyVsBeefyCapacity(t *testing.T) {
	// A working set larger than wimpy L2 but inside beefy L2 must show a
	// better hit profile on the beefy node: this is the Table 1 contrast.
	const lines = 40000 // 2.5 MB working set
	run := func(cfg Config) (l2Hit float64) {
		h := NewHierarchy(cfg)
		for pass := 0; pass < 4; pass++ {
			for i := int64(0); i < lines; i++ {
				h.Load(i * 64)
			}
		}
		return float64(h.L2.Hits()) / float64(h.L2.Hits()+h.L2.Misses())
	}
	wimpy := run(WimpyNode)
	beefy := run(BeefyNode)
	if beefy <= wimpy {
		t.Errorf("beefy L2 hit rate %.3f should exceed wimpy %.3f on a 2.5MB working set", beefy, wimpy)
	}
}

func TestTable1Sizes(t *testing.T) {
	// The exact Table 1 numbers.
	if WimpyNode.L1Size != 384<<10 || WimpyNode.L2Size != 1536<<10 || WimpyNode.L3Size != 12288<<10 {
		t.Error("wimpy node sizes do not match Table 1")
	}
	if BeefyNode.L1Size != 1152<<10 || BeefyNode.L2Size != 18432<<10 || BeefyNode.L3Size != 25344<<10 {
		t.Error("beefy node sizes do not match Table 1")
	}
}

// Property: access latency is always one of the four configured values,
// and repeating any single address immediately always yields an L1 hit.
func TestHierarchyLatencyDomain(t *testing.T) {
	h := NewHierarchy(WimpyNode)
	valid := map[int]bool{
		WimpyNode.L1Latency: true, WimpyNode.L2Latency: true,
		WimpyNode.L3Latency: true, WimpyNode.MemLatency: true,
	}
	f := func(addr uint32) bool {
		a := int64(addr)
		if !valid[h.Load(a)] {
			return false
		}
		return h.Load(a) == WimpyNode.L1Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyString(t *testing.T) {
	s := NewHierarchy(BeefyNode).String()
	if s == "" {
		t.Error("empty description")
	}
}
