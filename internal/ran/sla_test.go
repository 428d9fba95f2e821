package ran

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/turbo"
)

// bareSLARuntime builds a Runtime with its ready structure and metrics
// but no goroutines — take and Submit run on the calling goroutine, so the
// table tests drive them directly instead of racing live workers.
func bareSLARuntime(cells, qdepth int, sla SLAConfig) *Runtime {
	cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells = cells
	cfg.QueueDepth = qdepth
	cfg.SLA = sla
	return &Runtime{
		cfg:    cfg,
		met:    NewMetrics(cells),
		rq:     newReady(cells, turbo.BlocksPerRegister(cfg.Width), qdepth, cfg.Workers),
		sealed: make([]atomic.Bool, cells),
	}
}

// TestBacklogRefusesOnlyItsOwnQueue: the (cell, class) queue bound is the
// runtime's one answer to overload, so one cell's eMBB backlog refuses
// that queue's arrivals and nobody else's — not another eMBB cell's, not
// a URLLC cell's — however full it is when a take reads it.
func TestBacklogRefusesOnlyItsOwnQueue(t *testing.T) {
	const qd = 100
	r := bareSLARuntime(3, qd, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB, ClassEMBB}})
	far := time.Now().Add(time.Hour)
	for i := 0; i < qd; i++ {
		if a, _ := r.rq.push(&Block{Cell: 1, Class: ClassEMBB, K: 40, Deadline: far}, true); a != Admitted {
			t.Fatalf("filling block %d: %v", i, a)
		}
	}
	// One take leaves cell 1's eMBB queue 96 % full.
	if got, ok := r.take(nil); !ok || len(got) != r.Lanes() {
		t.Fatalf("take returned %d blocks (ok=%v), want %d", len(got), ok, r.Lanes())
	}
	if a := r.Submit(2, 0, 40, nil); a != Admitted {
		t.Errorf("eMBB arrival on an empty cell: %v, want admitted", a)
	}
	if a := r.Submit(0, 0, 40, nil); a != Admitted {
		t.Errorf("URLLC arrival: %v, want admitted", a)
	}
	for i := 0; i < r.Lanes(); i++ {
		if a := r.Submit(1, 0, 40, nil); a != Admitted {
			t.Fatalf("cell 1 arrival %d into its freed slots: %v, want admitted", i, a)
		}
	}
	if a := r.Submit(1, 0, 40, nil); a != RejectedBacklog {
		t.Errorf("arrival on cell 1's full queue: %v, want refused for backlog", a)
	}
	s := r.Snapshot()
	if d := s.Cells[1].Drops; d[DropBacklog] != 1 || s.Cells[0].Dropped()+s.Cells[2].Dropped() != 0 {
		t.Errorf("drops: cell 1 %v, cells 0 and 2 %d, want one backlog refusal on cell 1 alone",
			d, s.Cells[0].Dropped()+s.Cells[2].Dropped())
	}
}

// TestRetriesPastQueueDepth: a HARQ retry waits in its (cell, class) like
// an arrival but is never refused for backlog, so retries past QueueDepth
// are all admitted and counted in RetryDepth.
func TestRetriesPastQueueDepth(t *testing.T) {
	r := bareSLARuntime(2, 100, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}})
	for i := 0; i < 105; i++ {
		if a, _ := r.rq.push(&Block{Cell: 1, K: 40, Attempt: 1}, false); a != Admitted {
			t.Fatalf("retry %d refused: %v", i, a)
		}
	}
	if _, retries := r.rq.depths(); retries != 105 {
		t.Errorf("retry depth %d, want 105", retries)
	}
}

// TestParseClassList covers the cycling expansion and error paths.
func TestParseClassList(t *testing.T) {
	got, err := ParseClassList("urllc,embb,embb", 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []Class{ClassURLLC, ClassEMBB, ClassEMBB, ClassURLLC, ClassEMBB, ClassEMBB, ClassURLLC}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
	if cs, err := ParseClassList("", 4); err != nil || cs != nil {
		t.Errorf("empty list: got %v, %v; want nil, nil", cs, err)
	}
	if _, err := ParseClassList("urllc,premium", 4); err == nil {
		t.Error("unknown class accepted")
	}
	if c, err := ParseClass(" URLLC "); err != nil || c != ClassURLLC {
		t.Errorf("case/space-insensitive parse failed: %v, %v", c, err)
	}
	if ClassURLLC.String() != "urllc" || ClassEMBB.String() != "embb" || Class(9).String() != "unknown" {
		t.Error("class names wrong")
	}
}

// TestClassDeadline: URLLC gets its own budget when configured, both
// classes share Config.Deadline otherwise.
func TestClassDeadline(t *testing.T) {
	r := bareSLARuntime(2, 64, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}, URLLCDeadline: time.Millisecond})
	r.cfg.Deadline = 10 * time.Millisecond
	if d := r.classDeadline(ClassURLLC); d != time.Millisecond {
		t.Errorf("URLLC deadline %v, want 1ms", d)
	}
	if d := r.classDeadline(ClassEMBB); d != 10*time.Millisecond {
		t.Errorf("eMBB deadline %v, want 10ms", d)
	}
	r.cfg.SLA.URLLCDeadline = 0
	if d := r.classDeadline(ClassURLLC); d != 10*time.Millisecond {
		t.Errorf("unset URLLC deadline %v, want the shared 10ms", d)
	}
}

// TestClassListLongerThanCells: only the first Cells entries of the class
// list class a cell, so a URLLC entry past the last cell changes nothing
// for the cells that exist. Both workers must decode: two OnDecoded calls
// are in flight at once only if two workers took a batch.
func TestClassListLongerThanCells(t *testing.T) {
	cfg := testConfig(simd.W128) // one block a batch
	cfg.SLA.Classes = []Class{ClassEMBB, ClassEMBB, ClassURLLC}
	both := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(both) }) }
	var inFlight atomic.Int32
	cfg.OnDecoded = func(*Block, []byte) {
		if inFlight.Add(1) == 2 {
			release()
		}
		<-both
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 40, 2, 5)
	for i := 0; i < 2; i++ {
		w, _ := pool.Get(i)
		if a := rt.Submit(i, i, pool.K, w); a != Admitted {
			t.Fatalf("block %d: %v", i, a)
		}
	}
	select {
	case <-both:
	case <-time.After(10 * time.Second):
		t.Error("the second block never reached a worker while the first held one: a worker is idle")
		release()
	}
	if s := rt.Stop(); s.Delivered != 2 {
		t.Errorf("delivered %d of 2", s.Delivered)
	}
}
