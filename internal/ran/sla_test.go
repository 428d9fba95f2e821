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
// but no goroutines — the controller methods (updateShed, shouldShed)
// and take are pure functions of this state, so the table tests drive
// them directly instead of racing live workers.
func bareSLARuntime(cells, qdepth int, sla SLAConfig) *Runtime {
	cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells = cells
	cfg.QueueDepth = qdepth
	cfg.SLA = sla
	return &Runtime{
		cfg:       cfg,
		met:       NewMetrics(cells),
		rq:        newReady(cells, turbo.BlocksPerRegister(cfg.Width), qdepth, cfg.Workers),
		slaActive: cfg.SLA.hasURLLC(),
	}
}

// fill sets one (cell, class)'s waiting count to n (the controllers
// only read the counts).
func fill(r *Runtime, cell int, c Class, n int) { r.rq.waiting[qi(cell, c)] = n }

// TestShedLadderEscalation drives updateShed through its signal table:
// the backlog-fraction thresholds on each class, asserting the level
// each combination lands on. Escalation is immediate (a single take).
func TestShedLadderEscalation(t *testing.T) {
	sla := SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}}
	const qd = 100
	cases := []struct {
		name       string
		embbDepth  int // eMBB queue depth on cell 1
		urllcDepth int // URLLC queue depth on cell 0
		want       int
	}{
		{"calm", 0, 0, shedOff},
		{"embb-under-half", 49, 0, shedOff},
		{"embb-at-half", 50, 0, shedPressure},
		{"embb-at-three-quarters", 75, 0, shedAll},
		{"urllc-at-half", 0, 50, shedAll},
		{"urllc-under-half", 0, 49, shedOff},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bareSLARuntime(2, qd, sla)
			fill(r, 1, ClassEMBB, tc.embbDepth)
			fill(r, 0, ClassURLLC, tc.urllcDepth)
			r.updateShed()
			if got := int(r.shed.Load()); got != tc.want {
				t.Errorf("level %d, want %d", got, tc.want)
			}
		})
	}
}

// TestShedLadderHysteresis: the ladder steps up immediately but waits
// shedDownHold consecutive calm takes per step down, and an escalation
// mid-descent resets the calm streak.
func TestShedLadderHysteresis(t *testing.T) {
	sla := SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}}
	r := bareSLARuntime(2, 100, sla)

	fill(r, 1, ClassEMBB, 80) // >= 75% => shedAll, in one take
	r.updateShed()
	if got := int(r.shed.Load()); got != shedAll {
		t.Fatalf("escalation not immediate: level %d, want %d", got, shedAll)
	}

	fill(r, 1, ClassEMBB, 0)
	for i := 1; i < shedDownHold; i++ {
		r.updateShed()
		if got := int(r.shed.Load()); got != shedAll {
			t.Fatalf("stepped down after only %d calm takes (shedDownHold %d): level %d", i, shedDownHold, got)
		}
	}
	r.updateShed() // the shedDownHold-th calm take: one step down
	if got := int(r.shed.Load()); got != shedPressure {
		t.Fatalf("level %d after shedDownHold calm takes, want %d", got, shedPressure)
	}

	// Escalation mid-descent resets the calm streak.
	r.updateShed()
	r.updateShed() // 2 calm takes toward the next step
	fill(r, 1, ClassEMBB, 60)
	r.updateShed() // pressure again: back up... (already at pressure) streak reset
	fill(r, 1, ClassEMBB, 0)
	for i := 1; i < shedDownHold; i++ {
		r.updateShed()
		if got := int(r.shed.Load()); got != shedPressure {
			t.Fatalf("calm streak not reset by re-escalation: level %d after %d takes", got, i)
		}
	}
	r.updateShed()
	if got := int(r.shed.Load()); got != shedOff {
		t.Fatalf("level %d after full descent, want %d", got, shedOff)
	}
}

// TestShouldShedPolicy: the admission gate's class policy — URLLC never
// sheds at any level; eMBB sheds everywhere at shedAll but only on
// pressured cells at shedPressure; a class-blind runtime never sheds.
func TestShouldShedPolicy(t *testing.T) {
	sla := SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB, ClassEMBB}}
	r := bareSLARuntime(3, 100, sla)
	fill(r, 1, ClassEMBB, 30) // cell 1 pressured (>= shedQueueFrac)

	r.shed.Store(shedOff)
	for cell := 0; cell < 3; cell++ {
		if r.shouldShed(cell, r.cfg.SLA.ClassOf(cell)) {
			t.Errorf("level 0 shed cell %d", cell)
		}
	}
	r.shed.Store(shedPressure)
	if r.shouldShed(0, ClassURLLC) {
		t.Error("URLLC shed at pressure level")
	}
	if !r.shouldShed(1, ClassEMBB) {
		t.Error("pressured eMBB cell not shed at pressure level")
	}
	if r.shouldShed(2, ClassEMBB) {
		t.Error("calm eMBB cell shed at pressure level")
	}
	r.shed.Store(shedAll)
	if r.shouldShed(0, ClassURLLC) {
		t.Error("URLLC shed at shedAll")
	}
	if !r.shouldShed(1, ClassEMBB) || !r.shouldShed(2, ClassEMBB) {
		t.Error("eMBB not shed at shedAll")
	}

	// Class-blind: no URLLC cells configured, the ladder never engages.
	blind := bareSLARuntime(2, 100, SLAConfig{})
	blind.shed.Store(shedAll) // even if the level were somehow raised
	if blind.shouldShed(0, ClassEMBB) {
		t.Error("class-blind runtime shed an arrival")
	}
	blind.updateShed() // and updateShed is a no-op without URLLC cells
	fill(blind, 0, ClassEMBB, 90)
	blind.shed.Store(shedOff)
	blind.updateShed()
	if got := int(blind.shed.Load()); got != shedOff {
		t.Errorf("class-blind updateShed raised level to %d", got)
	}
}

// TestShedCountsRetries: a HARQ retry waits in its (cell, class) like an
// arrival and is never refused for backlog, so a retry backlog past
// QueueDepth raises the shed ladder as an arrival backlog would.
func TestShedCountsRetries(t *testing.T) {
	r := bareSLARuntime(2, 100, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}})
	for i := 0; i < 105; i++ {
		if a, _ := r.rq.push(&Block{Cell: 1, K: 40, Attempt: 1}, false); a != Admitted {
			t.Fatalf("retry %d refused: %v", i, a)
		}
	}
	if _, retries := r.rq.depths(); retries != 105 {
		t.Errorf("retry depth %d, want 105", retries)
	}
	r.updateShed()
	if got := int(r.shed.Load()); got != shedAll {
		t.Errorf("retry backlog: shed level %d, want %d", got, shedAll)
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
// list class a cell, so a URLLC entry past the last cell must not arm the
// class machinery — the shed ladder and the URLLC-only clamp level — for a
// class nothing can ever arrive in. Both workers must decode: two
// OnDecoded calls are in flight at once only if two workers took a batch.
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
	if rt.slaActive {
		t.Error("a URLLC entry past the last cell armed the class machinery")
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
