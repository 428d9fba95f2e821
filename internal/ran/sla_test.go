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
// but no goroutines — the controller methods (updateDegrade, updateShed,
// shouldShed, clampClass) and take are pure functions of this state, so
// the table tests drive them directly instead of racing live workers.
func bareSLARuntime(cells, qdepth, maxIters int, sla SLAConfig, predict bool) *Runtime {
	cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells = cells
	cfg.QueueDepth = qdepth
	cfg.MaxIters = maxIters
	cfg.SLA = sla
	r := &Runtime{
		cfg:       cfg,
		met:       NewMetrics(cells),
		rq:        newReady(cells, turbo.BlocksPerRegister(cfg.Width), qdepth, cfg.Workers),
		slaActive: cfg.SLA.hasURLLC(),
	}
	if predict {
		r.preds = make([]*Predictor, cells)
		for i := range r.preds {
			r.preds[i] = NewPredictor(cfg.Predict)
		}
	}
	return r
}

// fill sets one (cell, class)'s waiting count to n (the controllers
// only read the counts).
func fill(r *Runtime, cell int, c Class, n int) { r.rq.waiting[qi(cell, c)] = n }

// TestDegradeLadderTransitions walks the reactive iteration-clamp
// ladder through its thresholds in both directions: worst backlog
// fraction 50/75/90% maps to levels 1/2/3, the level is clamped to
// MaxIters-1, and a drained queue restores level 0 (full budget, no
// ItersOverride clamp left behind).
func TestDegradeLadderTransitions(t *testing.T) {
	const qd = 100
	cases := []struct {
		name     string
		depth    int // worst queue depth out of qd
		maxIters int
		want     int
	}{
		{"idle", 0, 4, 0},
		{"under-half", 49, 4, 0},
		{"at-half", 50, 4, 1},
		{"under-three-quarters", 74, 4, 1},
		{"at-three-quarters", 75, 4, 2},
		{"under-ninety", 89, 4, 2},
		{"at-ninety", 90, 4, 3},
		{"full", 100, 4, 3},
		{"clamped-by-iters", 100, 3, 2},
		{"clamped-to-one", 100, 2, 1},
		{"single-iter-never-degrades", 100, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bareSLARuntime(2, qd, tc.maxIters, SLAConfig{}, false)
			fill(r, 1, ClassEMBB, tc.depth)
			r.updateDegrade()
			if got := int(r.degrade.Load()); got != tc.want {
				t.Errorf("depth %d/%d, MaxIters %d: level %d, want %d", tc.depth, qd, tc.maxIters, got, tc.want)
			}
			// Restore: draining the backlog returns the ladder to level 0
			// on the next take — no residual clamp.
			fill(r, 1, ClassEMBB, 0)
			r.updateDegrade()
			if got := int(r.degrade.Load()); got != 0 {
				t.Errorf("level %d after drain, want 0", got)
			}
		})
	}
}

// TestDegradeWatchesEveryQueue: the ladder reacts to the worst backlog
// across cells AND classes, HARQ retries included — a retry waits in its
// (cell, class) like an arrival, and is never refused for backlog.
func TestDegradeWatchesEveryQueue(t *testing.T) {
	r := bareSLARuntime(3, 100, 4, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB, ClassEMBB}}, false)
	fill(r, 0, ClassURLLC, 80)
	r.updateDegrade()
	if got := int(r.degrade.Load()); got != 2 {
		t.Errorf("URLLC backlog: level %d, want 2", got)
	}
	fill(r, 0, ClassURLLC, 0)
	for i := 0; i < 105; i++ {
		if a, _ := r.rq.push(&Block{Cell: 2, K: 40, Attempt: 1}, false); a != Admitted {
			t.Fatalf("retry %d refused: %v", i, a)
		}
	}
	r.updateDegrade()
	if got := int(r.degrade.Load()); got != 3 {
		t.Errorf("retry backlog: level %d, want 3", got)
	}
	if _, retries := r.rq.depths(); retries != 105 {
		t.Errorf("retry depth %d, want 105", retries)
	}
}

// TestShedLadderEscalation drives updateShed through its signal table:
// queue-pressure thresholds on each class and the predictor's burst
// state, asserting the level each combination lands on. Escalation is
// immediate (a single take).
func TestShedLadderEscalation(t *testing.T) {
	sla := SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}}
	const qd = 100
	cases := []struct {
		name       string
		embbDepth  int // eMBB queue depth on cell 1
		urllcDepth int // URLLC queue depth on cell 0
		burst      bool
		want       int
	}{
		{"calm", 0, 0, false, shedOff},
		{"embb-under-half", 49, 0, false, shedOff},
		{"embb-at-half", 50, 0, false, shedPressure},
		{"burst-predicted", 0, 0, true, shedPressure},
		{"embb-at-three-quarters", 75, 0, false, shedAll},
		{"urllc-at-half", 0, 50, false, shedAll},
		{"urllc-under-half", 0, 49, false, shedOff},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bareSLARuntime(2, qd, 4, sla, tc.burst)
			fill(r, 1, ClassEMBB, tc.embbDepth)
			fill(r, 0, ClassURLLC, tc.urllcDepth)
			if tc.burst {
				// Force the predictor into a declared burst: a quiet
				// baseline, then a sustained jump.
				for i := 0; i < 50; i++ {
					r.preds[0].Tick(1)
				}
				for i := 0; i < 10; i++ {
					r.preds[0].Tick(20)
				}
				if !r.preds[0].Burst() {
					t.Fatal("predictor did not enter burst state")
				}
			}
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
	r := bareSLARuntime(2, 100, 4, sla, false)

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
	r := bareSLARuntime(3, 100, 4, sla, false)
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
	blind := bareSLARuntime(2, 100, 4, SLAConfig{}, false)
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

// TestClampClassPolicy: the degradation ladder's iteration clamp is
// class-blind on a legacy runtime, but with SLA classes active eMBB
// absorbs the clamp first and URLLC stays at full budget until the
// last level.
func TestClampClassPolicy(t *testing.T) {
	slaAware := bareSLARuntime(2, 100, 4, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}}, false)
	legacy := bareSLARuntime(2, 100, 4, SLAConfig{}, false)
	cases := []struct {
		class Class
		lvl   int
		aware bool // clamp applies on the class-aware runtime
	}{
		{ClassEMBB, 1, true},
		{ClassEMBB, 3, true},
		{ClassURLLC, 1, false},
		{ClassURLLC, 2, false},
		{ClassURLLC, 3, true},
	}
	for _, tc := range cases {
		if got := slaAware.clampClass(tc.class, tc.lvl); got != tc.aware {
			t.Errorf("class-aware clampClass(%v, %d) = %v, want %v", tc.class, tc.lvl, got, tc.aware)
		}
		if !legacy.clampClass(tc.class, tc.lvl) {
			t.Errorf("legacy clampClass(%v, %d) = false, want true (class-blind clamps all)", tc.class, tc.lvl)
		}
	}
}

// TestDegradeClassSignals: with SLA classes active, the iteration-clamp
// level a URLLC batch sees comes from the URLLC backlog alone — a
// saturated eMBB queue raises the global (eMBB) level but leaves the
// URLLC level at 0, and vice versa the URLLC backlog raises both (the
// global level watches every queue).
func TestDegradeClassSignals(t *testing.T) {
	r := bareSLARuntime(2, 100, 4, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}}, false)

	fill(r, 1, ClassEMBB, 95) // eMBB saturated
	r.updateDegrade()
	if got := int(r.degrade.Load()); got != 3 {
		t.Errorf("global level %d with saturated eMBB queue, want 3", got)
	}
	if got := int(r.degradeU.Load()); got != 0 {
		t.Errorf("URLLC level %d with only eMBB backed up, want 0", got)
	}

	fill(r, 1, ClassEMBB, 0)
	fill(r, 0, ClassURLLC, 80) // URLLC at 80%
	r.updateDegrade()
	if got := int(r.degrade.Load()); got != 2 {
		t.Errorf("global level %d with URLLC at 80%%, want 2", got)
	}
	if got := int(r.degradeU.Load()); got != 2 {
		t.Errorf("URLLC level %d with its own queue at 80%%, want 2", got)
	}
}

// TestResolveReserve covers the URLLC worker-reservation defaulting:
// auto = Workers/4 (min 1) when URLLC cells exist, explicit values are
// clamped to leave at least one general worker, negative disables, and
// class-blind runtimes never reserve.
func TestResolveReserve(t *testing.T) {
	cases := []struct {
		active  bool
		want    int
		workers int
		out     int
	}{
		{false, 0, 4, 0}, // class-blind: no reservation regardless
		{false, 3, 4, 0}, // even explicit asks are ignored without URLLC
		{true, 0, 4, 1},  // auto: Workers/4
		{true, 0, 8, 2},  // auto scales with the pool
		{true, 0, 2, 1},  // auto floor: min 1
		{true, 0, 1, 0},  // a single worker can't be split
		{true, 2, 4, 2},  // explicit honored
		{true, 9, 4, 3},  // clamped: one general worker always remains
		{true, -1, 4, 0}, // negative disables
		{true, 4, 1, 0},  // clamp floor: never negative
	}
	for _, tc := range cases {
		if got := resolveReserve(tc.active, tc.want, tc.workers); got != tc.out {
			t.Errorf("resolveReserve(%v, %d, %d) = %d, want %d", tc.active, tc.want, tc.workers, got, tc.out)
		}
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
	r := bareSLARuntime(2, 64, 4, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}, URLLCDeadline: time.Millisecond}, false)
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
// class machinery — it would reserve a worker for a class nothing can
// ever arrive in. Both workers must decode: two OnDecoded calls are in
// flight at once only if two workers took a batch.
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
	if got := rt.Snapshot().ReservedWorkers; got != 0 {
		t.Errorf("%d workers reserved for a URLLC class no cell carries", got)
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
