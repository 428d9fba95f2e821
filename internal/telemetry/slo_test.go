package telemetry

import (
	"math"
	"testing"
	"time"
)

// fakeClock steps an SLOTracker's injected clock deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func testSLO(cfg SLOConfig) (*SLOTracker, *fakeClock) {
	s := NewSLOTracker(cfg)
	c := newFakeClock()
	s.now = c.now
	return s, c
}

func TestSLODefaults(t *testing.T) {
	s := NewSLOTracker(SLOConfig{})
	cfg := s.Config()
	if cfg.Objective != 0.999 || cfg.Fast != time.Minute || cfg.Slow != 10*time.Minute {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Granularity != 5*time.Second {
		t.Errorf("granularity %v, want Fast/12 = 5s", cfg.Granularity)
	}
}

func TestSLOVerdicts(t *testing.T) {
	s, _ := testSLO(SLOConfig{Target: 10 * time.Millisecond})
	s.Observe(5*time.Millisecond, true)  // good
	s.Observe(10*time.Millisecond, true) // good: at target
	s.Observe(15*time.Millisecond, true) // bad: late
	s.Observe(5*time.Millisecond, false) // bad: dropped
	good, bad := s.Totals()
	if good != 2 || bad != 2 {
		t.Errorf("totals = %d/%d, want 2/2", good, bad)
	}
}

// TestSLOWindowRoll: observations age out of the fast window but stay
// in the slow one; burn rates follow.
func TestSLOWindowRoll(t *testing.T) {
	cfg := SLOConfig{Target: time.Millisecond, Objective: 0.9,
		Fast: time.Minute, Slow: 10 * time.Minute, Granularity: time.Second}
	s, clk := testSLO(cfg)
	for i := 0; i < 80; i++ {
		s.Observe(time.Microsecond, true)
	}
	for i := 0; i < 20; i++ {
		s.Observe(time.Second, true) // late = bad
	}
	// 20% errors vs a 10% budget: burning at 2x in both windows.
	if r := s.BurnRate(cfg.Fast); math.Abs(r-2.0) > 1e-9 {
		t.Errorf("fast burn = %v, want 2.0", r)
	}
	if r := s.BudgetRemaining(cfg.Fast); r != 0 {
		t.Errorf("budget remaining = %v, want 0 (over-burning)", r)
	}
	// Two minutes later the fast window is clean, the slow one still sees
	// the errors.
	clk.advance(2 * time.Minute)
	if g, b := s.Window(cfg.Fast); g != 0 || b != 0 {
		t.Errorf("fast window after roll = %d/%d, want empty", g, b)
	}
	if g, b := s.Window(cfg.Slow); g != 80 || b != 20 {
		t.Errorf("slow window = %d/%d, want 80/20", g, b)
	}
	if r := s.BurnRate(cfg.Fast); r != 0 {
		t.Errorf("fast burn after roll = %v, want 0", r)
	}
	if r := s.BurnRate(cfg.Slow); math.Abs(r-2.0) > 1e-9 {
		t.Errorf("slow burn after roll = %v, want 2.0", r)
	}
	// Totals never age out.
	if good, bad := s.Totals(); good != 80 || bad != 20 {
		t.Errorf("totals = %d/%d, want 80/20", good, bad)
	}
}

// TestSLORingReuse: a slot that wraps around the ring must forget the
// epoch it replaced rather than double-count it.
func TestSLORingReuse(t *testing.T) {
	cfg := SLOConfig{Fast: time.Minute, Slow: 2 * time.Minute, Granularity: time.Second}
	s, clk := testSLO(cfg)
	s.Observe(0, false)
	// Far past the slow window: same ring slot index, different epoch.
	clk.advance(time.Duration(len(s.ring)) * time.Second)
	s.Observe(0, true)
	if g, b := s.Window(cfg.Slow); g != 1 || b != 0 {
		t.Errorf("slow window = %d/%d, want 1/0 (stale slot must be evicted)", g, b)
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLOTracker
	s.Observe(time.Second, true)
	if g, b := s.Totals(); g != 0 || b != 0 {
		t.Error("nil tracker should report zeros")
	}
	if s.Families() != nil {
		t.Error("nil tracker should render no families")
	}
}

func TestSLOFamilies(t *testing.T) {
	s, _ := testSLO(SLOConfig{Target: 10 * time.Millisecond, Objective: 0.99})
	for i := 0; i < 99; i++ {
		s.Observe(time.Millisecond, true)
	}
	s.Observe(time.Millisecond, false)
	fams := s.Families()
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{"vran_slo_burn_rate", "vran_slo_budget_remaining"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("family %s missing", want)
		}
	}
	burn := byName["vran_slo_burn_rate"]
	if len(burn.Samples) != 2 {
		t.Fatalf("burn rate has %d samples, want fast+slow", len(burn.Samples))
	}
	// 1% errors against a 1% budget: burning at exactly 1.0.
	if v := burn.Samples[0].Value; math.Abs(v-1.0) > 1e-9 {
		t.Errorf("fast burn sample = %v, want 1.0", v)
	}
	if v := byName["vran_slo_budget_remaining"].Samples[0].Value; math.Abs(v) > 1e-9 {
		t.Errorf("fast budget remaining = %v, want 0", v)
	}
}
