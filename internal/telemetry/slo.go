package telemetry

import (
	"sync"
	"time"
)

// SLOConfig shapes an SLOTracker. The objective is availability-style:
// a block is "good" when it was delivered within Target; the error
// budget is 1-Objective of all blocks. Burn rate is reported over two
// rolling windows (multi-window burn-rate alerting): a fast window that
// reacts to incidents and a slow window that tracks sustained
// degradation.
type SLOConfig struct {
	// Target is the latency bound a good block must meet (the serving
	// deadline when unset — callers default it).
	Target time.Duration
	// Objective is the fraction of blocks that must be good
	// (default 0.999).
	Objective float64
	// Fast and Slow are the rolling window lengths (defaults 1m / 10m —
	// short because a vRAN runtime's incidents play out in seconds).
	Fast, Slow time.Duration
	// Granularity is the ring-bucket width (default Fast/12, floor 1s
	// ceiling Fast).
	Granularity time.Duration
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.999
	}
	if c.Fast <= 0 {
		c.Fast = time.Minute
	}
	if c.Slow <= c.Fast {
		c.Slow = 10 * c.Fast
	}
	if c.Granularity <= 0 {
		c.Granularity = c.Fast / 12
	}
	if c.Granularity < time.Second {
		c.Granularity = time.Second
	}
	if c.Granularity > c.Fast {
		c.Granularity = c.Fast
	}
	return c
}

// sloBucket is one granularity slot of the ring; slot is the absolute
// bucket number (now / granularity) so stale entries self-identify.
type sloBucket struct {
	slot      int64
	good, bad uint64
}

// SLOTracker is a rolling good/bad event counter with burn-rate
// readout: a time-bucketed ring sized to cover the slow window. A nil
// tracker is valid and records nothing.
type SLOTracker struct {
	cfg SLOConfig
	now func() time.Time // injectable for tests

	mu        sync.Mutex
	ring      []sloBucket
	goodTotal uint64
	badTotal  uint64
}

// NewSLOTracker builds a tracker from cfg (zero fields defaulted).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	n := int(cfg.Slow/cfg.Granularity) + 2
	return &SLOTracker{cfg: cfg, now: time.Now, ring: make([]sloBucket, n)}
}

// Config returns the tracker's effective (defaulted) configuration.
func (s *SLOTracker) Config() SLOConfig {
	if s == nil {
		return SLOConfig{}
	}
	return s.cfg
}

// Observe records one block outcome: good when it was delivered within
// the target latency.
func (s *SLOTracker) Observe(latency time.Duration, delivered bool) {
	if s == nil {
		return
	}
	good := delivered && (s.cfg.Target <= 0 || latency <= s.cfg.Target)
	s.mu.Lock()
	slot := s.now().UnixNano() / int64(s.cfg.Granularity)
	b := &s.ring[int(slot%int64(len(s.ring)))]
	if b.slot != slot {
		*b = sloBucket{slot: slot}
	}
	if good {
		b.good++
		s.goodTotal++
	} else {
		b.bad++
		s.badTotal++
	}
	s.mu.Unlock()
}

// Totals reports the all-time good/bad counts.
func (s *SLOTracker) Totals() (good, bad uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.goodTotal, s.badTotal
}

// Window sums the good/bad counts over the trailing window w.
func (s *SLOTracker) Window(w time.Duration) (good, bad uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slots := int64(w / s.cfg.Granularity)
	if slots < 1 {
		slots = 1
	}
	nowSlot := s.now().UnixNano() / int64(s.cfg.Granularity)
	min := nowSlot - slots + 1
	for i := range s.ring {
		b := &s.ring[i]
		if b.slot >= min && b.slot <= nowSlot {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

// BurnRate reports how fast the error budget is being consumed over
// the trailing window w: observed error rate divided by the budgeted
// error rate (1-objective). 1.0 means burning exactly at budget; 0
// means no errors (or no traffic).
func (s *SLOTracker) BurnRate(w time.Duration) float64 {
	good, bad := s.Window(w)
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - s.cfg.Objective
	return (float64(bad) / float64(total)) / budget
}

// BudgetRemaining reports the fraction of the window's error budget
// still unspent: 1 - BurnRate, floored at 0 (fully burnt) — the gauge a
// dashboard alarms on.
func (s *SLOTracker) BudgetRemaining(w time.Duration) float64 {
	r := 1 - s.BurnRate(w)
	if r < 0 {
		return 0
	}
	return r
}

// Families renders the tracker as vran_slo_* series: burn-rate and
// budget-remaining gauges per window.
func (s *SLOTracker) Families() []Family {
	if s == nil {
		return nil
	}
	return []Family{
		{Name: "vran_slo_burn_rate", Type: Gauge,
			Help: "Error-budget burn rate (1.0 = burning exactly at budget).",
			Samples: []Sample{
				{Labels: []Label{L("window", "fast")}, Value: s.BurnRate(s.cfg.Fast)},
				{Labels: []Label{L("window", "slow")}, Value: s.BurnRate(s.cfg.Slow)},
			}},
		{Name: "vran_slo_budget_remaining", Type: Gauge,
			Help: "Fraction of the window's error budget still unspent.",
			Samples: []Sample{
				{Labels: []Label{L("window", "fast")}, Value: s.BudgetRemaining(s.cfg.Fast)},
				{Labels: []Label{L("window", "slow")}, Value: s.BudgetRemaining(s.cfg.Slow)},
			}},
	}
}
