package ran

import (
	"fmt"
	"strings"
	"time"
)

// This file is the SLA-class model and the class-aware overload
// controller: per-cell traffic classes (a URLLC-like tight-deadline
// class vs an eMBB-like throughput class), a shed ladder that drops the
// cheapest class first when the runtime is overloaded, and the
// URLLC-first take that lets an idle worker serve any cell's URLLC
// backlog before any cell's eMBB. Shedding at the door is the runtime's
// one response to overload: every accepted block decodes with the full
// iteration budget, and the ladder reads one kind of signal, the
// per-class backlog fractions.

// Class is a cell's SLA traffic class.
type Class uint8

// Traffic classes, cheapest-to-shed first. ClassEMBB is the zero value
// so a class-blind configuration behaves exactly as before: every cell
// is throughput-class and no class machinery engages.
const (
	// ClassEMBB is the throughput class: loose deadline, sheddable
	// under overload (capacity spent here is the cheapest to reclaim).
	ClassEMBB Class = iota
	// ClassURLLC is the tight-deadline class: taken ahead of all eMBB
	// work and never shed at admission.
	ClassURLLC
	// NumClasses sizes per-class arrays.
	NumClasses
)

// String names the class in metric labels and reports.
func (c Class) String() string {
	switch c {
	case ClassEMBB:
		return "embb"
	case ClassURLLC:
		return "urllc"
	}
	return "unknown"
}

// ParseClass resolves a class name ("embb" or "urllc").
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "embb", "":
		return ClassEMBB, nil
	case "urllc":
		return ClassURLLC, nil
	}
	return ClassEMBB, fmt.Errorf("ran: unknown traffic class %q (want urllc or embb)", s)
}

// ParseClassList expands a comma-separated class list ("urllc,embb")
// into a per-cell class slice: entry i classes cell i, and a list
// shorter than cells cycles (so "urllc,embb,embb" shapes any fleet 1/3
// URLLC). An empty list returns nil — the class-blind default.
func ParseClassList(csv string, cells int) ([]Class, error) {
	csv = strings.TrimSpace(csv)
	if csv == "" {
		return nil, nil
	}
	var entries []Class
	for _, tok := range strings.Split(csv, ",") {
		c, err := ParseClass(tok)
		if err != nil {
			return nil, err
		}
		entries = append(entries, c)
	}
	out := make([]Class, cells)
	for i := range out {
		out[i] = entries[i%len(entries)]
	}
	return out, nil
}

// SLAConfig shapes the class model on a Config. The zero value is
// class-blind: every cell is eMBB, nothing sheds, take order is
// unchanged.
type SLAConfig struct {
	// Classes maps cell index to traffic class; nil (or a short slice)
	// defaults the remainder to ClassEMBB, and entries past Config.Cells
	// are dropped by New.
	Classes []Class
	// URLLCDeadline overrides Config.Deadline for URLLC-class blocks
	// (0: same deadline for both classes).
	URLLCDeadline time.Duration
}

// ClassOf returns the class of a cell (ClassEMBB beyond the configured
// slice).
func (s SLAConfig) ClassOf(cell int) Class {
	if cell < len(s.Classes) {
		return s.Classes[cell]
	}
	return ClassEMBB
}

// hasURLLC reports whether any cell carries the tight-deadline class —
// the condition for the shed ladder to engage (with a single class
// there is nothing cheaper to shed).
func (s SLAConfig) hasURLLC() bool {
	for _, c := range s.Classes {
		if c == ClassURLLC {
			return true
		}
	}
	return false
}

// classDeadline is the per-class processing budget.
func (r *Runtime) classDeadline(c Class) time.Duration {
	if c == ClassURLLC && r.cfg.SLA.URLLCDeadline > 0 {
		return r.cfg.SLA.URLLCDeadline
	}
	return r.cfg.Deadline
}

// Shed ladder levels. Level 0 admits everything; level 1 sheds eMBB
// arrivals whose own cell already has shedQueueFrac of its eMBB queue
// backed up; level 2 sheds every eMBB arrival. URLLC is never shed at
// admission — its protection is the whole point of the ladder.
const (
	shedOff      = 0
	shedPressure = 1
	shedAll      = 2
)

const (
	// shedQueueFrac is the per-cell eMBB backlog fraction at which shed
	// level 1 starts rejecting that cell's eMBB arrivals.
	shedQueueFrac = 0.25
	// shedDownHold is how many consecutive calm takes the ladder waits
	// before stepping down one level — the hysteresis that stops it
	// flapping at a threshold.
	shedDownHold = 8
)

// backlog is one (cell, class)'s waiting count over the QueueDepth
// bound (rq.mu held). HARQ retries wait in their (cell, class) like
// arrivals, so they count.
func (r *Runtime) backlog(cell int, c Class) float64 {
	return float64(r.rq.waiting[qi(cell, c)]) / float64(r.cfg.QueueDepth)
}

// updateShed recomputes the shed level from the two signals the
// controller watches: the worst eMBB and the worst URLLC backlog
// fraction over the cells. Escalation is immediate; de-escalation needs
// shedDownHold consecutive calm takes (hysteresis). Called at every
// take, with rq.mu held — which is what keeps shedCalm single-owner.
func (r *Runtime) updateShed() {
	if !r.slaActive {
		return
	}
	var worstE, worstU float64
	for cell := 0; cell < r.cfg.Cells; cell++ {
		worstE = max(worstE, r.backlog(cell, ClassEMBB))
		worstU = max(worstU, r.backlog(cell, ClassURLLC))
	}
	want := shedOff
	if worstE >= 0.5 {
		want = shedPressure
	}
	if worstU >= 0.5 || worstE >= 0.75 {
		want = shedAll
	}
	cur := int(r.shed.Load())
	switch {
	case want > cur:
		r.shed.Store(int32(want))
		r.shedCalm = 0
	case want < cur:
		r.shedCalm++
		if r.shedCalm >= shedDownHold {
			r.shed.Store(int32(cur - 1))
			r.shedCalm = 0
		}
	default:
		r.shedCalm = 0
	}
}

// shouldShed is the admission-time class gate: true when this arrival
// should be rejected to protect the tighter class. URLLC is never shed.
func (r *Runtime) shouldShed(cell int, c Class) bool {
	if !r.slaActive || c != ClassEMBB {
		return false
	}
	switch int(r.shed.Load()) {
	case shedAll:
		return true
	case shedPressure:
		f := float64(r.rq.depth(qi(cell, ClassEMBB))) / float64(r.cfg.QueueDepth)
		return f >= shedQueueFrac
	}
	return false
}
