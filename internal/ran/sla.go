package ran

import (
	"fmt"
	"strings"
	"time"
)

// This file is the SLA-class model: per-cell traffic classes (a
// URLLC-like tight-deadline class vs an eMBB-like throughput class), with
// an optional deadline of URLLC's own. Two rules elsewhere isolate URLLC
// from an eMBB overload: a worker takes any cell's URLLC backlog before any cell's
// eMBB (ready.pick), and every (cell, class) has its own QueueDepth bound,
// so an eMBB backlog fills only its own queue. That bound is the
// runtime's one response to overload: an arrival is refused only when
// its own (cell, class) is full, and every accepted block decodes with
// the full iteration budget.

// Class is a cell's SLA traffic class.
type Class uint8

// Traffic classes. ClassEMBB is the zero value so a class-blind
// configuration behaves exactly as before: every cell is throughput-class
// and no class machinery engages.
const (
	// ClassEMBB is the throughput class: loose deadline, taken after
	// every waiting URLLC block.
	ClassEMBB Class = iota
	// ClassURLLC is the tight-deadline class: taken ahead of all eMBB
	// work.
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
// class-blind: every cell is eMBB and take order is unchanged.
type SLAConfig struct {
	// Classes maps cell index to traffic class; nil (or a short slice)
	// defaults the remainder to ClassEMBB, and entries past Config.Cells
	// class no cell.
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

// classDeadline is the per-class processing budget.
func (r *Runtime) classDeadline(c Class) time.Duration {
	if c == ClassURLLC && r.cfg.SLA.URLLCDeadline > 0 {
		return r.cfg.SLA.URLLCDeadline
	}
	return r.cfg.Deadline
}
