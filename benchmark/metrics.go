package main

import (
	"fmt"
	"sort"

	"vransim/internal/ran"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// summary is the benchmark's own view of the measured span: what it
// offered, what came back verified and in deadline, and how long each
// block took from due time to callback.
type summary struct {
	attempted, verified int

	goodputMbps, mbpsPerCore, p50Ms, p99Ms spread
	classP50Ms, classP99Ms                 [ran.NumClasses]spread
	classCount                             [ran.NumClasses]int

	submitUs  []float64 // sorted
	genLateMs []float64 // sorted
}

func (p *pass) windowBounds() (startNs, widthNs int64) {
	return int64(p.warm), int64(p.span) / subWindows
}

// ok reports whether block seq came back with the right bits within its
// class's deadline, counted from its due time.
func (p *pass) ok(seq int) bool {
	e := &p.rec.ev[seq]
	return e.done != 0 && !e.bad && !p.rec.refused[seq] &&
		e.done-e.due <= int64(p.w.deadlineOf(int(e.cell)))
}

func (p *pass) summarise() *summary {
	start, width := p.windowBounds()
	classes := p.w.classes()
	s := &summary{}
	var bits [subWindows]float64
	var lat [subWindows][]float64
	var classLat [ran.NumClasses][subWindows][]float64
	for seq := 0; seq < p.rec.n; seq++ {
		e := &p.rec.ev[seq]
		w := windowOf(e.due, start, width, subWindows)
		if w < 0 {
			continue
		}
		s.attempted++
		s.submitUs = append(s.submitUs, float64(p.rec.submitNs[seq])/1e3)
		s.genLateMs = append(s.genLateMs, float64(p.rec.lateNs[seq])/1e6)
		if !p.ok(seq) {
			continue
		}
		s.verified++
		ms := float64(e.done-e.due) / 1e6
		bits[w] += float64(e.k)
		lat[w] = append(lat[w], ms)
		c := classes.ClassOf(int(e.cell))
		classLat[c][w] = append(classLat[c][w], ms)
		s.classCount[c]++
	}
	sort.Float64s(s.submitUs)
	sort.Float64s(s.genLateMs)

	quantiles := func(per [subWindows][]float64, q float64) spread {
		var v []float64
		for w := range per {
			if len(per[w]) > 0 {
				sort.Float64s(per[w])
				v = append(v, percentile(per[w], q))
			}
		}
		return spreadOf(v, false)
	}
	var goodput, perCore []float64
	for w := 0; w < subWindows; w++ {
		// Bits per µs of the sub-window as the monitor timed it.
		goodput = append(goodput, bits[w]/float64((p.edges[w+1].at-p.edges[w].at).Microseconds()))
		if cpu := p.edges[w+1].cpu - p.edges[w].cpu; cpu > 0 {
			perCore = append(perCore, bits[w]/cpu.Seconds()/1e6)
		}
	}
	s.goodputMbps, s.mbpsPerCore = spreadOf(goodput, true), spreadOf(perCore, true)
	s.p50Ms, s.p99Ms = quantiles(lat, 0.50), quantiles(lat, 0.99)
	for c := range classLat {
		s.classP50Ms[c], s.classP99Ms[c] = quantiles(classLat[c], 0.50), quantiles(classLat[c], 0.99)
	}
	return s
}

// endToEnd is what a user of the serving stack sees; measured with
// tracing off. The 99th percentile is not among them: the traced pass
// reports it, whole and per class, without a bound.
func (p *pass) endToEnd(s *summary) []metric {
	setup := spreadOf(p.setupS, false)
	samples := fmt.Sprintf(", %d samples", s.verified)
	return []metric{
		{"goodput_mbps", "Mbps", s.goodputMbps.thirdBest, s.goodputMbps.note()},
		{"mbps_per_core", "Mbps/core", s.mbpsPerCore.thirdBest, s.mbpsPerCore.note()},
		{"latency_p50_ms", "ms", s.p50Ms.thirdBest, s.p50Ms.note() + samples},
		{"delivered_ratio", "ratio", ratio(float64(s.verified), float64(s.attempted)),
			fmt.Sprintf("%d of %d offered blocks verified in deadline; 1 - miss_ratio", s.verified, s.attempted)},
		{"setup_s", "s", setup.median, fmt.Sprintf("CPU time (user+sys), median of %d set-ups, min %.4g max %.4g; wall median %.4g",
			len(p.setupS), setup.min, setup.max, spreadOf(p.setupWallS, false).median)},
		{"peak_rss_mb", "MB", p.peakRSS, "ru_maxrss after drain"},
	}
}

// ledger is the runtime's own counters over the measured span: the
// difference of the snapshots at its two ends.
type ledger struct {
	batches, decoded         float64
	busyUs                   float64
	elapsedS                 float64
	iters                    float64 // weighted sum of per-block iterations
	steals, harqRetries      float64
	degraded, compiles       float64
	drops                    float64
	shedMax, reservedWorkers float64
}

func (p *pass) ledger() ledger {
	a, b := p.edges[0].snap, p.edges[len(p.edges)-1].snap
	l := ledger{
		batches:         float64(b.Batches - a.Batches),
		decoded:         float64(b.DecodedBlocks - a.DecodedBlocks),
		busyUs:          b.AvgDecodeUs*float64(b.DecodedBlocks) - a.AvgDecodeUs*float64(a.DecodedBlocks),
		elapsedS:        (p.edges[len(p.edges)-1].at - p.edges[0].at).Seconds(),
		steals:          float64(b.Steals - a.Steals),
		harqRetries:     float64(b.HARQRetries - a.HARQRetries),
		degraded:        float64(b.DegradedBatches - a.DegradedBatches),
		compiles:        float64(b.ProgramCompiles - a.ProgramCompiles),
		drops:           float64(b.Dropped() - a.Dropped()),
		reservedWorkers: float64(b.ReservedWorkers),
	}
	for i := range b.DecodeIters {
		l.iters += float64(i+1) * float64(b.DecodeIters[i]-a.DecodeIters[i])
	}
	for _, e := range p.edges {
		l.shedMax = max(l.shedMax, float64(e.snap.ShedLevel))
	}
	return l
}

// conservation compares what the run offered with the runtime's ledger
// after drain, per class: every block must be delivered or dropped for a
// named cause, and every delivered or late block must have produced
// exactly one callback. It returns the total imbalance in blocks.
func (p *pass) conservation() (imbalance int64, detail string) {
	classes := p.w.classes()
	var offered [ran.NumClasses]int64
	for seq := 0; seq < p.rec.n; seq++ {
		// A frame the coordinator refused never reached a runtime.
		if p.w.fleet && p.rec.refused[seq] {
			continue
		}
		offered[classes.ClassOf(int(p.rec.ev[seq].cell))]++
	}
	abs := func(x int64) int64 { return max(x, -x) }
	for c := range offered {
		a, b := p.rec.base.Classes[c], p.final.Classes[c]
		ended := int64(b.Delivered-a.Delivered) + int64(b.Dropped()-a.Dropped())
		if d := offered[c] - ended; d != 0 {
			imbalance += abs(d)
			detail += fmt.Sprintf(" class %v: offered %d, ledger ended %d;", ran.Class(c), offered[c], ended)
		}
	}
	if d := p.rec.callbacks.Load() - p.rec.answered(p.final); d != 0 {
		imbalance += abs(d)
		detail += fmt.Sprintf(" callbacks %d, ledger delivered+late %d;", p.rec.callbacks.Load(), p.rec.answered(p.final))
	}
	return imbalance, detail
}

// check is the correctness gate: any failure here means no metrics.
func (p *pass) check() error {
	if n := p.rec.mismatches.Load(); n != 0 {
		return fmt.Errorf("%s: %d decoded payloads differ from the pool's truth bits", p.w.name, n)
	}
	if n := p.rec.strays.Load(); n != 0 {
		return fmt.Errorf("%s: %d callbacks match no offered block", p.w.name, n)
	}
	if n, detail := p.conservation(); n != 0 {
		return fmt.Errorf("%s: block conservation broken by %d:%s", p.w.name, n, detail)
	}
	return nil
}
