package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"vransim/internal/ran"
)

// event is one offered block, indexed by its sequence number.
type event struct {
	due  int64 // ns after t0: scheduled time (open loop) or submit time (closed loop)
	done int64 // ns after t0 of the OnDecoded callback; 0 if none came
	cell int32
	k    int32
	word int32
	// bad marks a callback whose bits differ from the pool's payload.
	bad bool
}

// recorder matches OnDecoded callbacks to offered blocks by the
// sequence number carried in the UE field and compares every payload
// bit for bit with the pool's truth.
type recorder struct {
	t0    time.Time
	pools *pools
	loSNR bool
	// base is the runtime's ledger when the recorder was installed.
	base *ran.Snapshot
	ev   []event
	// Written by the generator only, after the block is in the
	// runtime's hands, so kept apart from ev: submit-call time, how late
	// the generator ran, and whether the block was refused at the door.
	submitNs []int32
	lateNs   []int32
	refused  []bool
	n        int // blocks offered so far

	callbacks  atomic.Int64
	mismatches atomic.Int64
	strays     atomic.Int64 // callbacks for unknown or already-answered blocks
	// tokens returns one slot to the closed-loop generator per callback.
	tokens chan struct{}
}

func newRecorder(ps *pools, loSNR bool, capacity int) *recorder {
	return &recorder{
		t0:    time.Now(),
		pools: ps, loSNR: loSNR,
		ev:       make([]event, capacity),
		submitNs: make([]int32, capacity),
		lateNs:   make([]int32, capacity),
		refused:  make([]bool, capacity),
	}
}

// answered is how many callbacks the ledger s says this recorder is owed:
// one per block delivered or decoded late since it was installed.
func (r *recorder) answered(s *ran.Snapshot) int64 {
	return int64(s.Delivered-r.base.Delivered) + int64(s.Drops[ran.DropLate]-r.base.Drops[ran.DropLate])
}

func (r *recorder) onDecoded(b *ran.Block, bits []byte) {
	now := int64(time.Since(r.t0))
	if b.UE < 0 || b.UE >= len(r.ev) || r.ev[b.UE].k != int32(b.K) || r.ev[b.UE].done != 0 {
		r.strays.Add(1)
		return
	}
	e := &r.ev[b.UE]
	if !bytes.Equal(bits, r.pools.get(b.K, r.loSNR).truth[e.word]) {
		e.bad = true
		r.mismatches.Add(1)
	}
	e.done = max(now, 1)
	r.callbacks.Add(1)
	if r.tokens != nil {
		r.tokens <- struct{}{}
	}
}

// offer records block seq and hands it to the target.
func (r *recorder) offer(t *target, due int64, cell, k, word int) {
	seq := r.n
	r.ev[seq] = event{due: due, cell: int32(cell), k: int32(k), word: int32(word)}
	r.n++
	w := r.pools.get(k, r.loSNR).words[word]
	start := time.Now()
	ok := t.submit(cell, seq, k, w)
	r.submitNs[seq] = clampNs(time.Since(start))
	r.lateNs[seq] = clampNs(start.Sub(r.t0) - time.Duration(due))
	r.refused[seq] = !ok
}

func clampNs(d time.Duration) int32 {
	return int32(max(0, min(d, math.MaxInt32)))
}

// runClosed keeps closedInFlight K=512 blocks in flight, cells in turn,
// until span has passed: each callback frees the slot of the next.
func (r *recorder) runClosed(t *target, span time.Duration, pick func(n int) int) {
	// One slot per block in flight, so a callback never blocks a worker.
	r.tokens = make(chan struct{}, closedInFlight)
	for i := 0; i < closedInFlight; i++ {
		r.tokens <- struct{}{}
	}
	// A dropped block never returns its slot; the timer ends the run even
	// if every slot has leaked.
	end := time.NewTimer(span - time.Since(r.t0))
	defer end.Stop()
	for r.n < len(r.ev) {
		select {
		case <-r.tokens:
		case <-end.C:
			return
		}
		now := time.Since(r.t0)
		if now >= span {
			return
		}
		r.offer(t, int64(now), r.n%numCells, embbSmallK, pick(poolWords[embbSmallK]))
	}
}

// runOpen offers each arrival at its due time, whatever the system's
// state; a late generator is recorded, and latency counts from due.
func (r *recorder) runOpen(t *target, sched []arrival) {
	for _, a := range sched {
		sleepFor(time.Duration(a.due) - time.Since(r.t0))
		r.offer(t, a.due, a.cell, a.k, a.word)
	}
}

// sleepFor sleeps on the kernel's high-resolution timer. time.Sleep on an
// otherwise idle process wakes a millisecond late, which is longer than
// the mean gap between arrivals and would clump them.
func sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the next sleep shorter
}

// boundary is what the monitor samples at each edge of a sub-window.
type boundary struct {
	at   time.Duration // since t0
	cpu  time.Duration // process user+sys
	snap *ran.Snapshot
}

// rusage reads the process's CPU time (user+sys) and peak resident set.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	// Linux reports the peak in KiB.
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// monitor samples CPU time and the runtime's ledger at the edges of the
// sub-windows, from its own goroutine so the generator is never delayed.
func monitor(t *target, t0 time.Time, edges []time.Duration, out chan<- []boundary) {
	bs := make([]boundary, 0, len(edges))
	for _, e := range edges {
		sleepFor(e - time.Since(t0))
		// Clock and CPU time together, before the snapshot: a fleet's is
		// a round trip over its links.
		at := time.Since(t0)
		cpu, _ := rusage()
		s, err := t.snapshot()
		if err != nil {
			s = nil
		}
		bs = append(bs, boundary{at: at, cpu: cpu, snap: s})
	}
	out <- bs
}

// setUp is one full set-up: pools drawn and verified, the serving stack
// constructed, and the warm-up grid drained, so every worker has built
// the plan and compiled the program of every grid size.
func setUp(w workload, seed int64, traced bool, spanRing int) (*pools, *target, error) {
	ps, err := buildPools(seed)
	if err != nil {
		return nil, nil, err
	}
	t, err := newTarget(w, traced, spanRing)
	if err != nil {
		return nil, nil, err
	}
	perSize := gridBlocksPerWorker * totalWorkers
	grid := newRecorder(ps, false, len(gridSizes)*perSize)
	if err := t.install(grid); err != nil {
		return nil, nil, t.stopAfter(err)
	}
	for _, k := range gridSizes {
		for i := 0; i < perSize; i++ {
			grid.offer(t, 0, i%numCells, k, i%poolWords[k])
		}
		if _, err := t.drain(30 * time.Second); err != nil {
			return nil, nil, t.stopAfter(fmt.Errorf("warm-up grid K=%d: %w", k, err))
		}
	}
	if grid.mismatches.Load() != 0 || grid.strays.Load() != 0 {
		return nil, nil, t.stopAfter(fmt.Errorf("warm-up grid: %d blocks decoded wrong, %d stray callbacks",
			grid.mismatches.Load(), grid.strays.Load()))
	}
	return ps, t, nil
}

// pass is everything one run of a workload observed.
type pass struct {
	w      workload
	traced bool
	// warm is the discarded start of the traffic, span the measured rest.
	warm, span time.Duration
	// One entry per set-up made: the CPU time it took, which is what
	// setup_s reports, and the wall time. When the calibration host takes
	// CPU away for minutes at a stretch, wall time reads 1.8 times as long.
	setupS, setupWallS []float64

	rec     *recorder
	target  *target
	edges   []boundary // subWindows+1 samples, first at the end of warm-up
	final   *ran.Snapshot
	peakRSS float64
}

// runPass sets the workload up (repeats times, keeping the last), drives
// warm-up plus seconds of its traffic, drains, and stops the stack.
func runPass(w workload, seed int64, seconds float64, traced bool, repeats int) (*pass, error) {
	span := time.Duration(seconds * float64(time.Second))
	warm := time.Duration(warmupShare * float64(span))
	total := warm + span

	var sched []arrival
	capacity := int(total.Seconds()*maxClosedBlocksPerSec) + 1
	if w.paced {
		sched = buildSchedule(seed, total, scheduleStratum, w.classes().Classes)
		capacity = len(sched)
	}

	p := &pass{w: w, traced: traced, warm: warm, span: span}
	var ps *pools
	for i := 0; i < repeats; i++ {
		if p.target != nil {
			if err := p.target.stop(); err != nil {
				return nil, err
			}
			p.target, ps = nil, nil
			runtime.GC()
		}
		start := time.Now()
		cpu0, _ := rusage()
		var err error
		if ps, p.target, err = setUp(w, seed, traced, capacity); err != nil {
			return nil, err
		}
		cpu1, _ := rusage()
		p.setupS = append(p.setupS, (cpu1 - cpu0).Seconds())
		p.setupWallS = append(p.setupWallS, time.Since(start).Seconds())
	}

	p.rec = newRecorder(ps, w.loSNR, capacity)
	if err := p.target.install(p.rec); err != nil {
		return nil, p.target.stopAfter(err)
	}
	edges := make([]time.Duration, subWindows+1)
	for i := range edges {
		edges[i] = warm + time.Duration(i)*span/subWindows
	}
	mon := make(chan []boundary, 1)
	go monitor(p.target, p.rec.t0, edges, mon)
	if w.paced {
		p.rec.runOpen(p.target, sched)
	} else {
		p.rec.runClosed(p.target, total, rand.New(rand.NewSource(seed*1000003+3)).Intn)
	}
	p.edges = <-mon
	var err error
	if p.final, err = p.target.drain(10 * time.Second); err != nil {
		return nil, p.target.stopAfter(err)
	}
	_, p.peakRSS = rusage()
	if err := p.target.stop(); err != nil {
		return nil, err
	}
	for _, b := range p.edges {
		if b.snap == nil {
			return nil, fmt.Errorf("%s: a ledger snapshot failed during the run", w.name)
		}
	}
	return p, nil
}
