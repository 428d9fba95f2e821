// Package ran is the concurrent multi-cell serving runtime: the layer
// that turns the repo's lane-parallel SIMD decoder into something that
// serves traffic instead of answering an analytic model's question
// (pipeline.TTIConfig).
//
// Transport blocks arrive per cell and are sharded across per-cell
// bounded ingress queues with deadline-aware admission: a block whose
// HARQ deadline is already infeasible is rejected at the door, and a
// full queue pushes back instead of buffering without bound. A single
// dispatcher drains the cells round-robin into a lane-fill batcher that
// aggregates same-K code blocks across UEs and cells — the point is to
// fill all width/128 lane groups of turbo.MultiSIMDDecoder, because an
// AVX512 register carrying one block wastes three quarters of the
// silicon the paper's APCM mechanism fought to feed. Batches go to a
// worker pool where every worker owns its own simd.Engine (engines are
// not goroutine-safe, and per-worker state is what makes the pool scale
// without locks). An atomic metrics layer counts everything: per-cell
// goodput, drops by cause, lane occupancy, latency percentiles, worker
// utilization.
package ran

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/core"
	"vransim/internal/phy"
	"vransim/internal/simd"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// Block is one code block travelling through the runtime.
type Block struct {
	// Cell and UE identify the source (Cell indexes Config.Cells).
	Cell, UE int
	// Process is the HARQ process id the block's soft buffer is keyed
	// by (wrapped modulo HARQConfig.Processes).
	Process int
	// K is the turbo information block size; blocks batch only with
	// equal K.
	K int
	// Class is the block's SLA traffic class, stamped at Submit from
	// the cell's configured class (sla.go). It decides dispatch
	// priority, shed eligibility and the degradation clamp exposure.
	Class Class
	// Word is the received soft information: the submitted word, a
	// chaos-corrupted copy of it, or — on a retry — the HARQ-combined
	// snapshot of every reception so far.
	Word *turbo.LLRWord
	// Attempt counts HARQ retransmissions: 0 for the first decode
	// attempt, up to HARQConfig.MaxRetries.
	Attempt int
	// Arrived and Deadline are stamped by Submit.
	Arrived  time.Time
	Deadline time.Time

	// tx is the originally submitted word — the reference a
	// retransmission is regenerated from (see Submitted).
	tx *turbo.LLRWord

	// dequeued and batched are span-tracing stamps: when the dispatcher
	// drained the block out of its cell queue, and when it entered the
	// lane-fill batcher. Zero when tracing never saw the block.
	dequeued time.Time
	batched  time.Time

	// Distributed-trace state (zero traceID = untraced). acc carries
	// the stage dwell accumulated before this runtime saw the block
	// (upstream fronthaul hops) plus any earlier HARQ attempts here;
	// origin is the trace start reconstructed on the LOCAL clock;
	// hopArrived is the local arrival of the CURRENT attempt — the
	// monotonic base all of this host's stage stamps measure from, so a
	// skewed origin wall clock can never make a stage negative.
	traceID     uint64
	traceParent uint64
	origin      time.Time
	acc         [telemetry.NumStages]time.Duration
	hopArrived  time.Time
}

// Admit is the outcome of Submit.
type Admit int

// Submit outcomes.
const (
	// Admitted: the block entered its cell's queue.
	Admitted Admit = iota
	// RejectedBacklog: the cell queue was full (backpressure).
	RejectedBacklog
	// RejectedDeadline: the deadline was infeasible at admission.
	RejectedDeadline
	// RejectedStopped: the runtime is shut down.
	RejectedStopped
	// RejectedSealed: the cell is sealed for migration — it no longer
	// (or does not yet) live on this runtime.
	RejectedSealed
	// RejectedShed: the class-aware overload controller shed this
	// (eMBB-class) arrival to protect the tighter class (sla.go).
	RejectedShed
)

// Config parameterizes a Runtime.
type Config struct {
	// Cells is the number of served cells (each gets its own queue).
	Cells int
	// QueueDepth bounds each cell's ingress queue.
	QueueDepth int
	// Workers sizes the decode pool; each worker owns an engine.
	Workers int
	// Width and Strategy configure the per-worker decoder build.
	Width    simd.Width
	Strategy core.Strategy
	// MaxIters is the turbo iteration budget.
	MaxIters int
	// BatchWindow is how long the batcher waits for lane co-travelers
	// before dispatching an under-filled batch.
	BatchWindow time.Duration
	// Deadline is the per-block HARQ processing budget; blocks older
	// than this are dropped, not decoded.
	Deadline time.Duration
	// AdmissionGuard enables the deadline feasibility check at Submit:
	// reject immediately when the remaining slack cannot cover the batch
	// window plus the measured decode cost, so hopeless blocks don't
	// occupy queue space. Off, they are still dropped later as expired.
	AdmissionGuard bool
	// OnDecoded, when non-nil, is called from worker goroutines with
	// every decoded block and its hard decisions (including blocks that
	// finished past deadline). It must be safe for concurrent use.
	OnDecoded func(b *Block, bits []byte)
	// Tracer, when non-nil, records one telemetry span per block that
	// reaches the decode pool (delivered, late or expired), attributing
	// queue wait, batch wait and decode time separately. Nil disables
	// tracing with zero hot-path cost.
	Tracer *telemetry.Tracer
	// CheckCRC, when non-nil, is the post-decode transport-block
	// acceptance check (the CRC attachment of a real stack): return
	// false to declare the decode failed and route the block into the
	// HARQ retransmission path. Called from worker goroutines; must be
	// safe for concurrent use. Nil means every in-deadline decode
	// passes (unless a chaos injector forces a failure).
	CheckCRC func(b *Block, bits []byte) bool
	// HARQ configures the retransmission/soft-combining path.
	HARQ HARQConfig
	// SLA configures per-cell traffic classes and the class-aware shed
	// ladder (sla.go). The zero value is class-blind: every cell is
	// eMBB and nothing sheds.
	SLA SLAConfig
	// Predict arms one MMPP burst predictor per cell (predict.go); the
	// shed ladder consults it to start shedding eMBB when a burst
	// begins instead of when the backlog crosses a threshold.
	Predict PredictConfig
	// Chaos, when non-nil, arms fault injection at the runtime's fault
	// sites (submit corruption, queue pressure, worker stalls, forced
	// CRC failures, plan evictions, compile-verify failures). Nil
	// injects nothing at zero hot-path cost.
	Chaos *chaos.Injector
}

// DefaultConfig returns an LTE-shaped serving configuration.
func DefaultConfig(w simd.Width, s core.Strategy) Config {
	return Config{
		Cells:          3,
		QueueDepth:     64,
		Workers:        4,
		Width:          w,
		Strategy:       s,
		MaxIters:       4,
		BatchWindow:    500 * time.Microsecond,
		Deadline:       3 * time.Millisecond,
		AdmissionGuard: true,
		HARQ:           HARQConfig{MaxRetries: 3, Processes: 8},
	}
}

// Runtime is the serving runtime. Construct with New, feed with Submit,
// finish with Stop.
type Runtime struct {
	cfg Config
	met *Metrics
	// queues holds one bounded ingress queue per (cell, class), indexed
	// by qi(cell, class) — the per-class split is what lets the
	// dispatcher drain every cell's URLLC backlog before any cell's
	// eMBB, and the shed ladder watch per-class pressure.
	queues []*cellQueue

	// harq holds the soft combining buffers (nil when the retry path is
	// disabled); retryq carries CRC-failed blocks back to the
	// dispatcher.
	harq   *phy.ProcessSet
	retryq *retryQueue

	notify chan struct{}
	// batchesHi carries URLLC batches, batchesLo everything else; a
	// worker always drains Hi first, so an idle worker steals another
	// cell's URLLC work before serving its own class's eMBB backlog.
	batchesHi chan batch
	batchesLo chan batch
	stop      chan struct{}
	dispDone  chan struct{}
	workerWG  sync.WaitGroup
	// recDone closes after Stop's retry reconciliation, so racing Stop
	// callers never snapshot before the shutdown drops are counted.
	recDone chan struct{}

	// Cell-migration state: sealed cells reject new submissions,
	// migrating is the one cell currently draining (-1 otherwise), and
	// migq collects its diverted in-flight blocks (see migrate.go).
	sealed    []atomic.Bool
	migrating atomic.Int64
	migq      *retryQueue

	// spanSink, when set, receives every terminal-outcome span of a
	// traced block (shard-side span shipping). Stored as a
	// func(telemetry.Span) in an atomic.Value so SetSpanSink can race
	// the workers safely.
	spanSink atomic.Value

	stopped atomic.Bool
	// degrade is the current graceful-degradation level (0 = full
	// iteration budget), recomputed by the dispatcher from queue
	// pressure and read by every worker per batch.
	degrade atomic.Int32
	// estDecodeNs is an EWMA of per-block decode cost, feeding the
	// admission guard (updateEstimate, guardAdmits).
	estDecodeNs atomic.Int64

	// SLA-class overload state (sla.go / predict.go): slaActive latches
	// whether any cell carries the URLLC class; shed is the current
	// shed-ladder level, raised by the dispatcher and read at every
	// Submit; shedCalm is the dispatcher-private de-escalation streak;
	// preds holds one burst predictor per cell when Predict is armed.
	// degradeU is the URLLC-only iteration-clamp level, computed from
	// the URLLC queues alone so an eMBB burst's backlog can never cost
	// URLLC decode iterations (harq.go updateDegrade).
	degradeU  atomic.Int32
	slaActive bool
	shed      atomic.Int32
	shedCalm  int
	preds     []*Predictor
	// reserved is how many workers serve only the URLLC batch channel
	// (resolveReserve over SLA.ReserveWorkers; 0 when class-blind).
	reserved int
}

// New validates cfg and starts the dispatcher and worker goroutines.
func New(cfg Config) (*Runtime, error) {
	if cfg.Cells <= 0 || cfg.Workers <= 0 || cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("ran: config needs cells, workers and queue depth")
	}
	if cfg.Deadline <= 0 {
		return nil, fmt.Errorf("ran: config needs a positive deadline")
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 4
	}
	if turbo.BlocksPerRegister(cfg.Width) < 1 {
		return nil, fmt.Errorf("ran: width %v too narrow for lane-parallel decode", cfg.Width)
	}
	if cfg.HARQ.MaxRetries > 0 && cfg.HARQ.Processes <= 0 {
		cfg.HARQ.Processes = 8
	}
	// Only the first Cells entries class a cell (ClassOf); an entry past
	// them must not arm the class machinery for traffic that cannot arrive.
	if len(cfg.SLA.Classes) > cfg.Cells {
		cfg.SLA.Classes = cfg.SLA.Classes[:cfg.Cells]
	}
	r := &Runtime{
		cfg:       cfg,
		met:       NewMetrics(cfg.Cells),
		queues:    make([]*cellQueue, cfg.Cells*int(NumClasses)),
		retryq:    &retryQueue{},
		migq:      &retryQueue{},
		sealed:    make([]atomic.Bool, cfg.Cells),
		notify:    make(chan struct{}, 1),
		batchesHi: make(chan batch, 2*cfg.Workers),
		batchesLo: make(chan batch, 2*cfg.Workers),
		stop:      make(chan struct{}),
		dispDone:  make(chan struct{}),
		recDone:   make(chan struct{}),
		slaActive: cfg.SLA.hasURLLC(),
	}
	r.migrating.Store(-1)
	if cfg.HARQ.MaxRetries > 0 {
		// One live soft buffer per block the queues can hold; beyond that
		// the least-recently-combined buffer is evicted and its block's
		// recovery rests on later retransmissions alone.
		r.harq = phy.NewProcessSet(cfg.HARQ.Processes, cfg.Cells*cfg.QueueDepth)
	}
	for i := range r.queues {
		r.queues[i] = newCellQueue(cfg.QueueDepth)
	}
	if cfg.Predict.Enabled {
		r.preds = make([]*Predictor, cfg.Cells)
		for i := range r.preds {
			r.preds[i] = NewPredictor(cfg.Predict)
		}
	}
	go r.dispatch()
	r.reserved = resolveReserve(r.slaActive, cfg.SLA.ReserveWorkers, cfg.Workers)
	r.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker(i < r.reserved)
	}
	return r, nil
}

// Lanes returns the batch width (blocks per decode) of this build.
func (r *Runtime) Lanes() int { return turbo.BlocksPerRegister(r.cfg.Width) }

// Submit offers one block for cell/UE with soft input word on HARQ
// process 0. It stamps arrival and deadline, runs admission, and
// returns the outcome. Safe for concurrent use; callers must stop
// submitting before Stop.
func (r *Runtime) Submit(cell, ue, k int, word *turbo.LLRWord) Admit {
	return r.SubmitProcess(cell, ue, 0, k, word)
}

// SubmitProcess is Submit with an explicit HARQ process id: blocks on
// the same (cell, ue, proc) share one soft combining buffer across
// retransmissions, so callers multiplexing several in-flight transport
// blocks per UE must cycle the process id (as LTE's 8-process
// stop-and-wait does).
func (r *Runtime) SubmitProcess(cell, ue, proc, k int, word *turbo.LLRWord) Admit {
	return r.SubmitTraced(cell, ue, proc, k, word, telemetry.SpanContext{})
}

// SubmitTraced is SubmitProcess for a block that crossed the fronthaul
// with a live trace: tc carries the trace identity and the stage dwell
// already paid upstream, which the block's final span folds in so its
// stages sum to the true end-to-end latency. A zero tc is exactly
// SubmitProcess.
func (r *Runtime) SubmitTraced(cell, ue, proc, k int, word *turbo.LLRWord, tc telemetry.SpanContext) Admit {
	if r.stopped.Load() {
		return RejectedStopped
	}
	if cell < 0 || cell >= r.cfg.Cells {
		return RejectedStopped
	}
	if r.sealed[cell].Load() {
		return RejectedSealed
	}
	now := time.Now()
	class := r.cfg.SLA.ClassOf(cell)
	// The predictor observes every arrival — including ones about to be
	// shed or bounced — because it estimates the offered process, not
	// the admitted one.
	if r.preds != nil {
		r.preds[cell].Observe(now, 1)
	}
	if r.shouldShed(cell, class) {
		r.met.drop(cell, class, DropShed)
		return RejectedShed
	}
	deadline := r.classDeadline(class)
	// A chaos injector may hand back a corrupted private copy — the
	// noisy reception; the submitted word stays untouched as tx.
	b := &Block{
		Cell: cell, UE: ue, Process: proc, K: k, Class: class,
		Word: r.cfg.Chaos.CorruptWord(word), tx: word,
		Arrived:    now,
		Deadline:   now.Add(deadline),
		hopArrived: now,
	}
	if tc.Valid() {
		b.traceID, b.traceParent, b.acc = tc.TraceID, tc.Parent, tc.Upstream
		b.origin = tc.Start
	}
	if !r.guardAdmits(deadline) {
		r.met.drop(cell, class, DropAdmission)
		return RejectedDeadline
	}
	if r.cfg.Chaos.QueueOverflow() || !r.queues[r.qi(cell, class)].offer(b) {
		r.met.drop(cell, class, DropBacklog)
		return RejectedBacklog
	}
	r.met.accept(cell, class)
	r.kick()
	return Admitted
}

// kick nudges the dispatcher without blocking (the notify channel is a
// one-slot edge trigger).
func (r *Runtime) kick() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// Stop flushes pending work, waits for the workers to drain, and
// returns the final metrics snapshot. Blocks already admitted are still
// decoded (or dropped against their deadline); Submit calls racing Stop
// may be rejected.
func (r *Runtime) Stop() *Snapshot {
	if !r.stopped.CompareAndSwap(false, true) {
		<-r.recDone
		return r.Snapshot()
	}
	close(r.stop)
	<-r.dispDone
	r.workerWG.Wait()
	// Workers may have requeued HARQ retries after the dispatcher's
	// final sweep; nothing will decode them now. Count every one as a
	// shutdown drop so block accounting stays conserved — a requeued
	// block is never silently lost.
	now := time.Now()
	for _, b := range r.retryq.closeAndDrain() {
		r.met.drop(b.Cell, b.Class, DropShutdown)
		r.recordSpan(b, now, 0, 0, "harq_shutdown")
		r.harqRelease(b)
	}
	// Likewise blocks parked for a migration that never completed: they
	// were diverted out of the decode path and nothing will move them
	// now. Shutdown drops keep the conservation ledger exact.
	for _, b := range r.migq.closeAndDrain() {
		r.met.drop(b.Cell, b.Class, DropShutdown)
		r.recordSpan(b, now, 0, 0, "migrate_shutdown")
		r.harqRelease(b)
	}
	close(r.recDone)
	return r.Snapshot()
}

// Snapshot returns the current metrics view.
func (r *Runtime) Snapshot() *Snapshot {
	depths := make([]int, r.cfg.Cells)
	var classDepths [NumClasses]int
	for cell := 0; cell < r.cfg.Cells; cell++ {
		for c := Class(0); c < NumClasses; c++ {
			d := r.queues[r.qi(cell, c)].depth()
			depths[cell] += d
			classDepths[c] += d
		}
	}
	s := r.met.snapshot(depths, classDepths, r.cfg.Workers)
	// Runtime-owned HARQ/degradation/SLA state rides on top of the
	// counter view (the metrics layer has no handle on the process set
	// or the predictors).
	s.RetryDepth = r.retryq.depth()
	s.DegradeLevel = int(r.degrade.Load())
	s.ShedLevel = int(r.shed.Load())
	s.ReservedWorkers = r.reserved
	if r.harq != nil {
		s.HARQCombines, s.HARQEvictions = r.harq.Stats()
		s.HARQBuffers = r.harq.Len()
	}
	if r.preds != nil {
		s.Predict = make([]PredictSnapshot, len(r.preds))
		for i, p := range r.preds {
			s.Predict[i] = p.snapshot(i)
		}
	}
	return s
}

// labelLayer tags the calling goroutine with the ledger layer it works
// for, so a CPU or goroutine profile of a live runtime splits the way
// the span stages do (pprof -tagfocus layer=decode). Set once when the
// goroutine starts; nothing is relabelled per batch.
func labelLayer(layer string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("layer", layer)))
}

// dispatch is the single goroutine that moves blocks from the cell
// queues into the per-class lane-fill batchers and full/due batches to
// the priority worker channels. Single ownership of the batchers is
// what keeps the lane accounting lock-free.
func (r *Runtime) dispatch() {
	defer close(r.dispDone)
	labelLayer("dispatch")
	// One batcher per class: the URLLC batcher runs a tighter flush
	// window (a tight-deadline block should not wait long for lane
	// co-travelers), and keeping the classes apart is what lets the
	// workers drain URLLC batches first.
	var lbs [NumClasses]*laneBatcher
	lbs[ClassEMBB] = newLaneBatcher(r.Lanes(), r.cfg.BatchWindow)
	lbs[ClassURLLC] = newLaneBatcher(r.Lanes(), urllcWindow(r.cfg.BatchWindow))
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerArmed := false
	nextDue := func() (time.Time, bool) {
		var due time.Time
		found := false
		for _, lb := range lbs {
			if d, ok := lb.nextDue(); ok && (!found || d.Before(due)) {
				due, found = d, true
			}
		}
		return due, found
	}
	flush := func(force bool) {
		now := time.Now()
		for c := NumClasses; c > 0; c-- {
			class := c - 1 // URLLC flushes first
			for _, bt := range lbs[class].flushDue(now, force) {
				bt.class = class
				r.forward(bt)
			}
		}
	}
	for {
		// Arm the flush timer for the oldest pending group.
		if timerArmed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timerArmed = false
		}
		var timerC <-chan time.Time
		if due, ok := nextDue(); ok {
			d := time.Until(due)
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
			timerArmed = true
			timerC = timer.C
		}
		select {
		case <-r.stop:
			// Final sweep: queued blocks still get their chance.
			r.sweep(&lbs)
			flush(true)
			close(r.batchesHi)
			close(r.batchesLo)
			return
		case <-r.notify:
		case <-timerC:
			timerArmed = false
		}
		r.sweep(&lbs)
		flush(false)
	}
}

// forward hands one batch to the worker pool on its class's priority
// channel.
func (r *Runtime) forward(bt batch) {
	if bt.class == ClassURLLC {
		r.batchesHi <- bt
	} else {
		r.batchesLo <- bt
	}
}

// sweep drains the retry queue and every cell queue into the class
// batchers, forwarding batches as they fill — URLLC queues across ALL
// cells first, then eMBB, so one cell's burst can never starve another
// cell's tight-deadline traffic of dispatch order. It first recomputes
// the degradation and shed levels from the backlog it is about to
// drain — pressure the workers and the admission gate respond to one
// batch later.
func (r *Runtime) sweep(lbs *[NumClasses]*laneBatcher) {
	r.updateDegrade()
	r.updateShed()
	// A draining cell's blocks are diverted into the migration queue
	// instead of the batcher — they will decode on the target shard.
	mig := r.migrating.Load()
	route := func(b *Block) {
		if mig >= 0 && int64(b.Cell) == mig {
			if !r.migq.offer(b) {
				r.met.drop(b.Cell, b.Class, DropShutdown)
				r.recordSpan(b, time.Now(), 0, 0, "migrate_shutdown")
				r.harqRelease(b)
			}
			return
		}
		if bt, full := lbs[b.Class].add(b, time.Now()); full {
			bt.class = b.Class
			r.forward(bt)
		}
	}
	for _, b := range r.retryq.drain() {
		route(b)
	}
	for c := NumClasses; c > 0; c-- {
		class := c - 1
		for cell := 0; cell < r.cfg.Cells; cell++ {
			for _, b := range r.queues[r.qi(cell, class)].drain() {
				route(b)
			}
		}
	}
}

// workerArenaBytes is the budget of each worker's emulated memory arena,
// which holds the state regions of the block sizes it decodes: the arena
// grows towards it, and a size that no longer fits then evicts the others
// (turbo.BatchDecoder).
const workerArenaBytes = 32 << 20

// worker pulls batches, drops expired blocks, decodes the rest on its
// private engine, and records the outcome. A reserved worker consumes
// only the URLLC priority channel, so the tight-deadline class always
// has decode capacity no eMBB batch can occupy — without it, stealing
// only helps at batch boundaries and a fleet of workers mid-way
// through full-lane eMBB batches blocks URLLC for a whole service
// time. The decoder's plan cache makes the steady state
// allocation-free, so the worker also keeps its own words slice across
// batches; every ~64th decode is wrapped in a heap-allocation sample
// feeding the vran_decode_allocs_per_op gauge.
func (r *Runtime) worker(reserved bool) {
	defer r.workerWG.Done()
	labelLayer("decode")
	bd := turbo.NewBatchDecoder(r.cfg.Width, r.cfg.Strategy, workerArenaBytes)
	bd.MaxIters = r.cfg.MaxIters
	if r.cfg.Chaos != nil {
		// Chaos compile-verify failures: a program vetoed at install keeps
		// this worker's state for that size on the interpreter, exactly
		// like a real verify failure, until an eviction installs again. The
		// shared program is untouched; the other workers keep replaying it.
		bd.CompileGate = func(int) bool { return !r.cfg.Chaos.FailCompile() }
	}
	// The decoder's own timing hook is the decode-stage attribution
	// source: it measures exactly the lane-parallel decode (and reports
	// the iteration count), excluding the worker's bookkeeping around it
	// and the state a first decode of a size builds before it.
	var decodeDur time.Duration
	var decodeIters int
	bd.OnDecode = func(k, blocks, iters int, d time.Duration) {
		decodeDur, decodeIters = d, iters
	}
	// A block size no decoder of the process has seen (nothing named it at
	// start-up) compiles on the first batch that carries it, on whichever
	// worker pulled that batch, while later arrivals wait on the same
	// flight. That one-time cost becomes a compile-stage span and shows up
	// in /spans like any other stage outlier.
	if r.cfg.Tracer != nil {
		bd.OnCompile = func(k int, elapsed time.Duration) {
			sp := telemetry.Span{K: k, Start: time.Now().Add(-elapsed), Outcome: "compiled"}
			sp.Stages[telemetry.SpanCompile] = elapsed
			r.cfg.Tracer.Record(sp)
		}
	}
	// Hit, miss and installed-program counters are per-decoder; fold them
	// into the runtime metrics as deltas, after each batch that moved one.
	// (Compiles are the process's, not a worker's: Snapshot reads them from
	// turbo.PlanCacheStats.)
	var lastPS turbo.ProgramStats
	reportProgram := func(k int) {
		ps := bd.ProgramStats()
		if ps == lastPS {
			return
		}
		r.met.programDelta(k, ps.Hits-lastPS.Hits, ps.Misses-lastPS.Misses, ps.CompiledPlans-lastPS.CompiledPlans)
		lastPS = ps
	}
	lanes := bd.Lanes()
	words := make([]*turbo.LLRWord, 0, lanes)
	var sampler allocSampler
	var batchNo uint64
	hi, lo := r.batchesHi, r.batchesLo
	if reserved {
		// nextBatch treats a nil lo as already-drained: the worker
		// blocks on hi alone and exits when it closes.
		lo = nil
	}
	for {
		bt, ok := nextBatch(&hi, &lo, &r.met.steals)
		if !ok {
			return
		}
		now := time.Now()
		live := bt.blocks[:0]
		for _, b := range bt.blocks {
			if now.After(b.Deadline) {
				r.met.drop(b.Cell, b.Class, DropExpired)
				r.recordSpan(b, now, 0, 0, "expired")
				r.harqRelease(b)
				continue
			}
			live = append(live, b)
		}
		if len(live) == 0 {
			continue
		}
		// Chaos worker faults: a latency-spike stall, and plan-cache
		// eviction storms (the decoder rebuilds evicted plans on the
		// next decode; results are unaffected, only cost). The stall
		// stands for the host freezing the worker mid-decode, so it is
		// charged to this batch's decode time like one.
		stall := r.cfg.Chaos.StallDuration()
		if stall > 0 {
			time.Sleep(stall)
		}
		if r.cfg.Chaos.EvictPlans() {
			bd.EvictAll()
		}
		// Graceful degradation: under backlog pressure the dispatcher
		// raises the level and every worker clamps its iteration budget
		// (never below one iteration) until the backlog clears. With SLA
		// classes active, eMBB batches absorb the clamp first — URLLC
		// reads its class-private level (its own queues' backlog, so an
		// eMBB burst cannot cost it iterations) and even that clamps
		// only at the last level (sla.go).
		lvl := int(r.degrade.Load())
		if r.slaActive && bt.class == ClassURLLC {
			lvl = int(r.degradeU.Load())
		}
		if lvl > 0 && r.clampClass(bt.class, lvl) {
			over := r.cfg.MaxIters - lvl
			if over < 1 {
				over = 1
			}
			bd.ItersOverride = over
			r.met.degradedBatch()
		} else {
			bd.ItersOverride = 0
		}
		words = words[:0]
		for _, b := range live {
			words = append(words, b.Word)
		}
		// Skip batch 0: the gauge is about the steady state, and the
		// first decode of a K pays the one-time plan build.
		sampling := batchNo > 0 && batchNo%allocSampleEvery == 0
		batchNo++
		if sampling {
			sampler.begin()
		}
		t0 := time.Now()
		decodeDur, decodeIters = 0, 0
		bits, _, err := bd.Decode(bt.k, words)
		if sampling {
			r.met.allocSample(sampler.end())
		}
		busy := decodeDur
		if busy <= 0 {
			busy = time.Since(t0)
		}
		busy += stall
		reportProgram(bt.k)
		r.met.batchDone(len(live), lanes, busy)
		if err == nil {
			// Per-block convergence histogram: the decoder reports each
			// block's own early-exit latch iteration.
			r.met.observeIters(bd.BlockIters())
		}
		r.updateEstimate(busy, len(live))
		if err != nil {
			// A decode error (bad K reaching the pool) wastes the whole
			// batch; account it as expired-equivalent drops.
			for _, b := range live {
				r.met.drop(b.Cell, b.Class, DropExpired)
				r.recordSpan(b, time.Now(), 0, 0, "expired")
				r.harqRelease(b)
			}
			continue
		}
		end := time.Now()
		for i, b := range live {
			if end.After(b.Deadline) {
				r.met.drop(b.Cell, b.Class, DropLate)
				r.recordSpan(b, end, busy, decodeIters, "late")
				r.harqRelease(b)
			} else if !r.checkBlock(b, bits[i]) {
				// CRC failure: the HARQ path either re-enqueues a
				// soft-combined retransmission or terminates the block
				// with a drop. Failed decisions never reach OnDecoded.
				r.met.crcFail()
				r.retryOrDrop(b, end, busy, decodeIters)
				continue
			} else {
				if b.Attempt > 0 {
					r.met.harqRecover()
				}
				r.met.deliver(b.Cell, b.Class, b.K, end.Sub(b.Arrived))
				r.recordSpan(b, end, busy, decodeIters, "delivered")
				r.harqRelease(b)
			}
			if r.cfg.OnDecoded != nil {
				r.cfg.OnDecoded(b, bits[i])
			}
		}
	}
}

// nextBatch pulls the worker's next unit of work, URLLC batches
// strictly first: the non-blocking probe of the high-priority channel
// means a worker about to serve eMBB "steals" any cell's pending URLLC
// batch instead — cross-cell work stealing through the shared priority
// pool. Taking URLLC work while eMBB batches wait is counted as a
// steal. A closed channel is parked (set nil in the caller's slot) so
// the worker drains the survivor and exits when both are gone.
func nextBatch(hi, lo *chan batch, steals *atomic.Uint64) (batch, bool) {
	for {
		if *hi != nil {
			select {
			case bt, ok := <-*hi:
				if ok {
					if len(*lo) > 0 {
						steals.Add(1)
					}
					return bt, true
				}
				*hi = nil
			default:
			}
		}
		if *hi == nil && *lo == nil {
			return batch{}, false
		}
		if *hi == nil {
			bt, ok := <-*lo
			if !ok {
				*lo = nil
				continue
			}
			return bt, true
		}
		if *lo == nil {
			bt, ok := <-*hi
			if !ok {
				*hi = nil
				continue
			}
			return bt, true
		}
		select {
		case bt, ok := <-*hi:
			if !ok {
				*hi = nil
				continue
			}
			if len(*lo) > 0 {
				steals.Add(1)
			}
			return bt, true
		case bt, ok := <-*lo:
			if !ok {
				*lo = nil
				continue
			}
			return bt, true
		}
	}
}

// SetSpanSink installs fn as the receiver of every terminal span of a
// traced block (delivered, late, expired, or HARQ-terminated — not the
// intermediate harq_retry records, whose dwell the final span already
// folds in). The shard worker uses it to ship completed spans back to
// the coordinator's fleet collector. fn must be safe for concurrent
// use; nil-safe to never set.
func (r *Runtime) SetSpanSink(fn func(telemetry.Span)) {
	r.spanSink.Store(fn)
}

// recordSpan attributes a finished block's life to the tracing stages:
// queue wait (Submit → dispatcher drain), batch wait (batcher entry →
// decode start) and the decode itself, on top of whatever the block
// already accumulated upstream (fronthaul hops, earlier HARQ attempts).
// The whole batch decode cost is attributed to each of its blocks —
// they occupied lanes of the same register, so each one's wall-clock
// decode time really is the batch's.
//
// Every local stage measures from hopArrived — the current attempt's
// LOCAL arrival stamp — never from a propagated wall-clock time, so a
// skewed origin clock cannot make a cross-host stage negative.
func (r *Runtime) recordSpan(b *Block, end time.Time, decode time.Duration, iters int, outcome string) {
	tr := r.cfg.Tracer
	sink, _ := r.spanSink.Load().(func(telemetry.Span))
	shipping := sink != nil && b.traceID != 0 && outcome != "harq_retry"
	if tr == nil && !shipping {
		return
	}
	sp := telemetry.Span{
		Cell: b.Cell, UE: b.UE, K: b.K,
		TraceID: b.traceID, Parent: b.traceParent,
		Start: b.Arrived, Iters: iters, Outcome: outcome,
	}
	if b.traceID != 0 && !b.origin.IsZero() {
		sp.Start = b.origin
	}
	start := b.hopArrived
	if start.IsZero() {
		start = b.Arrived
	}
	dq := b.dequeued
	if dq.IsZero() {
		dq = end
	}
	bt := b.batched
	if bt.IsZero() {
		bt = dq
	}
	sp.Stages = b.acc
	sp.Stages[telemetry.SpanQueue] += clampDur(dq.Sub(start))
	sp.Stages[telemetry.SpanBatch] += clampDur(end.Sub(bt) - decode)
	sp.Stages[telemetry.SpanDecode] += decode
	tr.Record(sp)
	if shipping {
		sink(sp)
	}
}

func clampDur(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// estSampleCap bounds one sample of the decode estimate to this many
// times the estimate it is folded into: a host stall of 100-400 ms (the
// shared hosts this runs on see several a minute) or a cold plan moves
// the estimate by at most (estSampleCap-1)/8 of itself, where unclamped
// it would close the admission guard on a cost no later block pays.
const estSampleCap = 4

// updateEstimate folds a measured batch cost into the per-block EWMA
// the admission guard consults.
func (r *Runtime) updateEstimate(busy time.Duration, blocks int) {
	per := busy.Nanoseconds() / int64(blocks)
	old := r.estDecodeNs.Load()
	if old == 0 {
		r.estDecodeNs.Store(per)
		return
	}
	per = min(per, estSampleCap*old)
	// 1/8 EWMA; a stale CAS just means another worker's sample won.
	r.estDecodeNs.CompareAndSwap(old, old+(per-old)/8)
}

// guardAdmits is the admission guard's feasibility check, shared by
// Submit and the HARQ requeue: a block must survive the batch window plus
// one decode at the workers' measured cost (before the first measurement
// everything is feasible). A refusal also folds a zero sample into the
// estimate. The guard has no other source of samples while it is shut —
// nothing it refuses is decoded — so without the decay one bad estimate
// (the first sample is taken whole) would hold it shut for good; with it
// the guard re-opens after a few dozen refusals, admits a block and
// measures again. Under a deadline that really is infeasible it therefore
// admits a probing fraction instead of nothing.
func (r *Runtime) guardAdmits(deadline time.Duration) bool {
	if !r.cfg.AdmissionGuard {
		return true
	}
	est := r.estDecodeNs.Load()
	if deadline >= r.cfg.BatchWindow+time.Duration(est) {
		return true
	}
	r.estDecodeNs.CompareAndSwap(est, est-est/8)
	return false
}
