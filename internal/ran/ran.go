// Package ran is the concurrent multi-cell serving runtime: the layer
// that turns the repo's lane-parallel SIMD decoder into something that
// serves traffic instead of answering an analytic model's question
// (pipeline.TTIConfig).
//
// Transport blocks arrive per cell with bounded admission: a full
// (cell, class) backlog pushes back instead of buffering without bound,
// and a block that cannot meet its HARQ deadline ends as expired at the
// take or late after decode. Admitted blocks wait in one ready structure
// (ready.go), grouped by class and K, that the decode workers pull their
// own batches from: an idle worker takes up to width/128 same-K blocks
// across UEs and cells — filling the lane groups of a turbo.BatchDecoder
// batch is what makes a wide register pay — but never
// waits for co-travellers, so lanes fill under load and a block arriving
// at an idle pool is decoded at once. Every worker owns its own
// simd.Engine (engines are not goroutine-safe, and per-worker state is
// what makes the pool scale without locks). An atomic metrics layer
// counts everything: per-cell goodput, drops by cause, lane occupancy,
// latency percentiles, worker utilization.
package ran

import (
	"context"
	"fmt"
	"runtime"
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
	// by (wrapped modulo HARQProcesses).
	Process int
	// K is the turbo information block size; blocks batch only with
	// equal K.
	K int
	// Class is the block's SLA traffic class, stamped at Submit from
	// the cell's configured class (sla.go). It decides take priority,
	// the deadline, and which (cell, class) queue bound admits it.
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
	// retransmission is regenerated from.
	tx *turbo.LLRWord

	// taken is when a worker took the block out of the ready structure:
	// it ends the span's queue stage and starts its batch stage. Zero
	// until then.
	taken time.Time

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
	// Admitted: the block entered the ready structure.
	Admitted Admit = iota
	// RejectedBacklog: the cell's backlog of its class was full
	// (backpressure).
	RejectedBacklog
	// RejectedStopped: the runtime is shut down.
	RejectedStopped
	// RejectedSealed: the cell is sealed for migration — it no longer
	// (or does not yet) live on this runtime.
	RejectedSealed
)

// Config parameterizes a Runtime.
type Config struct {
	// Cells is the number of served cells.
	Cells int
	// QueueDepth bounds the blocks of one (cell, class) waiting for a
	// worker.
	QueueDepth int
	// Workers sizes the decode pool; each worker owns an engine.
	Workers int
	// Width and Strategy configure the per-worker decoder build.
	Width    simd.Width
	Strategy core.Strategy
	// MaxIters is the turbo iteration budget.
	MaxIters int
	// Deadline is the per-block HARQ processing budget; blocks older
	// than this are dropped, not decoded.
	Deadline time.Duration
	// AdmissionGuard stays only while the benchmark harness still sets it.
	//
	// Deprecated: no effect. A block that cannot meet its deadline ends
	// as expired at the take or late after decode.
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
	// SLA configures per-cell traffic classes (sla.go). The zero value
	// is class-blind: every cell is eMBB.
	SLA SLAConfig
	// Chaos, when non-nil, arms fault injection at the runtime's fault
	// sites (submit corruption, queue pressure, worker stalls, forced
	// CRC failures, plan evictions). Nil injects nothing at zero
	// hot-path cost.
	Chaos *chaos.Injector
}

// DefaultConfig returns an LTE-shaped serving configuration.
func DefaultConfig(w simd.Width, s core.Strategy) Config {
	return Config{
		Cells:      3,
		QueueDepth: 64,
		Workers:    4,
		Width:      w,
		Strategy:   s,
		MaxIters:   4,
		Deadline:   3 * time.Millisecond,
		HARQ:       HARQConfig{MaxRetries: 3},
	}
}

// Runtime is the serving runtime. Construct with New, feed with Submit,
// finish with Stop.
type Runtime struct {
	cfg Config
	met *Metrics
	// rq holds every block waiting for a worker — arrivals, HARQ retries
	// and a migrating cell's diverted blocks (ready.go).
	rq *ready

	// harq holds the soft combining buffers (nil when the retry path is
	// disabled).
	harq *phy.ProcessSet

	workerWG sync.WaitGroup
	// recDone closes after Stop's migration reconciliation, so racing
	// Stop callers never snapshot before the shutdown drops are counted.
	recDone chan struct{}

	// sealed cells reject new submissions (see migrate.go).
	sealed []atomic.Bool

	// spanSink, when set, receives every terminal-outcome span of a
	// traced block (shard-side span shipping). Stored as a
	// func(telemetry.Span) in an atomic.Value so SetSpanSink can race
	// the workers safely.
	spanSink atomic.Value

	stopped atomic.Bool
}

// New validates cfg and starts the worker goroutines.
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
	// A strategy with no compiled program would fail every batch.
	if !turbo.Emits(cfg.Strategy) {
		return nil, fmt.Errorf("ran: strategy %v has no compiled program; serve %v or %v", cfg.Strategy, core.StrategyAPCM, core.StrategyExtract)
	}
	r := &Runtime{
		cfg:     cfg,
		met:     NewMetrics(cfg.Cells),
		rq:      newReady(cfg.Cells, turbo.BlocksPerRegister(cfg.Width), cfg.QueueDepth, cfg.Workers),
		sealed:  make([]atomic.Bool, cfg.Cells),
		recDone: make(chan struct{}),
	}
	if cfg.HARQ.MaxRetries > 0 {
		// One live soft buffer per block the backlog can hold; beyond that
		// the least-recently-combined buffer is evicted and its block's
		// recovery rests on later retransmissions alone.
		r.harq = phy.NewProcessSet(HARQProcesses, cfg.Cells*cfg.QueueDepth)
	}
	r.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	return r, nil
}

// Lanes returns the batch width (blocks per decode) of this build.
func (r *Runtime) Lanes() int { return turbo.BlocksPerRegister(r.cfg.Width) }

// Submit offers one block for cell/UE with soft input word on HARQ
// process 0. It stamps arrival and deadline, runs admission, and
// returns the outcome. Safe for concurrent use, Stop included: a block
// racing Stop is either admitted and then decoded or rejected with
// RejectedStopped. A Submit that wakes a worker while every worker is
// parked yields the caller's processor once (runtime.Gosched) before it
// returns, so the block may already be decoded when it does.
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
// SubmitProcess. A call that wakes a worker of an idle runtime hands that
// worker its processor, and the worker decodes the block there at once:
// the call returns when another thread picks its goroutine up or the
// worker is done, whichever comes first (DESIGN §6).
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
	// A chaos injector may hand back a corrupted private copy — the
	// noisy reception; the submitted word stays untouched as tx.
	b := &Block{
		Cell: cell, UE: ue, Process: proc, K: k, Class: class,
		Word: r.cfg.Chaos.CorruptWord(word), tx: word,
		Arrived:    now,
		Deadline:   now.Add(r.classDeadline(class)),
		hopArrived: now,
	}
	if tc.Valid() {
		b.traceID, b.traceParent, b.acc = tc.TraceID, tc.Parent, tc.Upstream
		b.origin = tc.Start
	}
	a, handOff := RejectedBacklog, false
	if !r.cfg.Chaos.QueueOverflow() {
		// RejectedStopped here means Stop closed the structure after the
		// check above: the block was never accepted.
		a, handOff = r.rq.push(b, true)
	}
	switch a {
	case Admitted:
		r.met.accept(cell, class)
	case RejectedBacklog:
		r.met.drop(cell, class, DropBacklog)
	}
	if handOff {
		// The wake put the worker in this processor's runnext slot, where
		// it would wait for this goroutine to block inside Go — and a
		// caller that sleeps in a raw syscall leaves it stranded until
		// sysmon retakes the processor. Yield it instead: the worker takes
		// and decodes here at once, and this goroutine resumes when the
		// thread the wake started picks it up, or when the worker is done.
		// Only from idle: under load, handing each woken worker its
		// processor empties the lanes (DESIGN §6).
		runtime.Gosched()
	}
	return a
}

// Stop closes the ready structure, waits for the workers to drain what
// it still holds, and returns the final metrics snapshot. Blocks already
// admitted are still decoded (or dropped against their deadline);
// anything pushed after the close — an arrival or a HARQ retry — is
// refused, a retry as a shutdown drop.
func (r *Runtime) Stop() *Snapshot {
	if !r.stopped.CompareAndSwap(false, true) {
		<-r.recDone
		return r.Snapshot()
	}
	r.rq.close()
	r.workerWG.Wait()
	// Blocks parked for a migration that never completed were diverted
	// out of the decode path and nothing will move them now. Shutdown
	// drops keep the conservation ledger exact.
	now := time.Now()
	for _, b := range r.rq.endMigration() {
		r.met.drop(b.Cell, b.Class, DropShutdown)
		r.recordSpan(b, now, 0, 0, "migrate_shutdown")
		r.harqRelease(b)
	}
	close(r.recDone)
	return r.Snapshot()
}

// Snapshot returns the current metrics view.
func (r *Runtime) Snapshot() *Snapshot {
	depths, retries := r.rq.depths()
	s := r.met.snapshot(depths, r.cfg.Workers)
	// Runtime-owned HARQ state rides on top of the counter view (the
	// metrics layer has no handle on the process set).
	s.RetryDepth = retries
	if r.harq != nil {
		s.HARQCombines, s.HARQEvictions = r.harq.Stats()
		s.HARQBuffers = r.harq.Len()
	}
	return s
}

// labelLayer tags the calling goroutine with the ledger layer it works
// for, so a CPU or goroutine profile of a live runtime splits the way
// the span stages do (pprof -tagfocus layer=decode). Set once when the
// goroutine starts; nothing is relabelled per batch. The workers are the
// runtime's only goroutines: batch forming runs on them, inside take.
func labelLayer(layer string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("layer", layer)))
}

// take hands the calling worker its next batch, appended to out: up to
// Lanes() blocks of one (class, K) group, URLLC first (ready.pick),
// parking the worker while nothing it may take waits. A worker that comes
// from its own batch yields once before a partial take; one that parked
// takes at once. A worker that a push woke from an idle runtime returns
// from park on its submitter's processor, which that Submit yields to it
// (SubmitTraced), and decodes there before the submitter resumes. A take
// of URLLC while eMBB waits is a steal. ok is false once Stop has closed
// the structure and nothing is left for this worker.
func (r *Runtime) take(out []*Block) (batch []*Block, ok bool) {
	q := r.rq
	q.mu.Lock()
	defer q.mu.Unlock()
	yield := true
	for {
		if c, k, found := q.pick(); found {
			if len(q.groups[c][k]) < q.lanes && yield {
				// A goroutine this worker readied — a submitter its
				// OnDecoded callbacks woke — is queued behind it, and with a
				// worker on every processor would not run until the backlog
				// ran dry: the take would come up short. One yield lets it
				// add its blocks first, and returns at once when nothing
				// else is ready to run. No timer: nothing waits for blocks
				// that have not arrived.
				yield = false
				q.mu.Unlock()
				runtime.Gosched()
				q.mu.Lock()
				continue
			}
			if c == ClassURLLC && q.holds(ClassEMBB) {
				r.met.steals.Add(1)
			}
			return q.pop(c, k, out), true
		}
		if q.closed {
			return out, false
		}
		q.park()
		// A parked worker readied nothing, and whoever woke it already
		// ran: a yield now would only hand the processor back to the
		// submitter that just gave it (SubmitTraced).
		yield = false
	}
}

// workerArenaBytes is the budget of each worker's emulated memory: the
// state regions of the block sizes it decodes, one each and exactly the
// size's plan (2.0 MB for the benchmark's four sizes at W512). A size whose
// region would take them past it evicts the others first
// (turbo.BatchDecoder).
const workerArenaBytes = 32 << 20

// worker takes batches, drops expired blocks, decodes the rest on its
// private engine, and records the outcome. Every worker serves both
// classes: the take's URLLC-first order bounds a URLLC block's
// head-of-line wait to one eMBB batch (DESIGN §14). The decoder's plan
// cache makes the steady state allocation-free, so the worker also keeps
// its own words slice across batches.
func (r *Runtime) worker() {
	defer r.workerWG.Done()
	labelLayer("decode")
	bd := turbo.NewBatchDecoder(r.cfg.Width, r.cfg.Strategy, workerArenaBytes)
	bd.MaxIters = r.cfg.MaxIters
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
	// worker took that batch, while later arrivals wait on the same
	// flight. That one-time cost becomes a compile-stage span and shows up
	// in /spans like any other stage outlier.
	if r.cfg.Tracer != nil {
		bd.OnCompile = func(k int, elapsed time.Duration) {
			sp := telemetry.Span{K: k, Start: time.Now().Add(-elapsed), Outcome: "compiled"}
			sp.Stages[telemetry.SpanCompile] = elapsed
			r.cfg.Tracer.Record(sp)
		}
	}
	lanes := bd.Lanes()
	words := make([]*turbo.LLRWord, 0, lanes)
	batch := make([]*Block, 0, lanes)
	for {
		taken, ok := r.take(batch[:0])
		if !ok {
			return
		}
		batch = taken
		k := batch[0].K
		now := time.Now()
		live := batch[:0]
		for _, b := range batch {
			b.taken = now
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
		words = words[:0]
		for _, b := range live {
			words = append(words, b.Word)
		}
		t0 := time.Now()
		decodeDur, decodeIters = 0, 0
		bits, _, err := bd.Decode(k, words)
		if err != nil {
			// The decoder refused the batch — a block size that is not
			// valid or has no program — and decoded nothing: every block
			// ends as a decode drop, and the batch's cost, which is no
			// decode's, feeds no decode metric.
			for _, b := range live {
				r.met.drop(b.Cell, b.Class, DropDecode)
				r.recordSpan(b, time.Now(), 0, 0, "decode")
				r.harqRelease(b)
			}
			continue
		}
		busy := decodeDur
		if busy <= 0 {
			busy = time.Since(t0)
		}
		busy += stall
		r.met.batchDone(len(live), lanes, busy)
		// Per-block convergence histogram: the decoder reports each
		// block's own early-exit latch iteration.
		r.met.observeIters(bd.BlockIters())
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

// SetSpanSink installs fn as the receiver of every terminal span of a
// traced block (delivered, late, expired, decode, or HARQ-terminated —
// not the intermediate harq_retry records, whose dwell the final span
// already folds in). The shard worker uses it to ship completed spans back to
// the coordinator's fleet collector. fn must be safe for concurrent
// use; nil-safe to never set.
func (r *Runtime) SetSpanSink(fn func(telemetry.Span)) {
	r.spanSink.Store(fn)
}

// recordSpan attributes a finished block's life to the tracing stages:
// queue wait (Submit → a worker's take), batch wait (take → decode
// start) and the decode itself, on top of whatever the block
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
	taken := b.taken
	if taken.IsZero() {
		taken = end
	}
	sp.Stages = b.acc
	sp.Stages[telemetry.SpanQueue] += clampDur(taken.Sub(start))
	sp.Stages[telemetry.SpanBatch] += clampDur(end.Sub(taken) - decode)
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
