package ran

import (
	"math/rand"
	"sync/atomic"
	"time"

	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// processID tells this process's snapshots from another's.
var processID = rand.Uint64()

// DropCause enumerates why a block failed to be delivered.
type DropCause int

// Drop causes, in pipeline order: backlog (ingress queue full),
// admission (deadline infeasible on arrival), expired (deadline passed
// while queued or batching), late (decoded, but after the deadline),
// harq (CRC failed and the retry budget was exhausted, or a combine
// was rejected), shutdown (a requeued HARQ retry could not be decoded
// because the runtime was stopping), shed (the class-aware overload
// controller rejected an eMBB arrival at the door to protect URLLC —
// a pre-admission drop, like backlog and admission).
const (
	DropBacklog DropCause = iota
	DropAdmission
	DropExpired
	DropLate
	DropHARQ
	DropShutdown
	DropShed
	numDropCauses
)

// String names the cause.
func (c DropCause) String() string {
	switch c {
	case DropBacklog:
		return "backlog"
	case DropAdmission:
		return "admission"
	case DropExpired:
		return "expired"
	case DropLate:
		return "late"
	case DropHARQ:
		return "harq"
	case DropShutdown:
		return "shutdown"
	case DropShed:
		return "shed"
	}
	return "unknown"
}

// cellCounters is the per-cell slice of the metrics, all atomics so the
// hot path never takes a lock.
type cellCounters struct {
	accepted  atomic.Uint64
	delivered atomic.Uint64
	drops     [numDropCauses]atomic.Uint64
	bits      atomic.Uint64 // delivered information bits
}

// classCounters is the per-SLA-class view: the same ledger as a cell's,
// plus the class's own delivered-latency histogram so URLLC p99 is
// never diluted by eMBB deliveries.
type classCounters struct {
	accepted  atomic.Uint64
	delivered atomic.Uint64
	drops     [numDropCauses]atomic.Uint64
	latency   telemetry.Hist
}

// Metrics is the runtime's atomic-counter metrics layer. All methods
// are safe for concurrent use from any number of goroutines.
type Metrics struct {
	start   time.Time
	cells   []cellCounters
	classes [NumClasses]classCounters

	// steals counts worker pulls of a URLLC batch while eMBB batches
	// were waiting — the work-stealing priority bypass in action.
	steals atomic.Uint64

	laneSlotsUsed  atomic.Uint64 // lane groups carrying a real block
	laneSlotsTotal atomic.Uint64 // lane groups available across batches
	batches        atomic.Uint64

	// decodeIters is the per-block iterations-to-converge histogram:
	// fixed buckets 1..7 plus an 8+ overflow. Per-block early-exit
	// masking makes this per block, not per batch — a batch whose blocks
	// froze at different iterations contributes to several buckets.
	decodeIters [numIterBuckets]atomic.Uint64

	decodedBlocks atomic.Uint64
	decodeBusyNs  atomic.Int64

	// Sampled heap-allocation accounting for the steady-state gauge:
	// every allocSampleEvery-th worker decode contributes one sample of
	// (decodes observed, heap objects allocated across them).
	allocSampleOps  atomic.Uint64
	allocSampleObjs atomic.Uint64

	// Program counters, aggregated across workers by per-batch deltas
	// (each worker's BatchDecoder keeps its own ProgramStats). progMissK is
	// the block size of the most recent interpreted batch: what /healthz
	// names when misses move on a runtime with no chaos configured.
	progHits      atomic.Uint64
	progMisses    atomic.Uint64
	progMissK     atomic.Int64
	compiledPlans atomic.Int64 // signed: eviction shrinks it

	// HARQ/degradation counters: CRC-failed decodes, retransmissions
	// requeued, blocks recovered by a combined retry, and batches
	// decoded under a clamped iteration budget.
	crcFailures     atomic.Uint64
	harqRetries     atomic.Uint64
	harqRecovered   atomic.Uint64
	degradedBatches atomic.Uint64

	// latency is the delivered-block end-to-end latency histogram
	// (telemetry.Hist: lock-free log-bucketed, ≤12.5 % relative error on
	// reconstructed percentiles).
	latency telemetry.Hist
}

// NewMetrics builds a metrics layer for nCells cells.
func NewMetrics(nCells int) *Metrics {
	return &Metrics{start: time.Now(), cells: make([]cellCounters, nCells)}
}

func (m *Metrics) accept(cell int, class Class) {
	m.cells[cell].accepted.Add(1)
	m.classes[class].accepted.Add(1)
}

func (m *Metrics) drop(cell int, class Class, cause DropCause) {
	m.cells[cell].drops[cause].Add(1)
	m.classes[class].drops[cause].Add(1)
}

// unaccept removes one block from a cell's accepted count — the export
// side of a migration. The block is re-accepted on the target runtime,
// so the fleet-wide ledger counts it exactly once.
func (m *Metrics) unaccept(cell int, class Class) {
	m.cells[cell].accepted.Add(^uint64(0))
	m.classes[class].accepted.Add(^uint64(0))
}

// inflight estimates a cell's non-terminal block count (accepted minus
// delivered and drops). Terminal counters are read before accepted, so
// with a sealed cell (accepted frozen) the estimate never undercounts —
// the drain loop's convergence rests on that.
func (m *Metrics) inflight(cell int) uint64 {
	c := &m.cells[cell]
	term := c.delivered.Load()
	for d := DropCause(0); d < numDropCauses; d++ {
		term += c.drops[d].Load()
	}
	acc := c.accepted.Load()
	if acc <= term {
		return 0
	}
	return acc - term
}

func (m *Metrics) deliver(cell int, class Class, bits int, latency time.Duration) {
	c := &m.cells[cell]
	c.delivered.Add(1)
	c.bits.Add(uint64(bits))
	m.latency.Observe(latency)
	cc := &m.classes[class]
	cc.delivered.Add(1)
	cc.latency.Observe(latency)
}

func (m *Metrics) crcFail()       { m.crcFailures.Add(1) }
func (m *Metrics) harqRetry()     { m.harqRetries.Add(1) }
func (m *Metrics) harqRecover()   { m.harqRecovered.Add(1) }
func (m *Metrics) degradedBatch() { m.degradedBatches.Add(1) }

func (m *Metrics) allocSample(objs uint64) {
	m.allocSampleOps.Add(1)
	m.allocSampleObjs.Add(objs)
}

// programDelta folds one worker's program counter movement since its last
// report, over a batch of block size k, into the runtime-wide totals.
func (m *Metrics) programDelta(k int, hits, misses uint64, plans int) {
	m.progHits.Add(hits)
	if misses > 0 {
		m.progMisses.Add(misses)
		m.progMissK.Store(int64(k))
	}
	m.compiledPlans.Add(int64(plans))
}

func (m *Metrics) batchDone(used, lanes int, busy time.Duration) {
	m.batches.Add(1)
	m.laneSlotsUsed.Add(uint64(used))
	m.laneSlotsTotal.Add(uint64(lanes))
	m.decodedBlocks.Add(uint64(used))
	m.decodeBusyNs.Add(busy.Nanoseconds())
}

// numIterBuckets sizes the iterations histogram: buckets 1..7 and 8+.
const numIterBuckets = 8

// observeIters folds one batch's per-block iterations-to-converge into
// the histogram.
func (m *Metrics) observeIters(itersB []int) {
	for _, it := range itersB {
		b := it - 1
		if b < 0 {
			b = 0
		}
		if b >= numIterBuckets {
			b = numIterBuckets - 1
		}
		m.decodeIters[b].Add(1)
	}
}

// CellSnapshot is one cell's view in a Snapshot.
type CellSnapshot struct {
	Accepted   uint64
	Delivered  uint64
	Drops      [numDropCauses]uint64
	QueueDepth int
	Mbps       float64
}

// Dropped totals the cell's drops across causes.
func (c CellSnapshot) Dropped() uint64 {
	var n uint64
	for _, d := range c.Drops {
		n += d
	}
	return n
}

// ClassSnapshot is one SLA class's view in a Snapshot: the class
// ledger, its aggregate queue backlog, and its own latency percentiles
// (plus the raw histogram buckets, so shard.Aggregate can reconstruct
// correct fleet-wide per-class percentiles).
type ClassSnapshot struct {
	Accepted   uint64
	Delivered  uint64
	Drops      [numDropCauses]uint64
	QueueDepth int

	LatencyP50 time.Duration
	LatencyP90 time.Duration
	LatencyP99 time.Duration

	LatencyBuckets []uint64
}

// Dropped totals the class's drops across causes.
func (c ClassSnapshot) Dropped() uint64 {
	var n uint64
	for _, d := range c.Drops {
		n += d
	}
	return n
}

// Snapshot is a consistent-enough point-in-time view of the metrics
// (individual counters are read atomically; cross-counter skew is at
// most one in-flight block).
type Snapshot struct {
	Elapsed time.Duration
	Cells   []CellSnapshot

	Accepted  uint64
	Delivered uint64
	Drops     [numDropCauses]uint64

	Batches       uint64
	DecodedBlocks uint64
	// LaneOccupancy is the fraction of register lane groups that carried
	// a real block (1.0 = every decode used the full width).
	LaneOccupancy float64
	// DecodeIters is the per-block iterations-to-converge histogram
	// (buckets 1..7 and 8+): per-block early-exit masking records each
	// block's own latch iteration, not the batch total.
	DecodeIters [numIterBuckets]uint64
	// AvgDecodeUs is the mean per-block decode cost in microseconds.
	AvgDecodeUs float64
	// DecodeAllocsPerOp is the sampled mean of heap objects allocated per
	// batch decode (process-wide counter bracketing ~1/64 of decodes, so
	// an approximate upper bound). Near zero on a warmed-up worker; -1
	// when no sample has been taken yet.
	DecodeAllocsPerOp float64
	// WorkerUtilization is decode busy time over workers*elapsed.
	WorkerUtilization float64
	// GoodputMbps is delivered information bits over elapsed time.
	GoodputMbps float64

	// Program view (the trace-replay compiler in internal/simd/program):
	// decodes served by compiled replay vs the interpreter, and how many
	// decode states across workers are currently driven by a program. A
	// miss is a live batch decoded 25 times slower than it should be: a
	// block size whose program failed to compile, or whose install the
	// chaos compile-verify site vetoed on that worker. No decode of a
	// healthy runtime is one (programs are recorded from a synthetic word,
	// not from a live batch), and /healthz says so. ProgramMissK is the
	// block size of the latest.
	ProgramHits   uint64
	ProgramMisses uint64
	ProgramMissK  int
	CompiledPlans int
	// ProgramCompiles and CompileSeconds are the process's, read from
	// turbo.PlanCacheStats: programs are compiled once a process, for every
	// worker of every runtime in it, so each runtime of a process reports
	// the same pair. Process says which process that is (a random id drawn
	// at start), so a fold over snapshots counts the pair once a process.
	ProgramCompiles uint64
	CompileSeconds  float64
	Process         uint64
	// CompiledRatio is ProgramHits over all compile-eligible decodes
	// (hits+misses); 0 until the first decode.
	CompiledRatio float64

	// HARQ retransmission view: CRC-failed decodes, retries requeued,
	// blocks recovered by a soft-combined retry, combine/eviction
	// counts and live soft buffers from the process set, and the
	// current retry backlog.
	CRCFailures   uint64
	HARQRetries   uint64
	HARQRecovered uint64
	HARQCombines  uint64
	HARQEvictions uint64
	HARQBuffers   int
	RetryDepth    int

	// Graceful-degradation view: the current iteration-clamp level
	// (0 = full budget) and how many batches decoded under a clamp.
	DegradeLevel    int
	DegradedBatches uint64

	// SLA-class view: per-class ledgers with their own latency
	// percentiles, the worker steal count (URLLC batches taken while
	// eMBB batches waited), the shed ladder's current level, and how
	// many workers are reserved for URLLC-only service.
	Classes         [NumClasses]ClassSnapshot
	Steals          uint64
	ShedLevel       int
	ReservedWorkers int

	// Predict holds one row per cell predictor; nil when the predictor
	// is not armed.
	Predict []PredictSnapshot

	LatencyP50 time.Duration
	LatencyP90 time.Duration
	LatencyP99 time.Duration

	// LatencyBuckets is the raw delivered-latency histogram (trimmed
	// telemetry.Hist bucket counters). Percentiles do not compose
	// across runtimes, bucket counts do — shard.Aggregate merges these
	// to reconstruct correct fleet-wide percentiles.
	LatencyBuckets []uint64
}

// Dropped totals drops across cells and causes.
func (s *Snapshot) Dropped() uint64 {
	var n uint64
	for _, d := range s.Drops {
		n += d
	}
	return n
}

// DropsByCause renders the drop breakdown as a name->count map.
func (s *Snapshot) DropsByCause() map[string]uint64 {
	out := make(map[string]uint64, int(numDropCauses))
	for c := DropCause(0); c < numDropCauses; c++ {
		out[c.String()] = s.Drops[c]
	}
	return out
}

// snapshot assembles the exported view. queueDepths (per cell),
// classDepths (per class) and workers come from the runtime (the
// metrics layer itself has no queue handle).
func (m *Metrics) snapshot(queueDepths []int, classDepths [NumClasses]int, workers int) *Snapshot {
	s := &Snapshot{
		Elapsed: time.Since(m.start),
		Cells:   make([]CellSnapshot, len(m.cells)),
	}
	elapsedUs := float64(s.Elapsed.Nanoseconds()) / 1e3
	var totalBits uint64
	for i := range m.cells {
		c := &m.cells[i]
		cs := CellSnapshot{
			Accepted:  c.accepted.Load(),
			Delivered: c.delivered.Load(),
		}
		for d := DropCause(0); d < numDropCauses; d++ {
			cs.Drops[d] = c.drops[d].Load()
			s.Drops[d] += cs.Drops[d]
		}
		if i < len(queueDepths) {
			cs.QueueDepth = queueDepths[i]
		}
		bits := c.bits.Load()
		totalBits += bits
		if elapsedUs > 0 {
			cs.Mbps = float64(bits) / elapsedUs
		}
		s.Accepted += cs.Accepted
		s.Delivered += cs.Delivered
		s.Cells[i] = cs
	}
	if elapsedUs > 0 {
		s.GoodputMbps = float64(totalBits) / elapsedUs
	}
	s.Batches = m.batches.Load()
	s.DecodedBlocks = m.decodedBlocks.Load()
	if tot := m.laneSlotsTotal.Load(); tot > 0 {
		s.LaneOccupancy = float64(m.laneSlotsUsed.Load()) / float64(tot)
	}
	for i := range s.DecodeIters {
		s.DecodeIters[i] = m.decodeIters[i].Load()
	}
	if s.DecodedBlocks > 0 {
		s.AvgDecodeUs = float64(m.decodeBusyNs.Load()) / 1e3 / float64(s.DecodedBlocks)
	}
	if ops := m.allocSampleOps.Load(); ops > 0 {
		s.DecodeAllocsPerOp = float64(m.allocSampleObjs.Load()) / float64(ops)
	} else {
		s.DecodeAllocsPerOp = -1
	}
	if workers > 0 && s.Elapsed > 0 {
		s.WorkerUtilization = float64(m.decodeBusyNs.Load()) / (float64(workers) * float64(s.Elapsed.Nanoseconds()))
	}
	s.ProgramHits = m.progHits.Load()
	s.ProgramMisses = m.progMisses.Load()
	s.ProgramMissK = int(m.progMissK.Load())
	cache := turbo.PlanCacheStats()
	s.ProgramCompiles = cache.Compiles
	s.CompileSeconds = cache.CompileTime.Seconds()
	s.Process = processID
	s.CompiledPlans = int(m.compiledPlans.Load())
	if tot := s.ProgramHits + s.ProgramMisses; tot > 0 {
		s.CompiledRatio = float64(s.ProgramHits) / float64(tot)
	}
	s.CRCFailures = m.crcFailures.Load()
	s.HARQRetries = m.harqRetries.Load()
	s.HARQRecovered = m.harqRecovered.Load()
	s.DegradedBatches = m.degradedBatches.Load()
	s.LatencyP50 = m.latency.Percentile(0.50)
	s.LatencyP90 = m.latency.Percentile(0.90)
	s.LatencyP99 = m.latency.Percentile(0.99)
	s.LatencyBuckets = m.latency.Buckets()
	for c := Class(0); c < NumClasses; c++ {
		cc := &m.classes[c]
		ks := ClassSnapshot{
			Accepted:   cc.accepted.Load(),
			Delivered:  cc.delivered.Load(),
			QueueDepth: classDepths[c],
		}
		for d := DropCause(0); d < numDropCauses; d++ {
			ks.Drops[d] = cc.drops[d].Load()
		}
		ks.LatencyP50 = cc.latency.Percentile(0.50)
		ks.LatencyP90 = cc.latency.Percentile(0.90)
		ks.LatencyP99 = cc.latency.Percentile(0.99)
		ks.LatencyBuckets = cc.latency.Buckets()
		s.Classes[c] = ks
	}
	s.Steals = m.steals.Load()
	return s
}
