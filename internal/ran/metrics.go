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

// Drop causes, in pipeline order: backlog (the arrival's (cell, class)
// queue was full — the only refusal at the door, and the runtime's one
// response to overload), expired (deadline passed while queued or
// batching), late (decoded, but after the deadline), harq (CRC failed and
// the retry budget was exhausted, or a combine was rejected), shutdown (a
// requeued HARQ retry could not be decoded because the runtime was
// stopping), decode (the decoder refused the block's batch: a block size
// that is not valid or has no compiled program).
const (
	DropBacklog DropCause = iota
	DropExpired
	DropLate
	DropHARQ
	DropShutdown
	DropDecode
	numDropCauses
)

// String names the cause.
func (c DropCause) String() string {
	switch c {
	case DropBacklog:
		return "backlog"
	case DropExpired:
		return "expired"
	case DropLate:
		return "late"
	case DropHARQ:
		return "harq"
	case DropShutdown:
		return "shutdown"
	case DropDecode:
		return "decode"
	}
	return "unknown"
}

// refusal reports whether c refuses a block at the door — it was never
// accepted, so the drop counts towards Offered — rather than ending an
// accepted block, which counts towards Terminal. This is the one place
// the split is decided.
func (c DropCause) refusal() bool { return c == DropBacklog }

// Ledger is the block-conservation ledger of a cell, a class or a whole
// runtime (or fleet, once folded by Merge). Every block offered is either
// refused at the door or accepted, and every accepted block ends
// delivered or dropped after admission:
//
//	Offered()  = Accepted + backlog drops
//	Terminal() = Delivered + expired + late + harq + shutdown + decode drops
//
// Once nothing is in flight, Terminal() == Accepted.
type Ledger struct {
	Accepted  uint64
	Delivered uint64
	Drops     [numDropCauses]uint64
}

// Dropped totals the drops across causes.
func (l Ledger) Dropped() uint64 {
	var n uint64
	for _, d := range l.Drops {
		n += d
	}
	return n
}

// Offered is every block that reached the door: accepted or refused.
func (l Ledger) Offered() uint64 {
	n := l.Accepted
	for c, d := range l.Drops {
		if DropCause(c).refusal() {
			n += d
		}
	}
	return n
}

// Terminal is every accepted block that has an outcome: delivered or
// dropped after admission.
func (l Ledger) Terminal() uint64 {
	n := l.Delivered
	for c, d := range l.Drops {
		if !DropCause(c).refusal() {
			n += d
		}
	}
	return n
}

func (l *Ledger) add(o Ledger) {
	l.Accepted += o.Accepted
	l.Delivered += o.Delivered
	for c, d := range o.Drops {
		l.Drops[c] += d
	}
}

// ledgerCounters is the atomic side of a Ledger, shared by the per-cell
// and per-class counters so the hot path never takes a lock.
type ledgerCounters struct {
	accepted  atomic.Uint64
	delivered atomic.Uint64
	drops     [numDropCauses]atomic.Uint64
}

// load reads the counters, the terminal ones before accepted: for a cell
// whose accepted count is frozen (sealed for a drain), the difference
// Accepted - Terminal() then never undercounts the blocks in flight.
func (c *ledgerCounters) load() Ledger {
	var l Ledger
	l.Delivered = c.delivered.Load()
	for d := range c.drops {
		l.Drops[d] = c.drops[d].Load()
	}
	l.Accepted = c.accepted.Load()
	return l
}

// cellCounters is the per-cell slice of the metrics.
type cellCounters struct {
	ledgerCounters
	bits atomic.Uint64 // delivered information bits
}

// classCounters is the per-SLA-class view: the same ledger as a cell's,
// plus the class's own delivered-latency histogram so URLLC p99 is
// never diluted by eMBB deliveries.
type classCounters struct {
	ledgerCounters
	latency telemetry.Hist
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

	// HARQ counters: CRC-failed decodes, retransmissions requeued, and
	// blocks recovered by a combined retry.
	crcFailures   atomic.Uint64
	harqRetries   atomic.Uint64
	harqRecovered atomic.Uint64

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

// inflight estimates a cell's non-terminal block count, Accepted -
// Terminal(). With a sealed cell (accepted frozen) the estimate never
// undercounts (see load) — the drain loop's convergence rests on that.
func (m *Metrics) inflight(cell int) uint64 {
	l := m.cells[cell].load()
	if term := l.Terminal(); l.Accepted > term {
		return l.Accepted - term
	}
	return 0
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

func (m *Metrics) crcFail()     { m.crcFailures.Add(1) }
func (m *Metrics) harqRetry()   { m.harqRetries.Add(1) }
func (m *Metrics) harqRecover() { m.harqRecovered.Add(1) }

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
	Ledger
	QueueDepth int
	// Bits is the cell's delivered information bits; Mbps is derived
	// from it.
	Bits uint64
	Mbps float64
}

// ClassSnapshot is one SLA class's view in a Snapshot: the class
// ledger and its own latency percentiles, derived from the raw histogram
// buckets (which Merge adds across runtimes).
type ClassSnapshot struct {
	Ledger

	LatencyP50 time.Duration
	LatencyP90 time.Duration
	LatencyP99 time.Duration

	LatencyBuckets []uint64
}

// Snapshot is a consistent-enough point-in-time view of the metrics
// (individual counters are read atomically; cross-counter skew is at
// most one in-flight block). It carries the raw counters behind every
// ratio gauge, and derive computes the ratios from them, so a fold over
// snapshots (Merge) is a sum followed by the same derive.
type Snapshot struct {
	Elapsed time.Duration
	Cells   []CellSnapshot

	Ledger

	Batches       uint64
	DecodedBlocks uint64

	// Raw sums behind the derived gauges: lane groups carrying a real
	// block and available across batches, decode busy time, delivered
	// information bits, and the runtime's worker count.
	LaneSlotsUsed  uint64
	LaneSlotsTotal uint64
	DecodeBusyNs   int64
	DeliveredBits  uint64
	Workers        int

	// LaneOccupancy is the fraction of register lane groups that carried
	// a real block (1.0 = every decode used the full width).
	LaneOccupancy float64
	// DecodeIters is the per-block iterations-to-converge histogram
	// (buckets 1..7 and 8+): per-block early-exit masking records each
	// block's own latch iteration, not the batch total.
	DecodeIters [numIterBuckets]uint64
	// AvgDecodeUs is the mean per-block decode cost in microseconds.
	AvgDecodeUs float64
	// WorkerUtilization is decode busy time over workers*elapsed.
	WorkerUtilization float64
	// GoodputMbps is delivered information bits over elapsed time.
	GoodputMbps float64

	// ProgramCompiles is the process's, read from turbo.PlanCacheStats:
	// programs are compiled once a process, for every worker of every
	// runtime in it, so each runtime of a process reports the same count.
	// Process says which process that is (a random id drawn at start), so
	// Merge counts it once a process.
	ProgramCompiles uint64
	Process         uint64

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

	// DegradedBatches always reads 0: every batch decodes with the full
	// iteration budget. It stays only for the benchmark harness, which
	// still reads it, and goes with that reader.
	DegradedBatches uint64

	// SLA-class view: per-class ledgers with their own latency
	// percentiles and the steal count (URLLC batches taken while eMBB
	// batches waited).
	Classes [NumClasses]ClassSnapshot
	Steals  uint64
	// ShedLevel always reads 0: an arrival is refused only for backlog.
	// It stays only for the benchmark harness, which still reads it, and
	// goes with that reader.
	ShedLevel int
	// ReservedWorkers always reads 0: every worker serves both classes.
	// It stays only for the benchmark harness, which still reads it, and
	// goes with that reader.
	ReservedWorkers int

	LatencyP50 time.Duration
	LatencyP90 time.Duration
	LatencyP99 time.Duration

	// LatencyBuckets is the raw delivered-latency histogram (trimmed
	// telemetry.Hist bucket counters). Percentiles do not compose
	// across runtimes, bucket counts do: the percentiles are derived
	// from these, after Merge has added them.
	LatencyBuckets []uint64
}

// DropsByCause renders the drop breakdown as a name->count map.
func (s *Snapshot) DropsByCause() map[string]uint64 {
	out := make(map[string]uint64, int(numDropCauses))
	for c := DropCause(0); c < numDropCauses; c++ {
		out[c.String()] = s.Drops[c]
	}
	return out
}

// derive fills every ratio gauge from the raw counters.
func (s *Snapshot) derive() {
	elapsedUs := float64(s.Elapsed.Nanoseconds()) / 1e3
	if elapsedUs > 0 {
		s.GoodputMbps = float64(s.DeliveredBits) / elapsedUs
		for i := range s.Cells {
			s.Cells[i].Mbps = float64(s.Cells[i].Bits) / elapsedUs
		}
	}
	if s.LaneSlotsTotal > 0 {
		s.LaneOccupancy = float64(s.LaneSlotsUsed) / float64(s.LaneSlotsTotal)
	}
	if s.DecodedBlocks > 0 {
		s.AvgDecodeUs = float64(s.DecodeBusyNs) / 1e3 / float64(s.DecodedBlocks)
	}
	if s.Workers > 0 && s.Elapsed > 0 {
		s.WorkerUtilization = float64(s.DecodeBusyNs) / (float64(s.Workers) * float64(s.Elapsed.Nanoseconds()))
	}
	s.LatencyP50, s.LatencyP90, s.LatencyP99 = percentiles(s.LatencyBuckets)
	for c := range s.Classes {
		ks := &s.Classes[c]
		ks.LatencyP50, ks.LatencyP90, ks.LatencyP99 = percentiles(ks.LatencyBuckets)
	}
}

func percentiles(buckets []uint64) (p50, p90, p99 time.Duration) {
	return telemetry.PercentileFromBuckets(buckets, 0.50),
		telemetry.PercentileFromBuckets(buckets, 0.90),
		telemetry.PercentileFromBuckets(buckets, 0.99)
}

// Merge folds snapshots of several runtimes (the shards of a fleet) into
// one. It is a sum, except: Elapsed takes the max; latency
// buckets merge element-wise; ProgramCompiles counts once per Process.
// The ratio gauges are then derived from the summed raw counters,
// exactly as for one runtime. Nil entries are skipped.
func Merge(snaps []*Snapshot) *Snapshot {
	out := &Snapshot{}
	procs := make(map[uint64]bool)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if len(s.Cells) > len(out.Cells) {
			out.Cells = append(out.Cells, make([]CellSnapshot, len(s.Cells)-len(out.Cells))...)
		}
		for i, c := range s.Cells {
			o := &out.Cells[i]
			o.Ledger.add(c.Ledger)
			o.QueueDepth += c.QueueDepth
			o.Bits += c.Bits
		}
		out.Ledger.add(s.Ledger)
		out.Elapsed = max(out.Elapsed, s.Elapsed)
		out.Batches += s.Batches
		out.DecodedBlocks += s.DecodedBlocks
		out.LaneSlotsUsed += s.LaneSlotsUsed
		out.LaneSlotsTotal += s.LaneSlotsTotal
		out.DecodeBusyNs += s.DecodeBusyNs
		out.DeliveredBits += s.DeliveredBits
		out.Workers += s.Workers
		// DecodeIters is not folded (ROADMAP 1(e)): the benchmark adds the
		// per-runtime histograms itself.
		if !procs[s.Process] {
			procs[s.Process] = true
			out.ProgramCompiles += s.ProgramCompiles
		}
		out.CRCFailures += s.CRCFailures
		out.HARQRetries += s.HARQRetries
		out.HARQRecovered += s.HARQRecovered
		out.HARQCombines += s.HARQCombines
		out.HARQEvictions += s.HARQEvictions
		out.HARQBuffers += s.HARQBuffers
		out.RetryDepth += s.RetryDepth
		for c := range s.Classes {
			ks, ok := &s.Classes[c], &out.Classes[c]
			ok.Ledger.add(ks.Ledger)
			ok.LatencyBuckets = telemetry.MergeBuckets(ok.LatencyBuckets, ks.LatencyBuckets)
		}
		out.Steals += s.Steals
		out.LatencyBuckets = telemetry.MergeBuckets(out.LatencyBuckets, s.LatencyBuckets)
	}
	out.derive()
	return out
}

// snapshot assembles the exported view. queueDepths (per cell) and
// workers come from the runtime (the metrics layer itself has no queue
// handle).
func (m *Metrics) snapshot(queueDepths []int, workers int) *Snapshot {
	s := &Snapshot{
		Elapsed: time.Since(m.start),
		Cells:   make([]CellSnapshot, len(m.cells)),
		Workers: workers,
	}
	for i := range m.cells {
		c := &m.cells[i]
		cs := CellSnapshot{Ledger: c.load(), Bits: c.bits.Load()}
		if i < len(queueDepths) {
			cs.QueueDepth = queueDepths[i]
		}
		s.Ledger.add(cs.Ledger)
		s.DeliveredBits += cs.Bits
		s.Cells[i] = cs
	}
	s.Batches = m.batches.Load()
	s.DecodedBlocks = m.decodedBlocks.Load()
	s.LaneSlotsUsed = m.laneSlotsUsed.Load()
	s.LaneSlotsTotal = m.laneSlotsTotal.Load()
	s.DecodeBusyNs = m.decodeBusyNs.Load()
	for i := range s.DecodeIters {
		s.DecodeIters[i] = m.decodeIters[i].Load()
	}
	s.ProgramCompiles = turbo.PlanCacheStats().Compiles
	s.Process = processID
	s.CRCFailures = m.crcFailures.Load()
	s.HARQRetries = m.harqRetries.Load()
	s.HARQRecovered = m.harqRecovered.Load()
	s.LatencyBuckets = m.latency.Buckets()
	for c := Class(0); c < NumClasses; c++ {
		cc := &m.classes[c]
		s.Classes[c] = ClassSnapshot{Ledger: cc.load(), LatencyBuckets: cc.latency.Buckets()}
	}
	s.Steals = m.steals.Load()
	s.derive()
	return s
}
