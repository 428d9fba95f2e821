package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes the serving stages of a Span.
type Stage int

// Serving stages in pipeline order. The cross-hop prefix (route →
// ingest) is populated only for blocks that crossed the fronthaul
// split; a single-process runtime leaves it zero. SpanCompile is
// out-of-band: it is recorded once per (worker, block size) when the
// decoder compiles a replay program, not on every block's path.
// SpanHARQRetry folds the dwell of failed earlier HARQ attempts into
// the final span. SpanDrain/SpanInstall appear only on coordinator-side
// migration spans.
const (
	SpanRoute Stage = iota
	SpanEncodeWire
	SpanPark
	SpanLink
	SpanIngest
	SpanQueue
	SpanBatch
	SpanDecode
	SpanCompile
	SpanHARQRetry
	SpanDrain
	SpanInstall
	NumStages
)

// Name returns the shared stage vocabulary string.
func (s Stage) Name() string {
	switch s {
	case SpanRoute:
		return StageRoute
	case SpanEncodeWire:
		return StageEncodeWire
	case SpanPark:
		return StagePark
	case SpanLink:
		return StageLink
	case SpanIngest:
		return StageIngest
	case SpanQueue:
		return StageQueue
	case SpanBatch:
		return StageBatch
	case SpanDecode:
		return StageDecode
	case SpanCompile:
		return StageCompile
	case SpanHARQRetry:
		return StageHARQRetry
	case SpanDrain:
		return StageDrain
	case SpanInstall:
		return StageInstall
	}
	return "unknown"
}

// SpanContext is the trace state that crosses a process boundary with a
// block: the fleet-unique trace ID, the parent span on the origin hop,
// and the stage dwell already accumulated upstream. Upstream durations
// are monotonic offsets measured on the clock of whichever host paid
// them — never absolute wall times — so a receiving host folds them in
// without comparing clocks. Start is the trace origin reconstructed on
// the LOCAL clock (receive instant minus the accumulated upstream
// offsets), which keeps every derived stamp monotonic on this host even
// when the origin's wall clock is skewed.
type SpanContext struct {
	TraceID uint64
	Parent  uint64
	Start   time.Time
	// Upstream holds per-stage dwell accumulated before this hop,
	// indexed by Stage (route/encode-wire/park/link/ingest for a frame
	// that just crossed the fronthaul).
	Upstream [NumStages]time.Duration
}

// Valid reports whether the context carries a live trace (untraced
// blocks propagate the zero SpanContext).
func (c SpanContext) Valid() bool { return c.TraceID != 0 }

// Span is the record of one transport block's trip through the serving
// runtime: ingress → queue → batcher → decode → delivery. It is a plain
// value (no pointers, no allocation on record) so the hot path can
// build one on the stack and hand it over by copy.
type Span struct {
	// Cell, UE and K identify the block.
	Cell, UE, K int
	// TraceID is the fleet-unique trace this span belongs to (0 for a
	// process-local, untraced block). Parent is the originating span on
	// the previous hop (the coordinator uses the trace ID itself).
	TraceID, Parent uint64
	// Origin names the hop that completed the span (shard name on
	// shipped spans, empty for process-local ones).
	Origin string
	// Start is the trace origin: the Submit instant for a local block,
	// or the reconstructed origin-hop start for a propagated one.
	Start time.Time
	// Stages holds the per-stage dwell times, indexed by Stage.
	Stages [NumStages]time.Duration
	// Iters is the turbo iteration count the decode spent (0 when the
	// block never reached a decoder).
	Iters int
	// Outcome is the block's fate: "delivered", "late", "expired", "decode".
	Outcome string
}

// Total is the span's end-to-end time (sum of stage dwell times).
func (sp Span) Total() time.Duration {
	var t time.Duration
	for _, d := range sp.Stages {
		t += d
	}
	return t
}

// StageSummary is the aggregate view of one stage across all recorded
// spans, the unit both expositions (Prometheus and JSON) render.
type StageSummary struct {
	Stage string        `json:"stage"`
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Tracer collects spans: per-stage histograms (lock-free), a bounded
// ring of recent spans, and a slowest-N exemplar reservoir per stage so
// a dashboard can show *which* blocks paid the tail, not just that a
// tail exists. A nil *Tracer is valid and records nothing — tracing is
// disabled by not constructing one.
type Tracer struct {
	hists [NumStages]Hist
	spans atomic.Uint64 // spans recorded (monotonic)

	mu   sync.Mutex
	ring []Span // recent spans, overwritten circularly
	next int
	full bool
	slow [NumStages][]Span // slowest-N by stage dwell, descending
	keep int
}

// NewTracer builds a tracer keeping the ringSize most recent spans and
// the slowestN slowest spans per stage (defaults 256 and 8 when <= 0).
func NewTracer(ringSize, slowestN int) *Tracer {
	if ringSize <= 0 {
		ringSize = 256
	}
	if slowestN <= 0 {
		slowestN = 8
	}
	return &Tracer{ring: make([]Span, ringSize), keep: slowestN}
}

// Record folds one completed span into the aggregates. Safe for
// concurrent use; a no-op on a nil tracer.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	for st := Stage(0); st < NumStages; st++ {
		if sp.Stages[st] > 0 {
			t.hists[st].Observe(sp.Stages[st])
		}
	}
	t.spans.Add(1)
	t.mu.Lock()
	t.ring[t.next] = sp
	t.next++
	if t.next == len(t.ring) {
		t.next, t.full = 0, true
	}
	for st := Stage(0); st < NumStages; st++ {
		t.insertSlow(st, sp)
	}
	t.mu.Unlock()
}

// insertSlow keeps slow[st] as the descending slowest-keep spans by the
// stage's dwell time. Called with mu held.
func (t *Tracer) insertSlow(st Stage, sp Span) {
	d := sp.Stages[st]
	if d == 0 {
		return
	}
	s := t.slow[st]
	if len(s) == t.keep && d <= s[len(s)-1].Stages[st] {
		return
	}
	i := len(s)
	for i > 0 && s[i-1].Stages[st] < d {
		i--
	}
	s = append(s, Span{})
	copy(s[i+1:], s[i:])
	s[i] = sp
	if len(s) > t.keep {
		s = s[:t.keep]
	}
	t.slow[st] = s
}

// SpanCount reports how many spans were recorded since construction.
func (t *Tracer) SpanCount() uint64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// Recent returns the ring contents, oldest first.
func (t *Tracer) Recent() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Span(nil), t.ring[:t.next]...)
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Slowest returns the slowest recorded spans for stage st, slowest
// first.
func (t *Tracer) Slowest(st Stage) []Span {
	if t == nil || st < 0 || st >= NumStages {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.slow[st]...)
}

// Summaries renders every stage's aggregate, in pipeline order.
func (t *Tracer) Summaries() []StageSummary {
	if t == nil {
		return nil
	}
	out := make([]StageSummary, 0, int(NumStages))
	for st := Stage(0); st < NumStages; st++ {
		h := &t.hists[st]
		out = append(out, StageSummary{
			Stage: st.Name(),
			Count: h.Count(),
			Mean:  h.Mean(),
			P50:   h.Percentile(0.50),
			P90:   h.Percentile(0.90),
			P99:   h.Percentile(0.99),
		})
	}
	return out
}
