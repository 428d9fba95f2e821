package shard

// Fleet-wide distributed tracing: the coordinator stamps sampled data
// frames with a fronthaul.TraceCtx, shard runtimes accumulate their
// local stages onto the propagated context, and a per-shard spanShipper
// batches the completed spans back over the (full-duplex) data link as
// TypeSpanReport frames. The coordinator's SpanCollector merges them
// into per-hop histograms, deadline-budget attribution and SLO burn
// rates — the cross-process answer to "where did this block's deadline
// budget go?".
//
// Span shipping is bounded and lossy by design: the shipper buffer
// never blocks the decode path, overflow increments a dropped counter
// that rides every report frame (Aux), and the collector exposes it as
// vran_trace_ship_dropped_total. Timing truth is never distorted —
// only visibility degrades under pressure.

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"vransim/internal/fronthaul"
	"vransim/internal/telemetry"
)

// TraceConfig shapes the coordinator's distributed tracing.
type TraceConfig struct {
	// Sample traces every Nth submitted block (1 = every block, 0
	// disables trace propagation entirely). Untraced blocks carry no
	// trace context on the wire and cost nothing anywhere.
	Sample int
	// Ring and SlowestN size the collector's exemplar tracer
	// (defaults 512 recent spans, 8 slowest per hop).
	Ring, SlowestN int
	// SLO shapes the burn-rate tracker; a zero Target defaults to the
	// coordinator's deadline.
	SLO telemetry.SLOConfig
}

// spanShipper is the shard-side half: a bounded span buffer flushed as
// TypeSpanReport frames on whatever link last carried data traffic.
type spanShipper struct {
	mu  sync.Mutex
	buf []telemetry.Span

	link    atomic.Pointer[fronthaul.Link]
	dropped atomic.Uint64 // spans lost to buffer overflow or write errors
	shipped atomic.Uint64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

const (
	shipBufCap     = 8192
	shipBatch      = 256
	shipFlushEvery = 2 * time.Millisecond
)

func newSpanShipper() *spanShipper {
	s := &spanShipper{
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go s.run()
	return s
}

// offer enqueues one completed span; it never blocks the caller (a
// worker goroutine on the decode path) — past the cap the span is
// counted dropped.
func (s *spanShipper) offer(sp telemetry.Span) {
	s.mu.Lock()
	if len(s.buf) >= shipBufCap {
		s.mu.Unlock()
		s.dropped.Add(1)
		return
	}
	s.buf = append(s.buf, sp)
	n := len(s.buf)
	s.mu.Unlock()
	if n >= shipBatch {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

func (s *spanShipper) run() {
	defer close(s.done)
	t := time.NewTicker(shipFlushEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			s.flush()
			return
		case <-s.kick:
		case <-t.C:
		}
		s.flush()
	}
}

// flush ships the buffered spans in one report frame. With no link
// registered yet the spans stay buffered (bounded by offer); a write
// error counts the batch dropped — the backchannel is best-effort.
func (s *spanShipper) flush() {
	link := s.link.Load()
	if link == nil {
		return
	}
	s.mu.Lock()
	batch := s.buf
	s.buf = nil
	s.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		s.dropped.Add(uint64(len(batch)))
		return
	}
	f := &fronthaul.Frame{
		Type:    fronthaul.TypeSpanReport,
		Aux:     s.dropped.Load(),
		Payload: payload,
	}
	if err := link.WriteFrame(f); err != nil {
		s.dropped.Add(uint64(len(batch)))
		return
	}
	s.shipped.Add(uint64(len(batch)))
}

// close stops the flusher after one final flush.
func (s *spanShipper) close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// spanContextFromWire rebases a received frame's trace context onto the
// local clock. Upstream stage dwells are monotonic offsets and fold in
// verbatim; only the link stage compares wall clocks (receive instant
// vs the sender's stamp) and it is clamped at zero, so cross-host skew
// can never produce a negative stage. The reconstructed Start is the
// local receive instant minus everything already paid upstream —
// origin-hop time expressed in this host's clock domain.
func spanContextFromWire(tc *fronthaul.TraceCtx, recv time.Time, ingest time.Duration) telemetry.SpanContext {
	var up [telemetry.NumStages]time.Duration
	up[telemetry.SpanRoute] = time.Duration(tc.RouteNs)
	up[telemetry.SpanEncodeWire] = time.Duration(tc.EncodeNs)
	up[telemetry.SpanPark] = time.Duration(tc.ParkNs)
	if tc.SentUnixNs > 0 {
		if link := recv.Sub(time.Unix(0, tc.SentUnixNs)); link > 0 {
			up[telemetry.SpanLink] = link
		}
	}
	if ingest > 0 {
		up[telemetry.SpanIngest] = ingest
	}
	var upstream time.Duration
	for _, d := range up {
		upstream += d
	}
	return telemetry.SpanContext{
		TraceID:  tc.TraceID,
		Parent:   tc.ParentID,
		Start:    recv.Add(ingest - upstream),
		Upstream: up,
	}
}

// SpanCollector is the coordinator-side fleet span sink: exemplar
// tracer (recent ring + slowest-N per hop), per-hop histograms and the
// SLO tracker.
type SpanCollector struct {
	tracer *telemetry.Tracer
	slo    *telemetry.SLOTracker
	hops   [telemetry.NumStages]telemetry.Hist

	spans      atomic.Uint64 // spans merged
	badReports atomic.Uint64 // report frames that failed to parse
}

func newSpanCollector(cfg TraceConfig, deadline time.Duration) *SpanCollector {
	slo := cfg.SLO
	if slo.Target <= 0 {
		slo.Target = deadline
	}
	ring := cfg.Ring
	if ring <= 0 {
		ring = 512
	}
	return &SpanCollector{
		tracer: telemetry.NewTracer(ring, cfg.SlowestN),
		slo:    telemetry.NewSLOTracker(slo),
	}
}

// Record merges one completed span into the fleet aggregates.
// Migration spans (outcome "migrated"/"migrate_failed") feed the hop
// histograms but not the SLO — they are control-plane events, not
// served blocks.
func (sc *SpanCollector) Record(sp telemetry.Span) {
	sc.tracer.Record(sp)
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		if sp.Stages[st] > 0 {
			sc.hops[st].Observe(sp.Stages[st])
		}
	}
	sc.spans.Add(1)
	switch sp.Outcome {
	case "migrated", "migrate_failed":
	default:
		sc.slo.Observe(sp.Total(), sp.Outcome == "delivered")
	}
}

// ingest parses one TypeSpanReport frame from shard origin.
func (sc *SpanCollector) ingest(origin string, payload []byte) {
	var spans []telemetry.Span
	if err := json.Unmarshal(payload, &spans); err != nil {
		sc.badReports.Add(1)
		return
	}
	for i := range spans {
		spans[i].Origin = origin
		sc.Record(spans[i])
	}
}

// SpanCount reports how many spans the collector has merged.
func (sc *SpanCollector) SpanCount() uint64 { return sc.spans.Load() }

// SLO exposes the collector's burn-rate tracker.
func (sc *SpanCollector) SLO() *telemetry.SLOTracker { return sc.slo }

// Tracer exposes the exemplar tracer (recent ring, slowest-N per hop).
func (sc *SpanCollector) Tracer() *telemetry.Tracer { return sc.tracer }

// HopSummaries renders every hop's aggregate in pipeline order.
func (sc *SpanCollector) HopSummaries() []telemetry.StageSummary {
	out := make([]telemetry.StageSummary, 0, int(telemetry.NumStages))
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		h := &sc.hops[st]
		out = append(out, telemetry.StageSummary{
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

// Families renders the collector as vran_hop_* / vran_trace_* / SLO
// series. Every hop is always emitted (count may be zero) so scrapers
// and CI greps see a stable schema.
func (sc *SpanCollector) Families(shipDropped uint64) []telemetry.Family {
	hopSeconds := telemetry.Family{Name: "vran_hop_seconds", Type: telemetry.Gauge,
		Help: "Per-hop stage latency quantiles across the fronthaul split."}
	hopBudget := telemetry.Family{Name: "vran_hop_budget_fraction", Type: telemetry.Gauge,
		Help: "Fraction of the mean end-to-end latency attributed to each hop."}
	var meanSum float64
	means := make([]float64, int(telemetry.NumStages))
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		means[st] = sc.hops[st].Mean().Seconds() // mean over spans that paid the stage
		if n := sc.hops[st].Count(); n > 0 {
			// Weight by how often the stage was paid, so a rare-but-huge
			// stage (a HARQ retry) is attributed by its true share.
			means[st] *= float64(n) / float64(maxU64(sc.spans.Load(), 1))
		}
		meanSum += means[st]
	}
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		h := &sc.hops[st]
		lbl := telemetry.L("hop", st.Name())
		for _, q := range [...]struct {
			name string
			v    float64
		}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}} {
			hopSeconds.Samples = append(hopSeconds.Samples, telemetry.Sample{
				Labels: []telemetry.Label{lbl, telemetry.L("quantile", q.name)},
				Value:  h.Percentile(q.v).Seconds(),
			})
		}
		frac := 0.0
		if meanSum > 0 {
			frac = means[st] / meanSum
		}
		hopBudget.Samples = append(hopBudget.Samples, telemetry.Sample{
			Labels: []telemetry.Label{lbl}, Value: frac})
	}
	fams := []telemetry.Family{
		hopSeconds, hopBudget,
		telemetry.F("vran_trace_spans_total", "Completed spans merged into the fleet collector.",
			telemetry.Counter, float64(sc.spans.Load())),
		telemetry.F("vran_trace_bad_reports_total", "Span report frames that failed to parse.",
			telemetry.Counter, float64(sc.badReports.Load())),
		telemetry.F("vran_trace_ship_dropped_total", "Spans shards dropped before shipping (buffer overflow or link error).",
			telemetry.Counter, float64(shipDropped)),
	}
	return append(fams, sc.slo.Families()...)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
