package ran

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"vransim/internal/simd/program"
	"vransim/internal/telemetry"
)

// Families renders the snapshot in the vran_* metric naming scheme:
// per-cell ledgers and queue depth, runtime-wide gauges (goodput, lane
// occupancy, worker utilization, latency quantiles), and the
// decode-path, HARQ and SLA-class counters. Every family has a reader
// named in DESIGN §7. The same families back both the Prometheus text
// and JSON expositions.
func (s *Snapshot) Families() []telemetry.Family {
	cellLedger := ledgerFamilies("vran_", [3]string{
		"Blocks admitted for decode.",
		"Blocks decoded and delivered within deadline.",
		"Blocks dropped, by cell and cause."}, len(s.Cells),
		func(i int) (telemetry.Label, *Ledger) {
			return telemetry.L("cell", strconv.Itoa(i)), &s.Cells[i].Ledger
		})
	depth := telemetry.Family{Name: "vran_queue_depth",
		Help: "Blocks of the cell waiting for a worker (HARQ retries included).", Type: telemetry.Gauge}
	for i, c := range s.Cells {
		depth.Samples = append(depth.Samples, telemetry.Sample{
			Labels: []telemetry.Label{telemetry.L("cell", strconv.Itoa(i))}, Value: float64(c.QueueDepth)})
	}
	iters := telemetry.Family{Name: "vran_decode_iters",
		Help: "Per-block decode iterations to converge (per-block early-exit latch; bucket 8+ absorbs the tail).",
		Type: telemetry.Counter}
	for i, n := range s.DecodeIters {
		lbl := strconv.Itoa(i + 1)
		if i == len(s.DecodeIters)-1 {
			lbl += "+"
		}
		iters.Samples = append(iters.Samples, telemetry.Sample{
			Labels: []telemetry.Label{telemetry.L("iters", lbl)}, Value: float64(n)})
	}
	lat := telemetry.Family{Name: "vran_latency_seconds",
		Help: "Delivered-block end-to-end latency quantiles.", Type: telemetry.Gauge,
		Samples: latencySamples(nil, s.LatencyP50, s.LatencyP90, s.LatencyP99)}
	// SLA-class families: the per-class ledger mirrors the per-cell one,
	// plus class latency quantiles so a scraper can watch URLLC p99
	// directly without reconstructing it from cells.
	clsLedger := ledgerFamilies("vran_class_", [3]string{
		"Blocks admitted, by SLA class.",
		"Blocks delivered within deadline, by SLA class.",
		"Blocks dropped, by SLA class and cause."}, int(NumClasses),
		func(i int) (telemetry.Label, *Ledger) {
			return telemetry.L("class", Class(i).String()), &s.Classes[i].Ledger
		})
	clsLat := telemetry.Family{Name: "vran_class_latency_seconds",
		Help: "Delivered-block latency quantiles, by SLA class.", Type: telemetry.Gauge}
	for c := Class(0); c < NumClasses; c++ {
		ks := &s.Classes[c]
		clsLat.Samples = latencySamples(clsLat.Samples, ks.LatencyP50, ks.LatencyP90, ks.LatencyP99, telemetry.L("class", c.String()))
	}
	return []telemetry.Family{
		cellLedger[0], cellLedger[1], cellLedger[2], depth,
		telemetry.F("vran_goodput_mbps", "Delivered information bits over elapsed time.", telemetry.Gauge, s.GoodputMbps),
		telemetry.F("vran_batches_total", "Decode batches the workers took.", telemetry.Counter, float64(s.Batches)),
		telemetry.F("vran_lane_occupancy", "Fraction of register lane groups carrying a real block.", telemetry.Gauge, s.LaneOccupancy),
		iters,
		telemetry.F("vran_worker_utilization", "Decode busy time over workers x elapsed.", telemetry.Gauge, s.WorkerUtilization),
		telemetry.F("vran_decode_compiles_total", "Replay programs compiled in this process, one per (K, width, strategy), shared by every worker.", telemetry.Counter, float64(s.ProgramCompiles)),
		telemetry.F("vran_crc_failures_total", "Decodes whose transport-block check failed (incl. chaos-forced).", telemetry.Counter, float64(s.CRCFailures)),
		telemetry.F("vran_harq_retries_total", "HARQ retransmissions requeued for another decode.", telemetry.Counter, float64(s.HARQRetries)),
		telemetry.F("vran_harq_recovered_total", "Blocks delivered by a soft-combined HARQ retry.", telemetry.Counter, float64(s.HARQRecovered)),
		telemetry.F("vran_harq_evictions_total", "Soft buffers evicted under capacity pressure.", telemetry.Counter, float64(s.HARQEvictions)),
		lat,
		clsLedger[0], clsLedger[1], clsLedger[2], clsLat,
		telemetry.F("vran_class_steals_total", "URLLC batches a worker took while eMBB blocks waited.", telemetry.Counter, float64(s.Steals)),
	}
}

// ledgerFamilies renders n ledgers, each under its own label, as the
// prefix+"accepted_total", prefix+"delivered_total" and
// prefix+"dropped_total" (by cause) families, with the given help strings.
func ledgerFamilies(prefix string, help [3]string, n int, row func(int) (telemetry.Label, *Ledger)) [3]telemetry.Family {
	fams := [3]telemetry.Family{
		{Name: prefix + "accepted_total", Help: help[0], Type: telemetry.Counter},
		{Name: prefix + "delivered_total", Help: help[1], Type: telemetry.Counter},
		{Name: prefix + "dropped_total", Help: help[2], Type: telemetry.Counter},
	}
	for i := 0; i < n; i++ {
		lbl, l := row(i)
		fams[0].Samples = append(fams[0].Samples, telemetry.Sample{
			Labels: []telemetry.Label{lbl}, Value: float64(l.Accepted)})
		fams[1].Samples = append(fams[1].Samples, telemetry.Sample{
			Labels: []telemetry.Label{lbl}, Value: float64(l.Delivered)})
		for d := DropCause(0); d < numDropCauses; d++ {
			fams[2].Samples = append(fams[2].Samples, telemetry.Sample{
				Labels: []telemetry.Label{lbl, telemetry.L("cause", d.String())},
				Value:  float64(l.Drops[d])})
		}
	}
	return fams
}

// latencySamples appends the p50/p90/p99 samples, labelled lbls plus
// the quantile, to out.
func latencySamples(out []telemetry.Sample, p50, p90, p99 time.Duration, lbls ...telemetry.Label) []telemetry.Sample {
	for _, q := range []struct {
		s string
		d time.Duration
	}{{"0.5", p50}, {"0.9", p90}, {"0.99", p99}} {
		labels := append(append([]telemetry.Label(nil), lbls...), telemetry.L("quantile", q.s))
		out = append(out, telemetry.Sample{Labels: labels, Value: q.d.Seconds()})
	}
	return out
}

// HealthPolicy sets the /healthz thresholds. Zero values take the
// defaults: unhealthy when more than 50 % of the interval's offered
// blocks were dropped, or when any cell queue is ≥ 90 % full.
type HealthPolicy struct {
	MaxDropRate  float64
	MaxQueueFrac float64
}

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.MaxDropRate <= 0 {
		p.MaxDropRate = 0.5
	}
	if p.MaxQueueFrac <= 0 {
		p.MaxQueueFrac = 0.9
	}
	return p
}

// Health returns a readiness check keyed on drop rate and queue
// saturation. The drop rate is computed over the interval since the
// previous call (the first call sees the whole run), so a recovered
// runtime goes healthy again without a counter reset.
func (r *Runtime) Health(pol HealthPolicy) func() telemetry.HealthStatus {
	pol = pol.withDefaults()
	var mu sync.Mutex
	var prevOffered, prevDropped uint64
	return func() telemetry.HealthStatus {
		s := r.Snapshot()
		offered, dropped := s.Offered(), s.Dropped()

		mu.Lock()
		dOff := offered - prevOffered
		dDrop := dropped - prevDropped
		prevOffered, prevDropped = offered, dropped
		mu.Unlock()

		st := telemetry.HealthStatus{Healthy: true}
		if dOff > 0 {
			st.DropRate = float64(dDrop) / float64(dOff)
		}
		for _, c := range s.Cells {
			if f := float64(c.QueueDepth) / float64(r.cfg.QueueDepth); f > st.QueueFrac {
				st.QueueFrac = f
			}
		}
		if st.DropRate > pol.MaxDropRate {
			st.Healthy = false
			st.Reason = fmt.Sprintf("drop rate %.2f over threshold %.2f", st.DropRate, pol.MaxDropRate)
		} else if st.QueueFrac >= pol.MaxQueueFrac {
			st.Healthy = false
			st.Reason = fmt.Sprintf("queue %.0f%% full (threshold %.0f%%)", 100*st.QueueFrac, 100*pol.MaxQueueFrac)
		}
		return st
	}
}

// spansBody is the /spans JSON shape.
type spansBody struct {
	Recent  []telemetry.Span            `json:"recent"`
	Slowest map[string][]telemetry.Span `json:"slowest"`
}

// kernelInfo is the info gauge (constant 1) naming the replay kernel this
// process decodes with. It is mounted per process rather than rendered
// from a Snapshot, which a coordinator folds across shards: a shard
// without AVX-512BW decodes several times slower per worker, and which
// shard that is has to be answerable from its own /metrics.
func kernelInfo() telemetry.Family {
	return telemetry.Family{Name: "vran_decode_kernel_info",
		Help: "Replay kernel this process runs the packed trellis ops with: avx512bw (native) or go (portable).",
		Type: telemetry.Gauge,
		Samples: []telemetry.Sample{{
			Labels: []telemetry.Label{telemetry.L("kernel", program.Kernel())}, Value: 1}}}
}

// snapshotBody is the /snapshot JSON shape.
type snapshotBody struct {
	Snapshot     *Snapshot                `json:"snapshot"`
	DropsByCause map[string]uint64        `json:"drops_by_cause"`
	Stages       []telemetry.StageSummary `json:"stages,omitempty"`
}

// MountAdmin wires a runtime and an optional tracer into an admin server
// on addr (not yet started). All endpoint bodies are built from live
// Snapshot/tracer state at request time. Extra family sources (e.g. a
// chaos injector's Families) are appended to every /metrics scrape.
func MountAdmin(rt *Runtime, tr *telemetry.Tracer, addr string, pol HealthPolicy, extra ...func() []telemetry.Family) *telemetry.AdminServer {
	return telemetry.NewAdmin(telemetry.AdminConfig{
		Addr: addr,
		Metrics: func() []telemetry.Family {
			fams := append(rt.Snapshot().Families(), kernelInfo())
			fams = append(fams, tr.Families()...)
			for _, fn := range extra {
				fams = append(fams, fn()...)
			}
			return fams
		},
		Snapshot: func() any {
			s := rt.Snapshot()
			return snapshotBody{Snapshot: s, DropsByCause: s.DropsByCause(), Stages: tr.Summaries()}
		},
		Spans: func() any {
			body := spansBody{Recent: tr.Recent(), Slowest: map[string][]telemetry.Span{}}
			for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
				body.Slowest[st.Name()] = tr.Slowest(st)
			}
			return body
		},
		Health: rt.Health(pol),
	})
}
