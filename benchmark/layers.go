package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"vransim/internal/ran"
	"vransim/internal/telemetry"
)

// spanView is the traced pass seen through the program's own spans,
// joined to the benchmark's blocks by the sequence number in UE.
type spanView struct {
	recorded int
	stageMs  [telemetry.NumStages][]float64 // sorted; measured, verified blocks only
	sumMs    float64                        // Σ stage dwell over joined spans
	e2eMs    float64                        // Σ submit-to-callback time of the same blocks
	joined   int
	// decodeUs and probeUs total the decode dwell of the joined spans and
	// what the direct probe measured for a batch of the same size; bits
	// totals their payload.
	decodeUs, probeUs, bits float64
}

func (p *pass) spanView(pr *probes) *spanView {
	v := &spanView{}
	if p.target.tracer == nil {
		return v
	}
	start, width := p.windowBounds()
	for _, sp := range p.target.tracer.Recent() {
		if sp.Outcome != "delivered" {
			continue
		}
		v.recorded++
		if sp.UE < 0 || sp.UE >= p.rec.n || int(p.rec.ev[sp.UE].k) != sp.K {
			continue
		}
		e := &p.rec.ev[sp.UE]
		if windowOf(e.due, start, width, subWindows) < 0 || !p.ok(sp.UE) {
			continue
		}
		v.joined++
		for st, d := range sp.Stages {
			v.stageMs[st] = append(v.stageMs[st], float64(d)/1e6)
		}
		v.sumMs += float64(sp.Total()) / 1e6
		// The generator's own lateness is not the program's to explain.
		v.e2eMs += float64(e.done-e.due-int64(p.rec.lateNs[sp.UE])) / 1e6
		v.decodeUs += float64(sp.Stages[telemetry.SpanDecode]) / 1e3
		k := sp.K
		if p.w.loSNR {
			k = -k
		}
		v.probeUs += pr.batchUs[k]
		v.bits += float64(sp.K)
	}
	for st := range v.stageMs {
		sort.Float64s(v.stageMs[st])
	}
	return v
}

// perLayer is the ledger under the end-to-end numbers: the runtime's own
// counters over the measured span, the program's spans, the direct
// probes, and the benchmark's view of its own generator. A metric of a
// layer the workload does not pass through reads 0.
func (p *pass) perLayer(s *summary, pr *probes) []metric {
	l := p.ledger()
	v := p.spanView(pr)
	workers := float64(totalWorkers)
	// What the kernel alone would deliver for this block-size mix with
	// every lane full and every worker busy, in bits per µs.
	kernelBoundMbps := workers * ratio(v.bits, v.probeUs/float64(lanes))

	m := append([]metric(nil), pr.metrics...)
	add := func(name, unit string, val float64, note string) { m = append(m, metric{name, unit, val, note}) }

	add("ran.lane_fill", "ratio", ratio(l.decoded, l.batches*float64(lanes)), "decoded blocks / (batches x lanes)")
	add("ran.worker_util", "ratio", ratio(l.busyUs/1e6, workers*l.elapsedS), "decode busy time / (workers x span)")
	add("ran.decode_us_per_block", "us", ratio(l.busyUs, l.decoded), "decode busy time / decoded blocks")
	add("ran.blocks_per_batch", "blocks", ratio(l.decoded, l.batches), "")
	add("ran.iters_mean", "iters", ratio(l.iters, l.decoded), "from the per-block iteration histogram")
	add("ran.steals", "count", l.steals, "URLLC batches taken while eMBB waited")
	add("ran.reserved_workers", "count", l.reservedWorkers, "")
	add("ran.decode_gap_pct", "%", 100*(ratio(v.decodeUs, v.probeUs)-1), "decode dwell of spans over the direct probe's time for the same batches, minus 1: the gap to explain")
	add("ran.goodput_over_kernel_bound", "ratio", ratio(s.goodputMbps.thirdBest, kernelBoundMbps), "goodput / (workers x bits / turbo.us_per_block of the mix)")

	// The generator's submit call enters the runtime directly or through
	// the coordinator; the other layer's metric reads 0.
	var ranSubmit, shardSubmit [2]float64
	submit := [2]float64{percentile(s.submitUs, 0.50), percentile(s.submitUs, 0.99)}
	if p.w.fleet {
		shardSubmit = submit
	} else {
		ranSubmit = submit
	}
	add("ran.submit_us_p50", "us", ranSubmit[0], "Runtime.SubmitProcess from the generator")
	add("ran.submit_us_p99", "us", ranSubmit[1], "")
	for _, c := range []ran.Class{ran.ClassURLLC, ran.ClassEMBB} {
		note := fmt.Sprintf("%d samples", s.classCount[c])
		add("ran."+c.String()+"_latency_p50_ms", "ms", s.classP50Ms[c].thirdBest, note)
		add("ran."+c.String()+"_latency_p99_ms", "ms", s.classP99Ms[c].thirdBest, note)
	}
	imbalance, _ := p.conservation()
	add("ran.drops_total", "count", l.drops, "expect 0")
	add("ran.harq_retries", "count", l.harqRetries, "expect 0")
	add("ran.degraded_batches", "count", l.degraded, "expect 0")
	add("ran.shed_level_max", "level", l.shedMax, "expect 0")
	add("ran.compiles_in_window", "count", l.compiles, "expect 0: set-up's grid compiled everything")
	add("ran.conservation_imbalance", "count", float64(imbalance), "expect 0")

	stage := func(st telemetry.Stage, q float64) float64 {
		if q == 0 {
			return mean(v.stageMs[st])
		}
		return percentile(v.stageMs[st], q)
	}
	for _, st := range []struct {
		name string
		st   telemetry.Stage
	}{{"queue", telemetry.SpanQueue}, {"batch", telemetry.SpanBatch}, {"decode", telemetry.SpanDecode}} {
		add("ran."+st.name+"_ms_mean", "ms", stage(st.st, 0), "exact per-span dwell")
		add("ran."+st.name+"_ms_p99", "ms", stage(st.st, 0.99), "")
	}
	add("ran.span_sum_over_e2e", "ratio", ratio(v.sumMs, v.e2eMs), "mean sum of stages / mean submit-to-callback time; 1.0 means the hops add up")

	add("shard.submit_us_p50", "us", shardSubmit[0], "Coordinator.Submit from the generator")
	add("shard.submit_us_p99", "us", shardSubmit[1], "")
	add("shard.route_us_mean", "us", 1e3*stage(telemetry.SpanRoute, 0), "")
	add("shard.encode_wire_us_mean", "us", 1e3*stage(telemetry.SpanEncodeWire, 0), "")
	add("shard.link_us_mean", "us", 1e3*stage(telemetry.SpanLink, 0), "")
	add("shard.link_us_p99", "us", 1e3*stage(telemetry.SpanLink, 0.99), "")
	add("shard.ingest_us_mean", "us", 1e3*stage(telemetry.SpanIngest, 0), "")
	add("shard.route_errors", "count", p.target.coordCounter("vran_shard_route_errors_total"), "expect 0")
	add("shard.ship_dropped", "count", p.target.coordCounter("vran_trace_ship_dropped_total"), "expect 0")

	add("telemetry.traced_goodput_mbps", "Mbps", s.goodputMbps.thirdBest, "trace overhead = 1 - this / goodput_mbps of the untraced run")
	add("telemetry.traced_mbps_per_core", "Mbps/core", s.mbpsPerCore.thirdBest, "against mbps_per_core of the untraced run: what tracing costs in CPU")
	add("telemetry.traced_latency_p50_ms", "ms", s.p50Ms.thirdBest, "")
	add("telemetry.traced_latency_p99_ms", "ms", s.p99Ms.thirdBest, "")
	add("telemetry.spans_recorded", "count", float64(v.recorded), fmt.Sprintf("%d joined to measured blocks", v.joined))

	add("bench.gen_late_mean_ms", "ms", mean(s.genLateMs), "how late the generator offered a block; part of every latency above")
	add("bench.gen_late_p99_ms", "ms", percentile(s.genLateMs, 0.99), "")
	add("bench.offered_blocks", "count", float64(s.attempted), "")
	add("bench.verified_blocks", "count", float64(s.verified), "")
	add("bench.subwindow_spread_p99", "ratio", ratio(s.p99Ms.max, s.p99Ms.min), "max / min of the sub-window p99s")
	return m
}

// writeSpans writes the traced pass's in-memory spans to one file per
// workload, replacing the previous run's.
func (p *pass) writeSpans(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+p.w.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(p.target.tracer.Recent()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
