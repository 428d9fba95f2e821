package shard

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/fronthaul"
	"vransim/internal/ran"
	"vransim/internal/telemetry"
)

// TestSpanContextFromWire: the wire context rebases onto the local
// clock — upstream monotonic offsets fold in verbatim, the link dwell
// comes from the wall-clock delta clamped at zero, and the
// reconstructed Start backs off by exactly the accumulated upstream
// time.
func TestSpanContextFromWire(t *testing.T) {
	recv := time.Now()
	tc := &fronthaul.TraceCtx{
		TraceID: 42, ParentID: 7,
		SentUnixNs: recv.Add(-3 * time.Millisecond).UnixNano(),
		RouteNs:    1000, EncodeNs: 2000, ParkNs: 4000,
	}
	ingest := 5 * time.Microsecond
	sc := spanContextFromWire(tc, recv, ingest)
	if sc.TraceID != 42 || sc.Parent != 7 {
		t.Errorf("identity %d/%d not carried", sc.TraceID, sc.Parent)
	}
	if sc.Upstream[telemetry.SpanRoute] != time.Microsecond ||
		sc.Upstream[telemetry.SpanEncodeWire] != 2*time.Microsecond ||
		sc.Upstream[telemetry.SpanPark] != 4*time.Microsecond {
		t.Errorf("upstream offsets not folded: %v", sc.Upstream)
	}
	link := sc.Upstream[telemetry.SpanLink]
	if link < 2900*time.Microsecond || link > 3100*time.Microsecond {
		t.Errorf("link dwell %v, want ~3ms", link)
	}
	if sc.Upstream[telemetry.SpanIngest] != ingest {
		t.Errorf("ingest %v, want %v", sc.Upstream[telemetry.SpanIngest], ingest)
	}
	var upstream time.Duration
	for _, d := range sc.Upstream {
		upstream += d
	}
	if got := recv.Add(ingest).Sub(sc.Start); got != upstream {
		t.Errorf("start backed off %v, want the upstream sum %v", got, upstream)
	}
}

// TestSpanContextFromWireSkew: a sender clock ahead of ours (the frame
// appears to arrive before it was sent) must clamp the link dwell to
// zero, never go negative — satellite fix for the cross-host tracer.
func TestSpanContextFromWireSkew(t *testing.T) {
	recv := time.Now()
	tc := &fronthaul.TraceCtx{
		TraceID:    1,
		SentUnixNs: recv.Add(10 * time.Second).UnixNano(), // future sender clock
		RouteNs:    500,
	}
	sc := spanContextFromWire(tc, recv, time.Microsecond)
	if sc.Upstream[telemetry.SpanLink] != 0 {
		t.Errorf("skewed link dwell %v, want clamped 0", sc.Upstream[telemetry.SpanLink])
	}
	for st, d := range sc.Upstream {
		if d < 0 {
			t.Errorf("stage %s negative under skew: %v", telemetry.Stage(st).Name(), d)
		}
	}
	// Unknown sender stamp (0) also means no link attribution.
	sc = spanContextFromWire(&fronthaul.TraceCtx{TraceID: 2}, recv, 0)
	if sc.Upstream[telemetry.SpanLink] != 0 {
		t.Error("zero SentUnixNs must not fabricate a link dwell")
	}
}

// TestFleetTraceEndToEnd: with Sample=1 every remote-decoded block
// yields exactly one trace at the coordinator whose hop durations sum
// to the block's end-to-end latency, and the fleet view exposes the
// hop histograms, SLO gauges and span exemplars over the admin server.
func TestFleetTraceEndToEnd(t *testing.T) {
	const cells, n = 4, 48
	pool := mustPool(t, 64, 32, 1)
	f, err := NewFleet(FleetConfig{
		Coordinator: Config{Cells: cells, Deadline: 30 * time.Second,
			Trace: TraceConfig{Sample: 1}},
		Runtime: fleetRuntime(cells),
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		if err := f.Coord.Submit(i%cells, i%8, i, pool.K, w); err != nil {
			t.Fatal(err)
		}
	}
	agg := settle(t, f.Coord, 10*time.Second, n)
	if agg.Delivered != n {
		t.Fatalf("delivered %d of %d", agg.Delivered, n)
	}
	col := f.Coord.Collector()
	// The shipper flushes every 2ms; give the tail batch a moment.
	deadline := time.Now().Add(5 * time.Second)
	for col.SpanCount() < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(t0)
	if col.SpanCount() != n {
		t.Fatalf("collector merged %d spans, want %d", col.SpanCount(), n)
	}

	seen := map[uint64]bool{}
	for _, sp := range col.Tracer().Recent() {
		if sp.TraceID == 0 {
			t.Fatal("merged span without a trace id")
		}
		if seen[sp.TraceID] {
			t.Fatalf("trace %d merged twice", sp.TraceID)
		}
		seen[sp.TraceID] = true
		if sp.Origin == "" {
			t.Error("shipped span lost its origin shard")
		}
		if sp.Outcome != "delivered" {
			t.Errorf("trace %d outcome %q", sp.TraceID, sp.Outcome)
		}
		// Every fronthaul hop was paid: the coordinator stamped route +
		// encode-wire, the worker ingest, the runtime queue + decode.
		for _, st := range []telemetry.Stage{
			telemetry.SpanRoute, telemetry.SpanEncodeWire,
			telemetry.SpanIngest, telemetry.SpanQueue, telemetry.SpanDecode,
		} {
			if sp.Stages[st] <= 0 {
				t.Errorf("trace %d missing hop %s", sp.TraceID, st.Name())
			}
		}
		// The acceptance criterion: hop durations sum to the observed
		// end-to-end latency. Everything ran in-process on one clock, so
		// the sum is bounded by the wall time of the whole run and is at
		// least the shard-observed service time of the fastest block.
		total := sp.Total()
		if total <= 0 || total > elapsed {
			t.Errorf("trace %d hop sum %v outside (0, %v]", sp.TraceID, total, elapsed)
		}
	}

	// The trace e2e distribution must sit at or above the shard-local
	// latency distribution (it adds the fronthaul hops to the same
	// blocks) — within histogram bucket resolution.
	hops := map[string]telemetry.StageSummary{}
	for _, h := range col.HopSummaries() {
		hops[h.Stage] = h
	}
	if hops[telemetry.StageDecode].Count != n {
		t.Errorf("decode hop count %d, want %d", hops[telemetry.StageDecode].Count, n)
	}
	if hops[telemetry.StageLink].Count == 0 {
		t.Error("no link dwell recorded crossing the pipe fronthaul")
	}

	// Admin exposition: the CI-grepped families and the /spans view.
	srv := httptest.NewServer(f.Coord.MountAdmin("127.0.0.1:0").Handler())
	defer srv.Close()
	metrics := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		`vran_hop_seconds{hop="decode",quantile="0.99"}`,
		`vran_hop_seconds{hop="link",quantile="0.5"}`,
		`vran_hop_budget_fraction{hop="decode"}`,
		`vran_trace_spans_total`,
		`vran_slo_burn_rate{window="fast"}`,
		`vran_slo_budget_remaining{window="slow"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	spansBody := httpGet(t, srv.URL+"/spans")
	for _, want := range []string{`"recent"`, `"slowest"`, `"hops"`, `"decode"`} {
		if !strings.Contains(spansBody, want) {
			t.Errorf("/spans missing %s", want)
		}
	}

	// SLO: every block was delivered well inside the 30s target.
	good, bad := col.SLO().Totals()
	if good != n || bad != 0 {
		t.Errorf("SLO verdicts %d/%d, want %d/0", good, bad, n)
	}
	if _, errs := f.Stop(); len(errs) != 0 {
		t.Errorf("serve errors: %v", errs)
	}
}

// TestTraceSampling: Sample=4 traces one block in four; untraced
// blocks must not reach the collector.
func TestTraceSampling(t *testing.T) {
	const cells, n = 2, 32
	pool := mustPool(t, 64, 32, 2)
	f, err := NewFleet(FleetConfig{
		Coordinator: Config{Cells: cells, Deadline: 30 * time.Second,
			Trace: TraceConfig{Sample: 4}},
		Runtime: fleetRuntime(cells),
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		if err := f.Coord.Submit(i%cells, i%8, i, pool.K, w); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, f.Coord, 10*time.Second, n)
	col := f.Coord.Collector()
	deadline := time.Now().Add(5 * time.Second)
	for col.SpanCount() < n/4 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := col.SpanCount(); got != n/4 {
		t.Errorf("collector merged %d spans, want %d (every 4th block)", got, n/4)
	}
	f.Stop()
}

// TestTraceSurvivesLinkChaos: trace contexts ride the lossy U-plane;
// faulted frames lose their trace with the block (by design), but every
// span that does come back parses and stays non-negative.
func TestTraceSurvivesLinkChaos(t *testing.T) {
	const cells, n = 4, 200
	pool := mustPool(t, 64, 64, 3)
	f, err := NewFleet(FleetConfig{
		Coordinator: Config{Cells: cells, Deadline: 30 * time.Second,
			Trace: TraceConfig{Sample: 1}},
		Runtime: fleetRuntime(cells),
		Shards:  2,
		LinkChaos: func(i int) *chaos.Injector {
			return chaos.New(chaos.Config{
				Seed:          400 + int64(i),
				LinkDropRate:  0.05,
				LinkDelayRate: 0.10,
				LinkPartRate:  0.002,
				LinkPartFor:   500 * time.Microsecond,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		if err := f.Coord.Submit(i%cells, i%8, (i/32)%8, pool.K, w); err != nil {
			t.Fatal(err)
		}
	}
	f.Coord.Stop() // release reorder-held frames before settling
	agg := settle(t, f.Coord, 30*time.Second, 0)
	col := f.Coord.Collector()
	deadline := time.Now().Add(5 * time.Second)
	for col.SpanCount() < agg.Accepted && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	snaps, _ := f.Stop()
	_ = snaps
	if col.SpanCount() != agg.Accepted {
		t.Errorf("spans %d != blocks that survived the link %d", col.SpanCount(), agg.Accepted)
	}
	if col.SpanCount() == n {
		t.Logf("note: chaos dropped no frames this run")
	}
	if col.badReports.Load() != 0 {
		t.Errorf("%d span reports failed to parse", col.badReports.Load())
	}
	for _, sp := range col.Tracer().Recent() {
		for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
			if sp.Stages[st] < 0 {
				t.Errorf("trace %d stage %s negative under chaos", sp.TraceID, telemetry.Stage(st).Name())
			}
		}
	}
}

// TestAggregateMergesLatencyBuckets: the fleet fold reconstructs global
// and per-class percentiles from pooled histogram buckets, not from the
// shards' own percentiles (a max-fold would report the worst shard's as
// the fleet's).
func TestAggregateMergesLatencyBuckets(t *testing.T) {
	var fast, slow telemetry.Hist
	for i := 0; i < 900; i++ {
		fast.Observe(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		slow.Observe(100 * time.Millisecond)
	}
	mk := func(h *telemetry.Hist) *ran.Snapshot {
		s := &ran.Snapshot{LatencyBuckets: h.Buckets()}
		s.Classes[ran.ClassURLLC].LatencyBuckets = h.Buckets()
		return s
	}
	agg := ran.Merge([]*ran.Snapshot{mk(&fast), mk(&slow)})
	for _, p := range []struct {
		name     string
		p50, p99 time.Duration
	}{
		{"fleet", agg.LatencyP50, agg.LatencyP99},
		{"urllc", agg.Classes[ran.ClassURLLC].LatencyP50, agg.Classes[ran.ClassURLLC].LatencyP99},
	} {
		// 90 % of the pooled blocks are ~1 ms, so p50 is the fast mode.
		if p.p50 > 10*time.Millisecond {
			t.Errorf("%s p50 %v — not the pooled population's", p.name, p.p50)
		}
		// The tail is real: pooled p99 is the slow shard's mode.
		if p.p99 < 80*time.Millisecond {
			t.Errorf("%s p99 %v lost the slow tail", p.name, p.p99)
		}
	}
}
