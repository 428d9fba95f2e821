package ran

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vransim/internal/simd"
	"vransim/internal/simd/program"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// tracerK56Compiled records that TestTracerSpansThroughRuntime has already
// decoded its block size in this process (an earlier -count round).
var tracerK56Compiled bool

// TestTracerSpansThroughRuntime drives traced traffic end to end and
// checks the span accounting: one span per block reaching the pool,
// stage dwell times populated, and outcomes matching the metrics.
func TestTracerSpansThroughRuntime(t *testing.T) {
	cfg := testConfig(simd.W512)
	tr := telemetry.NewTracer(64, 4)
	cfg.Tracer = tr
	before := turbo.PlanCacheStats()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// K=56 is this test's own block size: no other test of the binary has
	// compiled it, so the first batch here does, on whichever worker pulls
	// it.
	pool := mustPool(t, 56, 24, 7)
	for i := 0; i < pool.Len(); i++ {
		w, _ := pool.Get(i)
		if a := rt.Submit(i%cfg.Cells, i, pool.K, w); a != Admitted {
			t.Fatalf("block %d not admitted: %v", i, a)
		}
	}
	s := rt.Stop()
	if s.Delivered != uint64(pool.Len()) {
		t.Fatalf("delivered %d of %d", s.Delivered, pool.Len())
	}
	// One span per block, plus one compile span for each program the
	// process compiled while this runtime served, however many workers
	// went on to replay it: one the first time the process meets K=56,
	// none in a later -count round, which finds it in the cache.
	compiled := tr.SpanCount() - uint64(pool.Len())
	d := turbo.PlanCacheStats().Compiles - before.Compiles
	if compiled != d {
		t.Errorf("tracer saw %d spans for %d blocks and the process compiled %d programs: want one compile span per compile",
			tr.SpanCount(), pool.Len(), d)
	}
	if tracerK56Compiled {
		t.Logf("K=56 was compiled by an earlier round of this test: %d compiles now, the cold compile is not checked", d)
	} else if d != 1 {
		t.Errorf("the process compiled %d programs on its first K=56 blocks, want one", d)
	}
	tracerK56Compiled = true
	for _, sp := range tr.Recent() {
		if sp.Outcome == "compiled" {
			if sp.Stages[telemetry.SpanCompile] <= 0 {
				t.Error("compile span has no compile time")
			}
			if sp.K != pool.K {
				t.Errorf("compile span K=%d, want %d", sp.K, pool.K)
			}
			continue
		}
		if sp.Outcome != "delivered" {
			t.Errorf("span outcome %q under infinite deadline", sp.Outcome)
		}
		if sp.Stages[telemetry.SpanDecode] <= 0 {
			t.Error("span has no decode time")
		}
		if sp.Iters <= 0 {
			t.Error("span has no iteration count")
		}
		if sp.K != pool.K {
			t.Errorf("span K=%d, want %d", sp.K, pool.K)
		}
	}
	sums := tr.Summaries()
	if sums[telemetry.SpanDecode].Count != uint64(pool.Len()) {
		t.Errorf("decode stage count %d, want %d", sums[telemetry.SpanDecode].Count, pool.Len())
	}
	// Queue waits exist (every block waits at least for a worker's
	// take).
	if sums[telemetry.SpanQueue].Count == 0 {
		t.Error("no queue-wait observations")
	}
}

// TestAdminLiveExposition mounts the full admin stack over a live
// runtime and asserts the acceptance-level content of /metrics:
// per-cell accepted/dropped counters, per-stage latency quantiles, and
// a uarch-derived gauge from the calibration decode.
func TestAdminLiveExposition(t *testing.T) {
	cfg := testConfig(simd.W256)
	tr := telemetry.NewTracer(128, 4)
	cfg.Tracer = tr
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	pool := mustPool(t, 40, 16, 8)
	for i := 0; i < 32; i++ {
		w, _ := pool.Get(i)
		rt.Submit(i%cfg.Cells, i, pool.K, w)
	}
	admin := MountAdmin(rt, tr, "127.0.0.1:0", HealthPolicy{})
	srv := httptest.NewServer(admin.Handler())
	defer srv.Close()

	// Wait for the runtime to drain so the scrape sees deliveries.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Snapshot().Delivered < 32 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	body := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		`vran_accepted_total{cell="0"}`,
		`vran_dropped_total{cell="1",cause="backlog"}`,
		`vran_stage_latency_seconds{stage="queue",quantile="0.99"}`,
		`vran_stage_latency_seconds{stage="decode",quantile="0.5"}`,
		"# TYPE vran_latency_seconds gauge",
		"\nvran_lane_occupancy ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The port model is vranbench's (fig3, fig5), not the serving
	// process's, and pack fill was lane occupancy under a second name.
	for _, gone := range []string{"vran_uarch_", "vran_decode_pack_fill"} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics carries a %s family", gone)
		}
	}

	var snap struct {
		Snapshot struct {
			Delivered uint64 `json:"Delivered"`
		} `json:"snapshot"`
		DropsByCause map[string]uint64        `json:"drops_by_cause"`
		Stages       []telemetry.StageSummary `json:"stages"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/snapshot")), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.Snapshot.Delivered == 0 {
		t.Error("/snapshot shows nothing delivered")
	}
	if len(snap.Stages) != int(telemetry.NumStages) {
		t.Errorf("/snapshot has %d stages, want %d", len(snap.Stages), telemetry.NumStages)
	}
	if len(snap.DropsByCause) != int(numDropCauses) {
		t.Errorf("/snapshot drops_by_cause has %d causes", len(snap.DropsByCause))
	}

	var spans struct {
		Recent  []telemetry.Span            `json:"recent"`
		Slowest map[string][]telemetry.Span `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/spans")), &spans); err != nil {
		t.Fatalf("/spans not JSON: %v", err)
	}
	if len(spans.Recent) == 0 || len(spans.Slowest[telemetry.StageDecode]) == 0 {
		t.Error("/spans empty after traced deliveries")
	}
}

// TestProgramMetricsExposition drives same-K traffic through a
// two-worker runtime and checks the program counters end to end: the block
// size is compiled at most once for the process however many workers
// decode it (the cache is the process's: an earlier test of this binary
// may have compiled it already, so the test counts the difference), every
// block decodes, and the Snapshot fields, their /metrics families, the
// compile stage and /healthz agree.
func TestProgramMetricsExposition(t *testing.T) {
	cfg := testConfig(simd.W512)
	cfg.Workers = 2
	before := turbo.PlanCacheStats()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 104, 64, 17)
	for i := 0; i < pool.Len(); i++ {
		w, _ := pool.Get(i)
		if a := rt.Submit(i%cfg.Cells, i, pool.K, w); a != Admitted {
			t.Fatalf("block %d not admitted: %v", i, a)
		}
	}
	health := rt.Health(HealthPolicy{})
	s := rt.Stop()

	if d := s.ProgramCompiles - before.Compiles; d > 1 {
		t.Errorf("%d compiles for one block size on %d workers, want at most 1", d, cfg.Workers)
	}
	if s.ProgramCompiles != turbo.PlanCacheStats().Compiles || s.ProgramCompiles < 1 {
		t.Errorf("ProgramCompiles = %d, the process has compiled %d", s.ProgramCompiles, turbo.PlanCacheStats().Compiles)
	}
	if s.Delivered != s.Accepted || s.Drops[DropDecode] != 0 {
		t.Errorf("%d of %d blocks delivered, %d refused by the decoder; want every block decoded",
			s.Delivered, s.Accepted, s.Drops[DropDecode])
	}
	if s.Process == 0 {
		t.Error("snapshot does not say which process it is from")
	}
	if st := health(); !st.Healthy {
		t.Errorf("/healthz unhealthy on a clean runtime: %s", st.Reason)
	}

	srv := httptest.NewServer(MountAdmin(rt, nil, "", HealthPolicy{}).Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		`vran_dropped_total{cell="0",cause="decode"} 0`,
		"vran_decode_compiles_total",
		`vran_decode_kernel_info{kernel="` + program.Kernel() + `"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	found := false
	for _, st := range telemetry.ServeStages() {
		if st == telemetry.StageCompile {
			found = true
		}
	}
	if !found {
		t.Error("compile stage missing from ServeStages vocabulary")
	}
}

// TestDecodeErrorDropsAsDecode: a block whose size the decoder refuses
// (K=41 is no LTE size, and nothing at the door checks it) ends as a
// decode drop with a "decode" span — not as an expired block — and the
// ledger stays conserved per runtime, cell and class. The refused batch
// decoded nothing, so it feeds no decode metric: the batch count and the
// workers' decode busy time stay where the good batches put them.
func TestDecodeErrorDropsAsDecode(t *testing.T) {
	cfg := testConfig(simd.W512)
	cfg.Tracer = telemetry.NewTracer(64, 2)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 40, 8, 5)
	for i := 0; i < pool.Len(); i++ {
		w, _ := pool.Get(i)
		if a := rt.Submit(i%cfg.Cells, i, pool.K, w); a != Admitted {
			t.Fatalf("block %d not admitted: %v", i, a)
		}
	}
	waitSettle(t, rt, 0)
	good := rt.Snapshot()
	if good.Batches == 0 || good.DecodeBusyNs <= 0 {
		t.Fatalf("%d batches, %d ns busy after %d decoded blocks", good.Batches, good.DecodeBusyNs, pool.Len())
	}
	const bad, nBad = 41, 6
	word := turbo.NewLLRWord(bad)
	for i := 0; i < nBad; i++ {
		if a := rt.Submit(i%cfg.Cells, 100+i, bad, word); a != Admitted {
			t.Fatalf("K=%d block %d refused at the door: %v", bad, i, a)
		}
	}
	waitSettle(t, rt, 0)
	s := rt.Stop()

	if s.Drops[DropDecode] != nBad || s.Drops[DropExpired] != 0 || s.Delivered != uint64(pool.Len()) {
		t.Errorf("drops %v, %d delivered; want %d decode drops and the %d good blocks delivered",
			s.DropsByCause(), s.Delivered, nBad, pool.Len())
	}
	if s.Accepted != s.Terminal() {
		t.Errorf("accepted %d, terminal %d", s.Accepted, s.Terminal())
	}
	for i, c := range s.Cells {
		if c.Accepted != c.Terminal() {
			t.Errorf("cell %d: accepted %d, terminal %d", i, c.Accepted, c.Terminal())
		}
	}
	for c, cs := range s.Classes {
		if cs.Accepted != cs.Terminal() {
			t.Errorf("class %v: accepted %d, terminal %d", Class(c), cs.Accepted, cs.Terminal())
		}
	}
	if s.Batches != good.Batches || s.DecodeBusyNs != good.DecodeBusyNs {
		t.Errorf("the refused batches moved the decode metrics: %d batches, %d ns busy, then %d, %d ns",
			good.Batches, good.DecodeBusyNs, s.Batches, s.DecodeBusyNs)
	}
	outcomes := map[string]int{}
	for _, sp := range cfg.Tracer.Recent() {
		outcomes[sp.Outcome]++
	}
	if outcomes["decode"] != nBad || outcomes["expired"] != 0 {
		t.Errorf("span outcomes %v, want %d decode", outcomes, nBad)
	}
}

// TestHealthzCountsRefusalsAsOffered: an arrival refused for backlog was
// offered, so it counts in the drop rate's denominator as well as its
// numerator. 40 of 100 eMBB arrivals refused and 60 delivered is a rate of
// 0.40, healthy under the 0.5 default.
func TestHealthzCountsRefusalsAsOffered(t *testing.T) {
	r := bareSLARuntime(2, 64, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}})
	for i := 0; i < 40; i++ {
		r.met.drop(1, ClassEMBB, DropBacklog)
	}
	for i := 0; i < 60; i++ {
		r.met.accept(1, ClassEMBB)
		r.met.deliver(1, ClassEMBB, 512, time.Millisecond)
	}
	st := r.Health(HealthPolicy{})()
	if st.DropRate < 0.3999 || st.DropRate > 0.4001 || !st.Healthy {
		t.Errorf("drop rate %.3f healthy=%v (%s), want 0.400 and healthy", st.DropRate, st.Healthy, st.Reason)
	}
}

// TestHealthzFlipsUnderOverload reuses the overload harness: a healthy
// lightly-loaded runtime must report 200, and the same expensive-K flood
// whose blocks TestDeadlineDropsUnderOverload drops must
// flip /healthz to 503 with a drop-rate reason.
func TestHealthzFlipsUnderOverload(t *testing.T) {
	// Healthy: infinite deadline, light load, everything delivered.
	cfg := testConfig(simd.W256)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 40, 8, 9)
	for i := 0; i < 8; i++ {
		w, _ := pool.Get(i)
		rt.Submit(i%cfg.Cells, i, pool.K, w)
	}
	srv := httptest.NewServer(MountAdmin(rt, nil, "", HealthPolicy{}).Handler())
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthy runtime /healthz = %d, want 200", resp.StatusCode)
	}
	srv.Close()
	rt.Stop()

	// Overloaded: one worker, tiny queue, deadline far below capacity
	// (the TestDeadlineDropsUnderOverload harness).
	cfg = testConfig(simd.W256)
	cfg.Workers = 1
	cfg.QueueDepth = 8
	cfg.Deadline = 2 * time.Millisecond
	rt, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := mustPool(t, 512, 16, 3)
	for i := 0; i < 300; i++ {
		w, _ := big.Get(i)
		rt.Submit(i%cfg.Cells, i, big.K, w)
	}
	srv = httptest.NewServer(MountAdmin(rt, nil, "", HealthPolicy{}).Handler())
	defer srv.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt.Stop()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded /healthz = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	var st telemetry.HealthStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/healthz body not JSON: %v", err)
	}
	if st.Healthy || st.Reason == "" {
		t.Errorf("unhealthy verdict malformed: %+v", st)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	return string(body)
}
