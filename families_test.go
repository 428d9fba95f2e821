package vransim_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/core"
	"vransim/internal/ran"
	"vransim/internal/shard"
	"vransim/internal/simd"
	"vransim/internal/telemetry"
)

// servingFamilies is what a runtime's snapshot exposes on both expositions:
// vranserve's own, and the coordinator's fold of its shards.
var servingFamilies = []string{
	"vran_accepted_total", "vran_delivered_total", "vran_dropped_total", "vran_queue_depth",
	"vran_goodput_mbps", "vran_batches_total", "vran_lane_occupancy", "vran_decode_iters",
	"vran_worker_utilization", "vran_decode_compiles_total",
	"vran_crc_failures_total", "vran_harq_retries_total", "vran_harq_recovered_total",
	"vran_harq_evictions_total", "vran_latency_seconds",
	"vran_class_accepted_total", "vran_class_delivered_total", "vran_class_dropped_total",
	"vran_class_latency_seconds", "vran_class_steals_total", "vran_class_shed_level",
}

// runtimeFamilies is the rest of a vranserve scrape with -class and
// -chaos: the per-process kernel gauge, the tracer's stages and the
// injector's fires.
var runtimeFamilies = []string{
	"vran_decode_kernel_info", "vran_stage_latency_seconds", "vran_chaos_injected_total",
}

// coordFamilies is the coordinator's own overlay: routing, links,
// migrations, the fleet trace view and the SLO.
var coordFamilies = []string{
	"vran_shard_routed_total", "vran_shard_link_sent_total", "vran_shard_link_dropped_total",
	"vran_shard_route_errors_total", "vran_shard_migrations_total",
	"vran_shard_migrated_blocks_total", "vran_shard_held_dropped_total",
	"vran_hop_seconds", "vran_hop_budget_fraction", "vran_trace_spans_total",
	"vran_trace_bad_reports_total", "vran_trace_ship_dropped_total",
	"vran_slo_burn_rate", "vran_slo_budget_remaining",
}

// TestExposedFamiliesHaveConsumers pins the family names of the two
// serving expositions — a runtime with SLA classes, tracing and chaos
// armed, as vranserve mounts it, and a two-shard fleet's coordinator —
// and holds DESIGN.md §7's family → reader table to exactly that set: a
// family cannot ship without a row naming what reads it, and a row
// cannot outlive its family.
func TestExposedFamiliesHaveConsumers(t *testing.T) {
	cfg := ran.DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells, cfg.Workers = 2, 1
	cfg.SLA = ran.SLAConfig{Classes: []ran.Class{ran.ClassURLLC, ran.ClassEMBB}}
	cfg.Tracer = telemetry.NewTracer(16, 2)
	inj := chaos.New(chaos.Config{Seed: 1})
	cfg.Chaos = inj
	rt, err := ran.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	got := scrapeFamilies(t, ran.MountAdmin(rt, cfg.Tracer, "", ran.HealthPolicy{}, inj.Families).Handler())
	checkFamilies(t, "vranserve", got, append(append([]string(nil), servingFamilies...), runtimeFamilies...))

	f, err := shard.NewFleet(shard.FleetConfig{
		Coordinator: shard.Config{Cells: 2, Deadline: time.Second},
		Shards:      2,
		Runtime: func(int) ran.Config {
			c := ran.DefaultConfig(simd.W512, core.StrategyAPCM)
			c.Cells, c.Workers = 2, 1
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	got = scrapeFamilies(t, f.Coord.MountAdmin("").Handler())
	checkFamilies(t, "vrancoord", got, append(append([]string(nil), servingFamilies...), coordFamilies...))

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(design)
	if i := strings.Index(sec, "\n## 7."); i >= 0 {
		sec = sec[i:]
	}
	if i := strings.Index(sec, "\n## 8."); i >= 0 {
		sec = sec[:i]
	}
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(vran_[a-z0-9_]+)` \\|").FindAllStringSubmatch(sec, -1) {
		rows = append(rows, m[1])
	}
	checkFamilies(t, "DESIGN §7 table", rows,
		append(append(append([]string(nil), servingFamilies...), runtimeFamilies...), coordFamilies...))
}

// scrapeFamilies GETs /metrics from h and returns the family names its
// # TYPE lines declare, in order.
func scrapeFamilies(t *testing.T, h http.Handler) []string {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}

// checkFamilies reports the difference between the got and want name sets,
// and any name got lists twice.
func checkFamilies(t *testing.T, what string, got, want []string) {
	t.Helper()
	seen := map[string]bool{}
	for _, n := range got {
		if seen[n] {
			t.Errorf("%s: %s listed twice", what, n)
		}
		seen[n] = true
	}
	var extra, missing []string
	for _, n := range want {
		if !seen[n] {
			missing = append(missing, n)
		}
		delete(seen, n)
	}
	for n := range seen {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	if len(extra) > 0 || len(missing) > 0 {
		t.Errorf("%s: %d families; not in the list: %v; missing: %v", what, len(got), extra, missing)
	}
}
