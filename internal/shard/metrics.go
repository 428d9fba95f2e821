package shard

import (
	"vransim/internal/telemetry"
)

// Families renders the coordinator's own counters in the vran_shard_*
// naming scheme — the fleet-level view layered over the per-shard
// vran_* families. Every family has a reader named in DESIGN §7.
func (c *Coordinator) Families() []telemetry.Family {
	routed := telemetry.Family{Name: "vran_shard_routed_total",
		Help: "Data frames routed to each shard.", Type: telemetry.Counter}
	sent := telemetry.Family{Name: "vran_shard_link_sent_total",
		Help: "Frames written to each shard's data link.", Type: telemetry.Counter}
	dropped := telemetry.Family{Name: "vran_shard_link_dropped_total",
		Help: "Data frames lost to injected fronthaul faults.", Type: telemetry.Counter}
	var shipDropped uint64
	for _, sh := range c.shards {
		lbl := []telemetry.Label{telemetry.L("shard", sh.name)}
		st := sh.data.Stats()
		routed.Samples = append(routed.Samples, telemetry.Sample{Labels: lbl, Value: float64(sh.routed.Load())})
		sent.Samples = append(sent.Samples, telemetry.Sample{Labels: lbl, Value: float64(st.Sent)})
		dropped.Samples = append(dropped.Samples, telemetry.Sample{Labels: lbl, Value: float64(st.Dropped)})
		shipDropped += sh.shipDropped.Load()
	}
	fams := []telemetry.Family{
		routed, sent, dropped,
		telemetry.F("vran_shard_route_errors_total", "Submissions that failed to route (bad cell or link write error).",
			telemetry.Counter, float64(c.routeErrors.Load())),
		telemetry.F("vran_shard_migrations_total", "Completed cell migrations.",
			telemetry.Counter, float64(c.migrations.Load())),
		telemetry.F("vran_shard_migrated_blocks_total", "In-flight blocks moved across shards by migrations.",
			telemetry.Counter, float64(c.migratedBlocks.Load())),
		telemetry.F("vran_shard_held_dropped_total", "Parked frames dropped when the migration hold buffer overflowed.",
			telemetry.Counter, float64(c.heldDropped.Load())),
	}
	// The fleet trace view: per-hop latency/budget attribution, trace
	// counters and the SLO burn-rate gauges.
	return append(fams, c.collector.Families(shipDropped)...)
}

// MountAdmin builds an admin server (not yet started) whose /metrics
// exposition is the fleet aggregate of every shard's vran_* families
// plus the coordinator's own vran_shard_* counters. If a shard snapshot
// RPC fails mid-scrape, the scrape degrades to coordinator counters
// only rather than erroring the whole exposition.
func (c *Coordinator) MountAdmin(addr string) *telemetry.AdminServer {
	return telemetry.NewAdmin(telemetry.AdminConfig{
		Addr: addr,
		Metrics: func() []telemetry.Family {
			fams := c.Families()
			if agg, _, err := c.FleetSnapshot(); err == nil {
				fams = append(agg.Families(), fams...)
			}
			return fams
		},
		Snapshot: func() any {
			agg, per, err := c.FleetSnapshot()
			if err != nil {
				return map[string]string{"error": err.Error()}
			}
			return map[string]any{
				"fleet":  agg,
				"shards": per,
				"hops":   c.collector.HopSummaries(),
			}
		},
		Spans: func() any {
			tr := c.collector.Tracer()
			slowest := map[string][]telemetry.Span{}
			for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
				slowest[st.Name()] = tr.Slowest(st)
			}
			return map[string]any{
				"recent":  tr.Recent(),
				"slowest": slowest,
				"hops":    c.collector.HopSummaries(),
			}
		},
	})
}
