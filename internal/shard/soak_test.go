package shard

import (
	"strconv"
	"testing"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/ran"
	"vransim/internal/turbo"
)

// TestShardChaosSoak drives a two-shard fleet through link-level chaos
// (dropped, reordered and partition-windowed fronthaul frames) plus the
// runtime's own CRC/corruption faults, with a forced cell migration
// mid-run, and asserts the distributed acceptance criteria:
//
//   - exact conservation: fleet-wide, every accepted block reaches
//     exactly one terminal outcome — U-plane loss costs delivery, never
//     ledger integrity;
//   - recovery: ≥95 % of CRC-affected blocks come back via HARQ;
//   - the link fault sites actually fired;
//   - the migration lost zero captured blocks or soft buffers.
//
// Three fixed seeds, meant to run under -race.
func TestShardChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			shardSoak(t, seed)
		})
	}
}

func shardSoak(t *testing.T, seed int64) {
	const (
		cells  = 4
		shards = 2
		ttis   = 200
		perTTI = 8.0 // mean blocks across all cells per TTI
	)
	pool := mustPool(t, 64, 64, seed)
	base := fleetRuntime(cells)

	// One injector per shard link (deterministic per seed) and one per
	// runtime; the link injectors own the fronthaul sites, the runtime
	// injectors the decode-path sites.
	linkInj := make([]*chaos.Injector, shards)
	for i := range linkInj {
		linkInj[i] = chaos.New(chaos.Config{
			Seed:          seed*100 + int64(i),
			LinkDropRate:  0.02,
			LinkDelayRate: 0.05,
			LinkPartRate:  0.002,
			LinkPartFor:   500 * time.Microsecond,
		})
	}
	f, err := NewFleet(FleetConfig{
		// Full-rate tracing under chaos: the span backchannel must never
		// perturb the ledger, and every surviving span must merge cleanly.
		Coordinator: Config{Cells: cells, Deadline: 30 * time.Second,
			Trace: TraceConfig{Sample: 1}},
		Runtime: func(i int) ran.Config {
			cfg := base(i)
			cfg.Chaos = chaos.New(chaos.Config{
				Seed:        seed*1000 + int64(i),
				CRCRate:     0.10,
				CorruptRate: 0.05,
				CorruptAmp:  16,
			})
			return cfg
		},
		Shards:    shards,
		LinkChaos: func(i int) *chaos.Injector { return linkInj[i] },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Per cell, blocks cycle all 64 (UE, process) pairs, so concurrently
	// live blocks never share a HARQ soft buffer. Mid-soak, between the
	// two halves of the schedule, a live cell moves to the other shard.
	sched := ran.NewSchedule(ran.LoadConfig{
		Cells: ran.Uniform(cells, ran.Source{Mean: perTTI / cells}),
		UEs:   8, TTI: 50 * time.Microsecond, TTIs: ttis, Seed: seed,
	})
	submit := func(cell, ue, proc, k int, w *turbo.LLRWord) error {
		if err := f.Coord.Submit(cell, ue, proc, k, w); err != nil {
			t.Fatal(err)
		}
		return nil
	}
	offered := uint64(ran.OfferLoad(sched, 0, ttis/2+1, pool, submit).Offered)
	from := f.Coord.Route(0)
	if err := f.Coord.MigrateCell(0, 1-from); err != nil {
		t.Fatalf("mid-soak migration: %v", err)
	}
	offered += uint64(ran.OfferLoad(sched, ttis/2+1, ttis, pool, submit).Offered)
	// Release any reorder-held frames before settling the ledger.
	f.Coord.Stop()

	agg := settle(t, f.Coord, 30*time.Second, 0)
	snaps, serveErrs := f.Stop()
	for _, err := range serveErrs {
		t.Errorf("worker serve error: %v", err)
	}

	// -- conservation --------------------------------------------------
	var accepted, terminal, backlog, buffers, linkDropped, linkSent uint64
	for _, s := range snaps {
		accepted += s.Accepted
		terminal += s.Terminal()
		backlog += s.Offered() - s.Accepted
		buffers += uint64(s.HARQBuffers)
	}
	for _, sh := range f.Coord.shards {
		st := sh.data.Stats()
		linkDropped += st.Dropped
		linkSent += st.Sent
	}
	// The queues are sized so nothing overflows — every accepted block
	// must reach exactly one post-admission terminal outcome.
	if backlog != 0 {
		t.Errorf("%d refused at the door — queues undersized, ledger not exact", backlog)
	}
	if accepted != terminal {
		t.Errorf("fleet ledger broken: accepted %d != terminal %d", accepted, terminal)
	}
	if accepted+linkDropped > offered {
		t.Errorf("accepted %d + link-dropped %d exceeds offered %d — a frame was double-counted",
			accepted, linkDropped, offered)
	}
	if agg.RetryDepth != 0 || buffers != 0 {
		t.Errorf("residual state: retry %d at settle, %d soft buffers after stop", agg.RetryDepth, buffers)
	}
	if f.Coord.migrations.Load() != 1 {
		t.Errorf("migrations = %d, want 1", f.Coord.migrations.Load())
	}

	// -- recovery ------------------------------------------------------
	affected := agg.HARQRecovered + agg.Drops[ran.DropHARQ] + agg.Drops[ran.DropShutdown]
	if affected == 0 {
		t.Fatal("soak injected no CRC faults")
	}
	recovery := float64(agg.HARQRecovered) / float64(affected)
	t.Logf("seed %d: offered %d, accepted %d, delivered %d; link sent %d dropped %d; "+
		"migrated %d blocks + %d buffers; recovery %.1f%% of %d affected",
		seed, offered, accepted, agg.Delivered, linkSent, linkDropped,
		f.Coord.migratedBlocks.Load(), f.Coord.migratedBuffers.Load(), 100*recovery, affected)
	if recovery < 0.95 {
		t.Errorf("HARQ recovery %.1f%% below the 95%% acceptance bar", 100*recovery)
	}

	// -- tracing under chaos -------------------------------------------
	col := f.Coord.Collector()
	if col.SpanCount() == 0 {
		t.Error("full-rate tracing merged no spans through the chaos soak")
	}
	if col.badReports.Load() != 0 {
		t.Errorf("%d span reports failed to parse under chaos", col.badReports.Load())
	}
	// Spans ship only for blocks that reached a shard; the count can
	// never exceed accepted plus the migration span.
	if col.SpanCount() > accepted+1 {
		t.Errorf("collector merged %d spans for %d accepted blocks", col.SpanCount(), accepted)
	}

	// -- link fault sites fired ----------------------------------------
	fired := map[string]uint64{}
	for _, inj := range linkInj {
		for _, c := range inj.Counters() {
			fired[c.Site] += c.Trials
		}
	}
	for _, site := range []chaos.Site{chaos.SiteLinkDrop, chaos.SiteLinkDelay, chaos.SiteLinkPart} {
		if fired[site.String()] == 0 {
			t.Errorf("link site %s never consulted", site)
		}
	}
	if linkDropped == 0 {
		t.Error("no frames lost under 2% drop chaos")
	}
}
