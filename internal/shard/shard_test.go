package shard

import (
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/ran"
	"vransim/internal/simd"
)

// fleetRuntime is the shard-test runtime shape: fleet-global cell
// count, generous deadline (the tests are about routing and state
// movement, not the clock), content-based CRC so verdicts survive the
// fronthaul serialization boundary.
func fleetRuntime(cells int) func(int) ran.Config {
	return func(int) ran.Config {
		cfg := ran.DefaultConfig(simd.W256, core.StrategyAPCM)
		cfg.Cells = cells
		cfg.Workers = 2
		// Deep enough that the soak never overflows a cell queue, even
		// under -race — keeps DropBacklog out of the ledger, so the
		// conservation assertions can demand exact equality.
		cfg.QueueDepth = 1024
		cfg.Deadline = 30 * time.Second
		cfg.CheckCRC = ran.CRC24B
		return cfg
	}
}

func mustPool(t *testing.T, k, n int, seed int64) *ran.WordPool {
	t.Helper()
	p, err := ran.NewWordPool(k, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// settle polls the fleet until at least minAccepted blocks are
// accepted, every accepted block is terminal, the retry queues are
// empty, and the picture holds still across several consecutive polls —
// the stability requirement covers frames still draining out of the
// pipe buffers and blocks transiting the migration handshake (which are
// momentarily un-accepted everywhere).
func settle(t *testing.T, c *Coordinator, maxWait time.Duration, minAccepted uint64) *ran.Snapshot {
	t.Helper()
	deadline := time.Now().Add(maxWait)
	stable := 0
	var last uint64
	for {
		agg, _, err := c.FleetSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		term := agg.Terminal()
		if term >= agg.Accepted && agg.RetryDepth == 0 && agg.Accepted >= minAccepted {
			if agg.Accepted == last {
				stable++
				if stable >= 5 {
					return agg
				}
			} else {
				stable = 0
			}
			last = agg.Accepted
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			_, per, _ := c.FleetSnapshot()
			for i, s := range per {
				if s == nil {
					continue
				}
				t.Logf("shard %d: accepted %d delivered %d drops %v retry %d harqbuf %d", i,
					s.Accepted, s.Delivered, s.DropsByCause(), s.RetryDepth, s.HARQBuffers)
				for cl, cs := range s.Cells {
					if cs.Accepted+cs.Delivered != 0 || cs.QueueDepth != 0 {
						t.Logf("  cell %d: accepted %d delivered %d queue %d", cl, cs.Accepted, cs.Delivered, cs.QueueDepth)
					}
				}
			}
			t.Fatalf("fleet did not settle: accepted %d (want ≥ %d), terminal %d, retry %d",
				agg.Accepted, minAccepted, term, agg.RetryDepth)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetRoutesAndAggregates: blocks submitted through the
// coordinator land on the shard owning their cell, and the aggregated
// snapshot's families sum exactly to the per-shard values.
func TestFleetRoutesAndAggregates(t *testing.T) {
	const cells, n = 4, 48
	pool := mustPool(t, 64, 32, 1)
	f, err := NewFleet(FleetConfig{
		Coordinator: Config{Cells: cells, Deadline: 30 * time.Second},
		Runtime:     fleetRuntime(cells),
		Shards:      2,
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
	agg := settle(t, f.Coord, 10*time.Second, n)
	if agg.Accepted != n || agg.Delivered != n {
		t.Errorf("aggregate accepted/delivered = %d/%d, want %d/%d", agg.Accepted, agg.Delivered, n, n)
	}

	// The aggregate equals the per-shard sum, counter by counter.
	_, per, err := f.Coord.FleetSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var accepted, delivered, dropped uint64
	for _, s := range per {
		accepted += s.Accepted
		delivered += s.Delivered
		dropped += s.Dropped()
	}
	if agg2 := ran.Merge(per); agg2.Accepted != accepted || agg2.Delivered != delivered || agg2.Dropped() != dropped {
		t.Errorf("aggregate %d/%d/%d != per-shard sums %d/%d/%d",
			agg2.Accepted, agg2.Delivered, agg2.Dropped(), accepted, delivered, dropped)
	}
	// Each shard decoded only its routed cells.
	for i, s := range per {
		for cell := 0; cell < cells; cell++ {
			if f.Coord.Route(cell) != i && s.Cells[cell].Accepted != 0 {
				t.Errorf("shard %d accepted %d blocks of cell %d it does not own",
					i, s.Cells[cell].Accepted, cell)
			}
		}
	}

	// The coordinator /metrics exposition carries both the aggregated
	// vran_* families and the vran_shard_* overlay.
	srv := httptest.NewServer(f.Coord.MountAdmin("127.0.0.1:0").Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"vran_accepted_total", "vran_delivered_total",
		"vran_shard_routed_total", "vran_shard_migrations_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing family %s", want)
		}
	}

	snaps, serveErrs := f.Stop()
	for _, err := range serveErrs {
		t.Errorf("worker serve error: %v", err)
	}
	var routed uint64
	for i := range snaps {
		routed += f.Coord.shards[i].routed.Load()
	}
	if routed != n {
		t.Errorf("routed %d frames, want %d", routed, n)
	}
}

// TestAggregateGauges: the fleet fold sums the raw counters and derives
// every ratio from the sums — not from the shards' own ratios — with max
// for the levels and the compile pair counted once a process.
func TestAggregateGauges(t *testing.T) {
	a := &ran.Snapshot{Elapsed: 2 * time.Second, Workers: 1, Process: 7,
		Cells:         []ran.CellSnapshot{{Bits: 1e6}},
		DeliveredBits: 1e6, Batches: 10, LaneSlotsUsed: 40, LaneSlotsTotal: 40,
		DecodedBlocks: 10, DecodeBusyNs: 40e3, ProgramHits: 8, ProgramMisses: 2,
		ProgramCompiles: 3, DegradeLevel: 1}
	b := &ran.Snapshot{Elapsed: time.Second, Workers: 3, Process: 7,
		Cells:         []ran.CellSnapshot{{Bits: 2e6}, {Bits: 1e6}},
		DeliveredBits: 3e6, Batches: 30, LaneSlotsUsed: 60, LaneSlotsTotal: 120,
		DecodedBlocks: 30, DecodeBusyNs: 240e3,
		ProgramMisses: 10, ProgramCompiles: 3, ShedLevel: 2}
	agg := ran.Merge([]*ran.Snapshot{a, nil, b})
	if agg.Elapsed != 2*time.Second || agg.Workers != 4 {
		t.Errorf("elapsed %v workers %d, want the max 2s and the sum 4", agg.Elapsed, agg.Workers)
	}
	if got, want := agg.LaneOccupancy, 100.0/160; got != want {
		t.Errorf("lane occupancy %v, want Σused/Σtotal = %v", got, want)
	}
	if got, want := agg.AvgDecodeUs, 280e3/1e3/40; got != want {
		t.Errorf("decode cost %v, want Σbusy/Σblocks = %v µs", got, want)
	}
	// Unequal worker counts: the mean of the shard values (2e-5 and 8e-5)
	// would read 5e-5.
	if got, want := agg.WorkerUtilization, 280e3/(4*2e9); got != want {
		t.Errorf("utilization %v, want Σbusy/(Σworkers·elapsed) = %v", got, want)
	}
	if got, want := agg.CompiledRatio, 8.0/20.0; got != want {
		t.Errorf("compiled ratio %v, want %v", got, want)
	}
	if got, want := agg.GoodputMbps, 4e6/2e6; got != want {
		t.Errorf("goodput %v Mbps, want Σbits/elapsed = %v", got, want)
	}
	if len(agg.Cells) != 2 || agg.Cells[0].Mbps != 1.5 || agg.Cells[1].Mbps != 0.5 {
		t.Errorf("cell rows %+v, want bits summed per cell over the fleet elapsed", agg.Cells)
	}
	if agg.ProgramCompiles != 3 {
		t.Errorf("compiles %d, want 3: one process, counted once", agg.ProgramCompiles)
	}
	if agg.DegradeLevel != 1 || agg.ShedLevel != 2 {
		t.Errorf("max folds: degrade %d shed %d", agg.DegradeLevel, agg.ShedLevel)
	}
	if empty := ran.Merge(nil); empty.LaneOccupancy != 0 || empty.GoodputMbps != 0 {
		t.Errorf("empty aggregate occupancy %v goodput %v, want 0", empty.LaneOccupancy, empty.GoodputMbps)
	}
}
