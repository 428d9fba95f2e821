package shard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vransim/internal/ran"
)

// TestMigrateCellMidTraffic runs the full coordinator migration
// protocol while traffic keeps flowing into the moving cell: shard 0's
// CRC always fails (so cell 0's blocks cycle in the HARQ retry path —
// deterministically in flight), shard 1 decodes normally. The move must
// carry every in-flight block and soft buffer across, the fleet ledger
// must stay exact (each accepted block terminal exactly once), and the
// migrated blocks must deliver on the target.
func TestMigrateCellMidTraffic(t *testing.T) {
	const cells = 2
	pool := mustPool(t, 64, 32, 11)
	base := fleetRuntime(cells)
	f, err := NewFleet(FleetConfig{
		Coordinator: Config{Cells: cells, Deadline: 30 * time.Second},
		Runtime: func(i int) ran.Config {
			cfg := base(i)
			cfg.HARQ = ran.HARQConfig{MaxRetries: 1 << 20}
			if i == 0 {
				cfg.CheckCRC = func(*ran.Block, []byte) bool { return false }
			}
			return cfg
		},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Traffic: a generator keeps offering cell-0 blocks before, during
	// and after the migration.
	var offered atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w, _ := pool.Get(i)
			// Distinct (UE, process) per in-flight block: two live blocks
			// sharing a HARQ process would chase-combine each other's
			// words into garbage (stop-and-wait forbids that in real LTE).
			if err := f.Coord.Submit(0, i%8, (i/8)%8, pool.K, w); err != nil {
				t.Error(err)
				return
			}
			offered.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Wait until shard 0 demonstrably holds in-flight state (its CRC
	// never passes, so accepted blocks stay non-terminal).
	waitUntil := time.Now().Add(5 * time.Second)
	for {
		s, err := f.Coord.ShardSnapshot(0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Accepted >= 20 {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatalf("shard 0 never built up in-flight state (accepted %d)", s.Accepted)
		}
		time.Sleep(time.Millisecond)
	}
	if err := f.Coord.MigrateCell(0, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := f.Coord.Route(0); got != 1 {
		t.Fatalf("cell 0 routed to shard %d after migration, want 1", got)
	}
	time.Sleep(5 * time.Millisecond) // post-move traffic lands on shard 1
	close(stop)
	wg.Wait()

	agg := settle(t, f.Coord, 10*time.Second, 0)
	moved := f.Coord.migratedBlocks.Load()
	if f.Coord.migrations.Load() != 1 || moved == 0 {
		t.Fatalf("migrations=%d migratedBlocks=%d, want 1 and > 0",
			f.Coord.migrations.Load(), moved)
	}
	if f.Coord.migratedBuffers.Load() == 0 {
		t.Error("no HARQ soft buffers migrated despite blocks cycling in retry")
	}
	_ = agg

	snaps, serveErrs := f.Stop()
	for _, err := range serveErrs {
		t.Errorf("worker serve error: %v", err)
	}

	// Exact conservation: fleet-wide, every accepted block reached
	// exactly one terminal outcome — across the move, nothing was lost
	// and nothing double-counted.
	var accepted, terminal uint64
	for _, s := range snaps {
		accepted += s.Accepted
		terminal += s.Terminal()
		if b := s.Offered() - s.Accepted; b != 0 {
			t.Errorf("%d refused at the door — queues undersized, ledger not exact", b)
		}
	}
	if accepted != terminal {
		t.Errorf("fleet ledger broken: accepted %d != terminal %d", accepted, terminal)
	}
	if accepted > offered.Load() {
		t.Errorf("accepted %d exceeds offered %d", accepted, offered.Load())
	}
	// Zero in-flight loss: everything the drain captured delivered on
	// the target (its CRC passes and the deadline is generous). The
	// source delivered nothing — its CRC never passed.
	if snaps[0].Delivered != 0 {
		t.Errorf("source delivered %d blocks with an always-fail CRC", snaps[0].Delivered)
	}
	if snaps[1].Cells[0].Delivered < moved {
		t.Errorf("target delivered %d cell-0 blocks, want ≥ %d migrated",
			snaps[1].Cells[0].Delivered, moved)
	}
	if snaps[0].HARQBuffers != 0 || snaps[1].HARQBuffers != 0 {
		t.Errorf("soft buffers leaked: src %d dst %d", snaps[0].HARQBuffers, snaps[1].HARQBuffers)
	}
	// The frames parked during the handshake reached the new owner.
	if f.Coord.heldDropped.Load() != 0 {
		t.Errorf("%d held frames dropped during the handshake", f.Coord.heldDropped.Load())
	}
}

// TestMigrateValidation: bad arguments and no-op moves.
func TestMigrateValidation(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Coordinator: Config{Cells: 2, Deadline: time.Second},
		Runtime:     fleetRuntime(2),
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if err := f.Coord.MigrateCell(7, 1, time.Second); err == nil {
		t.Error("unknown cell accepted")
	}
	if err := f.Coord.MigrateCell(0, 9, time.Second); err == nil {
		t.Error("unknown shard accepted")
	}
	if err := f.Coord.MigrateCell(0, 0, time.Second); err != nil {
		t.Errorf("same-shard move should be a no-op, got %v", err)
	}
	if f.Coord.migrations.Load() != 0 {
		t.Error("no-op move counted as a migration")
	}
}

// TestRebalanceMovesSkewedCell: sustained backlog skew makes the
// rebalancer migrate the hot cell to the idle shard, after which the
// blocks (undecodable on shard 0) deliver on shard 1.
func TestRebalanceMovesSkewedCell(t *testing.T) {
	const cells = 2
	pool := mustPool(t, 64, 32, 17)
	base := fleetRuntime(cells)
	f, err := NewFleet(FleetConfig{
		Coordinator: Config{
			Cells:    cells,
			Deadline: 30 * time.Second,
			Rebalance: RebalanceConfig{
				Every: 2 * time.Millisecond, Skew: 8, Streak: 2,
				// Long cooldown: once moved, cell 0 stays put while the
				// target works the backlog down.
				Cooldown:     30 * time.Second,
				DrainTimeout: 5 * time.Second,
			},
		},
		Runtime: func(i int) ran.Config {
			cfg := base(i)
			cfg.HARQ = ran.HARQConfig{MaxRetries: 1 << 20}
			if i == 0 {
				cfg.CheckCRC = func(*ran.Block, []byte) bool { return false }
			}
			return cfg
		},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		// All 64 blocks are concurrently live on the always-fail shard, so
		// each needs its own (UE, process) — 8 UEs × 8 HARQ processes.
		if err := f.Coord.Submit(0, i%8, (i/8)%8, pool.K, w); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.Coord.Route(0) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("rebalancer never moved cell 0 (moves=%d)", f.Coord.rebalMoves.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if f.Coord.rebalMoves.Load() == 0 {
		t.Error("route flipped without a recorded rebalance move")
	}
	settle(t, f.Coord, 10*time.Second, n)
	snaps, _ := f.Stop()
	var accepted, terminal uint64
	for _, s := range snaps {
		accepted += s.Accepted
		terminal += s.Terminal()
	}
	if accepted != terminal {
		t.Errorf("fleet ledger broken after rebalance: accepted %d != terminal %d", accepted, terminal)
	}
	if snaps[1].Cells[0].Delivered == 0 {
		t.Error("no cell-0 deliveries on the shard the rebalancer moved it to")
	}
}
