package ran

import (
	"testing"
	"time"

	"vransim/internal/simd"
)

// migrateConfig builds a runtime whose CRC check always fails, so every
// submitted block keeps cycling through the HARQ retry path — a
// deterministic way to hold blocks in flight while a drain runs.
func migrateConfig(pass bool) Config {
	cfg := testConfig(simd.W256)
	cfg.HARQ = HARQConfig{MaxRetries: 1 << 20}
	if !pass {
		cfg.CheckCRC = func(*Block, []byte) bool { return false }
	}
	return cfg
}

// TestDrainCellCapturesInflight: a drain pulls every non-terminal block
// of the cell out of the runtime, un-accepts them, exports the HARQ
// soft state, and leaves the cell sealed; the other cell is untouched.
func TestDrainCellCapturesInflight(t *testing.T) {
	rt, err := New(migrateConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	pool := mustPool(t, 40, 16, 3)
	const n0, n1 = 10, 4
	for i := 0; i < n0; i++ {
		w, _ := pool.Get(i)
		if rt.SubmitProcess(0, i, 0, pool.K, w) != Admitted {
			t.Fatal("submit to cell 0 rejected")
		}
	}
	for i := 0; i < n1; i++ {
		w, _ := pool.Get(n0 + i)
		if rt.SubmitProcess(1, i, 0, pool.K, w) != Admitted {
			t.Fatal("submit to cell 1 rejected")
		}
	}
	// Let the blocks cycle through a few failed decodes.
	time.Sleep(5 * time.Millisecond)

	st, err := rt.DrainCell(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Blocks) != n0 {
		t.Fatalf("drained %d blocks, want %d", len(st.Blocks), n0)
	}
	s := rt.Snapshot()
	if s.Cells[0].Accepted != 0 {
		t.Errorf("cell 0 accepted = %d after un-accept, want 0", s.Cells[0].Accepted)
	}
	if s.Cells[1].Accepted != n1 {
		t.Errorf("cell 1 accepted = %d, want %d", s.Cells[1].Accepted, n1)
	}
	if !rt.Sealed(0) {
		t.Error("drained cell is not sealed")
	}
	w, _ := pool.Get(0)
	if got := rt.Submit(0, 0, pool.K, w); got != RejectedSealed {
		t.Errorf("submit to sealed cell = %v, want RejectedSealed", got)
	}
	// Every block that failed at least once carries a soft buffer whose
	// attempt count is Attempt+1 (the first failure folds the initial
	// reception and the regenerated retransmission: two combines).
	bufs := map[[2]int]int{}
	for _, b := range st.Buffers {
		bufs[[2]int{b.UE, b.Proc}] = b.Attempts
	}
	for _, b := range st.Blocks {
		if b.Word == nil || b.Tx == nil {
			t.Fatal("migrated block lost its words")
		}
		if b.Attempt == 0 {
			continue
		}
		if got := bufs[[2]int{b.UE, b.Proc}]; got != b.Attempt+1 {
			t.Errorf("UE %d soft attempts = %d, want %d", b.UE, got, b.Attempt+1)
		}
	}
	if rt.harq.Len() > n1 {
		t.Errorf("source still holds %d soft buffers after export (cell 1 may own ≤ %d)", rt.harq.Len(), n1)
	}
}

// TestMigrateConservation: a cell moves between two live runtimes; the
// fleet ledger stays exact (each block accepted once, terminal once)
// and zero HARQ processes are lost — the blocks recover on the target.
func TestMigrateConservation(t *testing.T) {
	src, err := New(migrateConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(migrateConfig(true)) // CRC passes on the target
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 40, 16, 7)
	const n = 12
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		if src.SubmitProcess(0, i, 0, pool.K, w) != Admitted {
			t.Fatal("submit rejected")
		}
	}
	time.Sleep(4 * time.Millisecond)

	st, err := src.DrainCell(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := dst.ImportCell(st)
	if err != nil {
		t.Fatal(err)
	}
	if moved != len(st.Blocks) {
		t.Fatalf("imported %d of %d blocks", moved, len(st.Blocks))
	}

	// The target decodes them (its CRC passes); wait for the cell to
	// settle terminally.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := dst.Snapshot()
		c := s.Cells[0]
		if c.Accepted > 0 && c.Terminal() >= c.Accepted && s.RetryDepth == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ss, ds := src.Stop(), dst.Stop()

	// Fleet conservation: n submissions were accepted exactly once
	// fleet-wide, and every one reached exactly one terminal outcome.
	fleetAccepted := ss.Cells[0].Accepted + ds.Cells[0].Accepted
	fleetTerminal := ss.Cells[0].Delivered + ss.Cells[0].Dropped() +
		ds.Cells[0].Delivered + ds.Cells[0].Dropped()
	if fleetAccepted != n {
		t.Errorf("fleet accepted = %d, want %d", fleetAccepted, n)
	}
	if fleetTerminal != n {
		t.Errorf("fleet terminal = %d, want %d", fleetTerminal, n)
	}
	// Zero HARQ loss: every migrated block delivered on the target (its
	// CRC passes and deadlines are generous), and retried blocks count
	// as HARQ recoveries there.
	if ds.Cells[0].Delivered != uint64(len(st.Blocks)) {
		t.Errorf("target delivered %d, want %d", ds.Cells[0].Delivered, len(st.Blocks))
	}
	if ds.HARQBuffers != 0 {
		t.Errorf("target still holds %d soft buffers after settle", ds.HARQBuffers)
	}
}

// TestDrainTimeoutAborts: an impossible drain deadline aborts cleanly —
// the cell unseals, its blocks re-enter the decode path, and accounting
// stays conserved through Stop. Waiting blocks move to the migration
// queue the moment a drain starts, so the cell is kept busy by holding
// one of its blocks inside a worker's CRC check until the drain is over.
func TestDrainTimeoutAborts(t *testing.T) {
	cfg := migrateConfig(false)
	inCRC, release := make(chan struct{}, 1), make(chan struct{})
	cfg.CheckCRC = func(*Block, []byte) bool {
		select {
		case inCRC <- struct{}{}:
			<-release
		default:
		}
		return false
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 40, 8, 9)
	const n = 6
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		rt.SubmitProcess(0, i, 0, pool.K, w)
	}
	<-inCRC
	_, err = rt.DrainCell(0, 0)
	close(release)
	if err == nil {
		t.Fatal("zero-timeout drain of a busy cell succeeded")
	}
	if rt.Sealed(0) {
		t.Error("cell still sealed after aborted drain")
	}
	s := rt.Stop()
	c := s.Cells[0]
	if c.Accepted != n || c.Terminal() != n {
		t.Errorf("conservation broken after abort: accepted %d, terminal %d, want %d",
			c.Accepted, c.Terminal(), n)
	}
}

// TestImportBacklogOverflow: a target whose cell queue cannot hold the
// migrated blocks refuses the excess at the door, as backlog drops —
// offered counts every block, terminal equals accepted, nothing vanishes.
func TestImportBacklogOverflow(t *testing.T) {
	cfg := migrateConfig(true)
	cfg.QueueDepth = 4
	cfg.Workers = 1
	dst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 40, 16, 5)
	st := &CellState{Cell: 0}
	for i := 0; i < 12; i++ {
		w, _ := pool.Get(i)
		st.Blocks = append(st.Blocks, MigratedBlock{UE: i, K: pool.K, Word: w, Tx: w})
	}
	moved, err := dst.ImportCell(st)
	if err != nil {
		t.Fatal(err)
	}
	if moved >= 12 {
		t.Fatalf("moved = %d, want < 12 with queue depth 4", moved)
	}
	s := dst.Stop()
	c := s.Cells[0]
	if c.Accepted != uint64(moved) || c.Offered() != 12 {
		t.Errorf("accepted %d, offered %d; want %d and 12", c.Accepted, c.Offered(), moved)
	}
	if c.Terminal() != c.Accepted {
		t.Errorf("terminal %d != accepted %d", c.Terminal(), c.Accepted)
	}
	if c.Drops[DropBacklog] != uint64(12-moved) {
		t.Errorf("backlog drops %d, want %d for the overflow", c.Drops[DropBacklog], 12-moved)
	}
}
