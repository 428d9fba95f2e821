package ran

import (
	"testing"
	"time"

	"vransim/internal/simd"
)

// conserve asserts the block-accounting invariant every terminal path
// must preserve: every accepted block ended (Ledger.Terminal), with
// nothing left in a queue or soft buffer.
func conserve(t *testing.T, s *Snapshot, harqLen int) {
	t.Helper()
	if s.Accepted != s.Terminal() {
		t.Errorf("accounting leak: accepted %d != terminal %d (delivered %d, drops %v)",
			s.Accepted, s.Terminal(), s.Delivered, s.DropsByCause())
	}
	for i, c := range s.Cells {
		if c.QueueDepth != 0 {
			t.Errorf("cell %d queue depth %d after stop", i, c.QueueDepth)
		}
	}
	if s.RetryDepth != 0 {
		t.Errorf("retry queue depth %d after stop", s.RetryDepth)
	}
	if harqLen != 0 {
		t.Errorf("%d live HARQ buffers after stop", harqLen)
	}
}

// TestHARQRecoversFirstFailure: every block fails its first CRC check
// and passes on the retry — all blocks must be delivered via the
// combined retransmission, every delivery counted as a HARQ recovery.
func TestHARQRecoversFirstFailure(t *testing.T) {
	const k, n = 40, 64
	cfg := testConfig(simd.W512)
	cfg.CheckCRC = func(b *Block, bits []byte) bool { return b.Attempt > 0 }
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, k, 16, 3)
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		if rt.SubmitProcess(i%cfg.Cells, i, i, k, w) != Admitted {
			t.Fatalf("submit %d rejected", i)
		}
	}
	waitSettle(t, rt, n)
	s := rt.Stop()
	if s.Delivered != n {
		t.Errorf("delivered %d of %d (%v)", s.Delivered, n, s.DropsByCause())
	}
	if s.HARQRecovered != n {
		t.Errorf("HARQ recovered %d, want %d", s.HARQRecovered, n)
	}
	if s.HARQRetries != n || s.CRCFailures != n {
		t.Errorf("retries/crcFailures = %d/%d, want %d/%d", s.HARQRetries, s.CRCFailures, n, n)
	}
	if s.HARQCombines == 0 {
		t.Error("no combines recorded on the recovery path")
	}
	conserve(t, s, s.HARQBuffers)
}

// TestHARQExhaustsBudget: a CRC that never passes must terminate every
// block as a DropHARQ after exactly MaxRetries retransmissions — never
// deliver, never lose.
func TestHARQExhaustsBudget(t *testing.T) {
	const k, n = 40, 32
	cfg := testConfig(simd.W512)
	cfg.HARQ.MaxRetries = 2
	cfg.CheckCRC = func(*Block, []byte) bool { return false }
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, k, 16, 4)
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		if rt.SubmitProcess(i%cfg.Cells, i, i, k, w) != Admitted {
			t.Fatalf("submit %d rejected", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := rt.Snapshot(); s.Drops[DropHARQ] == n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := rt.Stop()
	if s.Delivered != 0 {
		t.Errorf("delivered %d blocks that can never pass CRC", s.Delivered)
	}
	if s.Drops[DropHARQ] != n {
		t.Errorf("harq drops = %d, want %d (%v)", s.Drops[DropHARQ], n, s.DropsByCause())
	}
	// Each block: 1 first attempt + MaxRetries retries, all CRC-failed.
	want := uint64(n * (1 + cfg.HARQ.MaxRetries))
	if s.CRCFailures != want {
		t.Errorf("crc failures = %d, want %d", s.CRCFailures, want)
	}
	if s.HARQRetries != uint64(n*cfg.HARQ.MaxRetries) {
		t.Errorf("retries = %d, want %d", s.HARQRetries, n*cfg.HARQ.MaxRetries)
	}
	conserve(t, s, s.HARQBuffers)
}

// TestHARQDisabled: MaxRetries=0 turns CRC failures into immediate
// terminal drops — no retries, no soft buffers.
func TestHARQDisabled(t *testing.T) {
	const k, n = 40, 16
	cfg := testConfig(simd.W512)
	cfg.HARQ.MaxRetries = 0
	cfg.CheckCRC = func(*Block, []byte) bool { return false }
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, k, 8, 5)
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		rt.Submit(0, i, k, w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := rt.Snapshot(); s.Drops[DropHARQ] == n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := rt.Stop()
	if s.Drops[DropHARQ] != n || s.HARQRetries != 0 || s.HARQCombines != 0 {
		t.Errorf("disabled path: drops=%d retries=%d combines=%d, want %d/0/0",
			s.Drops[DropHARQ], s.HARQRetries, s.HARQCombines, n)
	}
	conserve(t, s, s.HARQBuffers)
}

// TestStopFlushesInflightRetries is the regression test for the
// Stop-vs-retry race: a burst of always-failing blocks is submitted and
// Stop is called immediately, so workers requeue retries while the
// runtime is tearing down. Every accepted block must end as a delivery
// or a counted drop — the seed behavior silently lost retries that were
// requeued after its dispatcher goroutine's final sweep.
func TestStopFlushesInflightRetries(t *testing.T) {
	const k = 40
	for round := 0; round < 5; round++ {
		cfg := testConfig(simd.W512)
		cfg.CheckCRC = func(*Block, []byte) bool { return false }
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool := mustPool(t, k, 16, int64(round))
		const n = 128
		for i := 0; i < n; i++ {
			w, _ := pool.Get(i)
			rt.SubmitProcess(i%cfg.Cells, i, i, k, w)
		}
		// Stop while retries are in flight: whatever was still requeued
		// must surface as shutdown drops (possibly zero when the workers
		// happened to finish every retry first), never vanish.
		s := rt.Stop()
		conserve(t, s, s.HARQBuffers)
	}
}

// TestHARQKMismatchRejected: a process whose buffer holds K1 receiving a
// K2 retry is rejected as a DropHARQ without corrupting the buffer. The
// scenario is forced by submitting two block sizes onto the same
// process id with a CRC that always fails.
func TestHARQKMismatchRejected(t *testing.T) {
	cfg := testConfig(simd.W512)
	cfg.CheckCRC = func(*Block, []byte) bool { return false }
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p40 := mustPool(t, 40, 4, 6)
	p104 := mustPool(t, 104, 4, 7)
	// Same (cell, ue, proc): the first to fail claims the soft buffer;
	// the other K's failure must be rejected, not combined.
	w1, _ := p40.Get(0)
	w2, _ := p104.Get(0)
	rt.SubmitProcess(0, 0, 0, 40, w1)
	rt.SubmitProcess(0, 0, 0, 104, w2)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := rt.Snapshot()
		if s.Delivered+s.Drops[DropHARQ] >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := rt.Stop()
	if s.Drops[DropHARQ] != 2 {
		t.Errorf("harq drops = %d, want 2 (%v)", s.Drops[DropHARQ], s.DropsByCause())
	}
	conserve(t, s, s.HARQBuffers)
}

// TestDegradationClampsUnderBacklog: flooding the queues past the
// ladder's thresholds must clamp worker iteration budgets (visible as
// DegradedBatches) and release once drained.
func TestDegradationClampsUnderBacklog(t *testing.T) {
	const k = 512 // slow decodes keep the backlog alive
	cfg := testConfig(simd.W512)
	cfg.Workers = 1
	cfg.QueueDepth = 64
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, k, 8, 8)
	accepted := 0
	for i := 0; i < 4*cfg.QueueDepth; i++ {
		w, _ := pool.Get(i)
		if rt.SubmitProcess(i%cfg.Cells, i, i, k, w) == Admitted {
			accepted++
		}
	}
	waitSettle(t, rt, uint64(accepted))
	s := rt.Stop()
	if s.DegradedBatches == 0 {
		t.Errorf("no degraded batches across %d batches under %dx queue flood", s.Batches, 4)
	}
	if s.DegradeLevel != 0 {
		t.Errorf("degrade level %d after drain, want 0", s.DegradeLevel)
	}
	conserve(t, s, s.HARQBuffers)
}

// waitSettle polls until every accepted block reached a terminal state
// (delivered or dropped post-admission) and no retry is in flight.
func waitSettle(t *testing.T, rt *Runtime, _ uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s := rt.Snapshot()
		if s.Terminal() >= s.Accepted && s.RetryDepth == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Log("settle timeout; proceeding to Stop (conservation still checked)")
}
