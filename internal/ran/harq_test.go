package ran

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"vransim/internal/simd"
	"vransim/internal/turbo"
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

// noisyWords draws n CRC24B pool words of size k from a fixed seed and
// adds Gaussian LLR noise of deviation sigma to every soft value,
// clamped to ±127, as the benchmark's lo-SNR pool does.
func noisyWords(t testing.TB, k, n int, sigma float64, seed int64) []*turbo.LLRWord {
	t.Helper()
	pool := mustPool(t, k, n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	words := make([]*turbo.LLRWord, n)
	for i := range words {
		w, _ := pool.Get(i)
		w = w.Clone()
		for _, s := range [][]int16{w.Sys, w.P1, w.P2, w.TailSys[:], w.TailP1[:]} {
			for j := range s {
				s[j] = int16(max(-127, min(127, math.Round(float64(s[j])+rng.NormFloat64()*sigma))))
			}
		}
		words[i] = w
	}
	return words
}

// TestFloodDecodesAtFullBudget: overload is answered at the door, never
// by cutting the decode budget. A fixed set of noisy K=512 words — the
// benchmark's lo-SNR noise, which needs 2-4 iterations — fails the same
// CRC checks whether it is trickled one block at a time or arrives as a
// flood that fills every queue of a one-worker runtime.
func TestFloodDecodesAtFullBudget(t *testing.T) {
	const k, sigma = 512, 22
	cfg := testConfig(simd.W512)
	cfg.Workers = 1
	cfg.Cells = 4
	cfg.QueueDepth = 64
	cfg.CheckCRC = CRC24B
	words := noisyWords(t, k, 4*cfg.QueueDepth, sigma, 34)

	run := func(trickle bool) *Snapshot {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range words {
			// One cell in four per block: the flood fills each (cell,
			// class) queue to QueueDepth, and no block is refused.
			if a := rt.SubmitProcess(i%cfg.Cells, i, i%HARQProcesses, k, w); a != Admitted {
				t.Fatalf("trickle=%v: block %d refused: %v", trickle, i, a)
			}
			if trickle {
				waitSettle(t, rt, 0)
			}
		}
		waitSettle(t, rt, 0)
		s := rt.Stop()
		conserve(t, s, s.HARQBuffers)
		return s
	}
	trickled, flooded := run(true), run(false)
	t.Logf("CRC failures: trickled %d, flooded %d; batches %d vs %d; HARQ retries %d vs %d",
		trickled.CRCFailures, flooded.CRCFailures, trickled.Batches, flooded.Batches,
		trickled.HARQRetries, flooded.HARQRetries)
	if flooded.Batches >= trickled.Batches {
		t.Errorf("the flood never backed up: %d batches, trickled %d", flooded.Batches, trickled.Batches)
	}
	if flooded.CRCFailures != trickled.CRCFailures {
		t.Errorf("CRC failures: flooded %d, trickled %d — overload cost decode quality",
			flooded.CRCFailures, trickled.CRCFailures)
	}
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
		time.Sleep(200 * time.Microsecond)
	}
	t.Log("settle timeout; proceeding to Stop (conservation still checked)")
}
