package ran

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/telemetry"
)

func TestDropCauseNames(t *testing.T) {
	want := map[DropCause]string{
		DropBacklog: "backlog",
		DropExpired: "expired", DropLate: "late",
		DropHARQ: "harq", DropShutdown: "shutdown",
		DropDecode: "decode",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("cause %d named %q, want %q", c, c.String(), name)
		}
	}
	if DropCause(99).String() != "unknown" {
		t.Error("out-of-range cause should name itself unknown")
	}
}

// TestAdmitNames: every Submit outcome prints its name, so a test that
// reports a verdict says which.
func TestAdmitNames(t *testing.T) {
	for a, name := range map[Admit]string{
		Admitted: "admitted", RejectedBacklog: "backlog",
		RejectedStopped: "stopped", RejectedSealed: "sealed",
		RejectedSealed + 1: "unknown",
	} {
		if got := fmt.Sprint(a); got != name {
			t.Errorf("outcome %d prints %q, want %q", int(a), got, name)
		}
	}
}

// TestLedgerIdentities pins the two conservation identities by explicit
// arithmetic over every drop cause, and fails when a cause is added
// without being placed on one side of admission.
func TestLedgerIdentities(t *testing.T) {
	refused := map[DropCause]bool{DropBacklog: true}
	ended := map[DropCause]bool{DropExpired: true, DropLate: true, DropHARQ: true, DropShutdown: true, DropDecode: true}
	// One distinct bit per counter, so every sum says which terms it holds.
	l := Ledger{Accepted: 1 << 20, Delivered: 1 << 21}
	for c := DropCause(0); c < numDropCauses; c++ {
		l.Drops[c] = 1 << c
	}
	wantOffered, wantTerminal, wantDropped := l.Accepted, l.Delivered, uint64(0)
	for c := DropCause(0); c < numDropCauses; c++ {
		switch {
		case refused[c] && !ended[c]:
			wantOffered += l.Drops[c]
		case ended[c] && !refused[c]:
			wantTerminal += l.Drops[c]
		default:
			t.Errorf("cause %s is neither a refusal at the door nor an end of an accepted block", c)
		}
		wantDropped += l.Drops[c]
		if inOffered, inTerminal := l.Offered()&(1<<c) != 0, l.Terminal()&(1<<c) != 0; inOffered == inTerminal {
			t.Errorf("cause %s: in Offered %v, in Terminal %v — want exactly one", c, inOffered, inTerminal)
		}
	}
	if got := l.Offered(); got != wantOffered {
		t.Errorf("Offered %#x, want accepted + backlog = %#x", got, wantOffered)
	}
	if got := l.Terminal(); got != wantTerminal {
		t.Errorf("Terminal %#x, want delivered + expired + late + harq + shutdown + decode = %#x", got, wantTerminal)
	}
	if got := l.Dropped(); got != wantDropped {
		t.Errorf("Dropped %#x, want %#x", got, wantDropped)
	}
}

// TestSnapshotPercentileReconstruction feeds a known latency population
// through the delivery path and asserts the log-bucketed histogram
// reproduces its quantiles within the documented relative-error bound
// of one 1/8-octave sub-bucket (12.5 %).
func TestSnapshotPercentileReconstruction(t *testing.T) {
	m := NewMetrics(1)
	// 1..1000 µs uniform: p50=500µs, p90=900µs, p99=990µs.
	for i := 1; i <= 1000; i++ {
		m.deliver(0, ClassEMBB, 40, time.Duration(i)*time.Microsecond)
	}
	s := m.snapshot([]int{0}, 1)
	check := func(name string, got, want time.Duration) {
		t.Helper()
		relErr := math.Abs(float64(got-want)) / float64(want)
		if relErr > 0.125 {
			t.Errorf("%s = %v, want %v within 12.5%% (rel err %.1f%%)", name, got, want, 100*relErr)
		}
	}
	check("p50", s.LatencyP50, 500*time.Microsecond)
	check("p90", s.LatencyP90, 900*time.Microsecond)
	check("p99", s.LatencyP99, 990*time.Microsecond)
}

// TestSnapshotPercentileOverflowBucket drives the histogram into its
// top bucket and asserts the index/value round-trip: a reconstructed
// percentile of an enormous latency must come back as the
// representative value of the bucket that latency indexes into.
func TestSnapshotPercentileOverflowBucket(t *testing.T) {
	m := NewMetrics(1)
	huge := time.Duration(math.MaxInt64)
	for i := 0; i < 10; i++ {
		m.deliver(0, ClassEMBB, 40, huge)
	}
	s := m.snapshot([]int{0}, 1)
	idx := telemetry.HistIndex(huge.Nanoseconds())
	if idx >= telemetry.HistBuckets {
		t.Fatalf("index %d out of range", idx)
	}
	want := time.Duration(telemetry.HistValue(idx))
	if s.LatencyP99 != want {
		t.Errorf("overflow p99 = %v, want bucket representative %v (idx %d)", s.LatencyP99, want, idx)
	}
	// Round-trip: the representative value must land back in its bucket.
	if back := telemetry.HistIndex(telemetry.HistValue(idx)); back != idx {
		t.Errorf("HistIndex(HistValue(%d)) = %d, want %d", idx, back, idx)
	}
}

// TestDropsAcrossAllCauses exercises every DropCause through both the
// per-cell and aggregate views: CellSnapshot.Dropped must total its
// causes, Snapshot.DropsByCause must name every cause exactly once.
func TestDropsAcrossAllCauses(t *testing.T) {
	m := NewMetrics(2)
	// Cell 0 gets c+1 drops of cause c; cell 1 gets 1 each.
	for c := DropCause(0); c < numDropCauses; c++ {
		for n := 0; n <= int(c); n++ {
			m.drop(0, ClassEMBB, c)
		}
		m.drop(1, ClassEMBB, c)
	}
	s := m.snapshot([]int{0, 0}, 1)

	n := uint64(numDropCauses)
	cell0 := n * (n + 1) / 2 // 1+2+...+numDropCauses
	if got := s.Cells[0].Dropped(); got != cell0 {
		t.Errorf("cell 0 dropped %d, want %d", got, cell0)
	}
	if got := s.Cells[1].Dropped(); got != n {
		t.Errorf("cell 1 dropped %d, want %d", got, n)
	}
	if got := s.Dropped(); got != cell0+n {
		t.Errorf("total dropped %d, want %d", got, cell0+n)
	}
	byCause := s.DropsByCause()
	if len(byCause) != int(numDropCauses) {
		t.Fatalf("DropsByCause has %d entries, want %d: %v", len(byCause), numDropCauses, byCause)
	}
	for c := DropCause(0); c < numDropCauses; c++ {
		want := uint64(c) + 1 + 1 // cell 0 (c+1) + cell 1 (1)
		if byCause[c.String()] != want {
			t.Errorf("cause %s = %d, want %d", c, byCause[c.String()], want)
		}
	}
}

func TestSnapshotAggregation(t *testing.T) {
	m := NewMetrics(2)
	m.accept(0, ClassEMBB)
	m.accept(0, ClassEMBB)
	m.accept(1, ClassEMBB)
	m.drop(0, ClassEMBB, DropBacklog)
	m.drop(1, ClassEMBB, DropExpired)
	m.deliver(0, ClassEMBB, 104, 2*time.Millisecond)
	m.deliver(1, ClassEMBB, 104, 4*time.Millisecond)
	m.batchDone(2, 4, 300*time.Microsecond)

	s := m.snapshot([]int{3, 0}, 2)
	if s.Accepted != 3 || s.Delivered != 2 {
		t.Errorf("accepted=%d delivered=%d, want 3/2", s.Accepted, s.Delivered)
	}
	if s.Drops[DropBacklog] != 1 || s.Drops[DropExpired] != 1 {
		t.Errorf("drop counters wrong: %v", s.DropsByCause())
	}
	if s.Cells[0].QueueDepth != 3 || s.Cells[1].QueueDepth != 0 {
		t.Error("queue depths not threaded through")
	}
	if s.LaneOccupancy != 0.5 {
		t.Errorf("lane occupancy %.2f, want 0.5", s.LaneOccupancy)
	}
	if s.DecodedBlocks != 2 || s.Batches != 1 {
		t.Errorf("decoded=%d batches=%d, want 2/1", s.DecodedBlocks, s.Batches)
	}
	if s.AvgDecodeUs < 149 || s.AvgDecodeUs > 151 {
		t.Errorf("avg decode %.1fus, want ~150", s.AvgDecodeUs)
	}
	if s.GoodputMbps <= 0 {
		t.Error("goodput should be positive")
	}
	if s.Cells[0].Dropped() != 1 {
		t.Errorf("cell 0 dropped %d, want 1", s.Cells[0].Dropped())
	}
}

// TestSnapshotFamilies checks the exposition rendering: every cell and
// cause appears, and headline gauges carry the snapshot's values.
func TestSnapshotFamilies(t *testing.T) {
	m := NewMetrics(2)
	m.accept(0, ClassEMBB)
	m.deliver(0, ClassEMBB, 104, time.Millisecond)
	m.drop(1, ClassEMBB, DropLate)
	s := m.snapshot([]int{1, 2}, 2)
	fams := s.Families()
	byName := map[string]telemetry.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f, ok := byName["vran_dropped_total"]; !ok {
		t.Fatal("missing vran_dropped_total")
	} else if len(f.Samples) != 2*int(numDropCauses) {
		t.Errorf("dropped family has %d samples, want %d", len(f.Samples), 2*int(numDropCauses))
	}
	if f, ok := byName["vran_latency_seconds"]; !ok || len(f.Samples) != 3 {
		t.Error("latency quantile family missing or wrong arity")
	}
	if f, ok := byName["vran_queue_depth"]; !ok {
		t.Fatal("missing vran_queue_depth")
	} else if f.Samples[1].Value != 2 {
		t.Errorf("cell 1 queue depth sample = %v, want 2", f.Samples[1].Value)
	}
}

// TestWorkerAllocsPerOpSteadyState: once a block size is warm, serving a
// block allocates the Block that Submit stamps and next to nothing else —
// the plan cache and the worker's own slices make the decode itself
// allocation-free. One runtime.ReadMemStats pair brackets the steady part
// of a one-worker run (warm-up batches outside it), and the heap objects
// allocated process-wide in between are charged to the blocks delivered.
// Nothing inside the bracket takes a Snapshot or logs, so the count is the
// submitter's and the worker's. The pre-plan-cache regime, where every
// batch rebuilt its working set and each PermuteW allocated its index
// scratch, allocated thousands of objects per decode, hundreds per block.
func TestWorkerAllocsPerOpSteadyState(t *testing.T) {
	const k = 104
	// Measured at 1.5 objects per block with the native AVX-512 kernel and
	// with the portable one (1.7 under -race): the Block, plus the two
	// result slices Decode hands back per batch of four. The margin covers
	// the Go runtime's own odd allocation across the bracket; a worker
	// that allocates ten objects more per batch fails.
	const maxObjsPerBlock = 4
	cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells = 1
	cfg.Workers = 1
	cfg.QueueDepth = 512
	cfg.MaxIters = 2
	cfg.Deadline = time.Minute // no drops: every submit must decode
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	pool, err := NewWordPool(k, 16, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	lanes := rt.Lanes()
	delivered := &rt.met.cells[0].delivered
	serve := func(from, n int) {
		for i := from; i < from+n; i++ {
			for uint64(i)-delivered.Load() >= uint64(cfg.QueueDepth/2) {
				time.Sleep(100 * time.Microsecond) // a slow worker: keep under the backlog bound
			}
			w, _ := pool.Get(i)
			if rt.Submit(0, i, k, w) != Admitted {
				t.Fatalf("submit %d rejected", i)
			}
			if i%lanes == lanes-1 {
				time.Sleep(50 * time.Microsecond) // let the worker take them
			}
		}
		for wait := time.Now().Add(time.Minute); delivered.Load() < uint64(from+n); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(wait) {
				t.Fatalf("delivered %d of %d", delivered.Load(), from+n)
			}
		}
	}
	warm := 16 * lanes
	serve(0, warm)
	const steady = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve(warm, steady)
	runtime.ReadMemStats(&after)
	perBlock := float64(after.Mallocs-before.Mallocs) / steady
	t.Logf("%.2f heap objects per delivered block (%d blocks, %d lanes)", perBlock, steady, lanes)
	if perBlock > maxObjsPerBlock {
		t.Errorf("%.2f heap objects per delivered block in the steady state, want ≤ %d", perBlock, maxObjsPerBlock)
	}
}
