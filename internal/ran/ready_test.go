package ran

import (
	"runtime"
	"testing"
	"time"

	"vransim/internal/simd"
	"vransim/internal/turbo"
)

func mkBlock(k int) *Block { return &Block{K: k} }

// fill sets one (cell, class)'s waiting count to n, as a backlog of n
// blocks would for push's bound.
func fill(r *Runtime, cell int, c Class, n int) { r.rq.waiting[qi(cell, c)] = n }

// mixedRuntime is a bare runtime (no goroutines) whose cell 0 is URLLC
// and cell 1 eMBB, 4 lanes a batch.
func mixedRuntime() *Runtime {
	return bareSLARuntime(2, 64, SLAConfig{Classes: []Class{ClassURLLC, ClassEMBB}})
}

// pushAt pushes one arrival of cell and size k due after due.
func pushAt(t *testing.T, r *Runtime, cell, k int, due time.Duration, now time.Time) {
	t.Helper()
	b := &Block{Cell: cell, K: k, Class: r.cfg.SLA.ClassOf(cell), Deadline: now.Add(due)}
	if a, _ := r.rq.push(b, true); a != Admitted {
		t.Fatalf("push: %v", a)
	}
}

// TestTakeFillsLaneGroups: a take holds at most lanes blocks, all of
// one K, and leaves the rest for the next take.
func TestTakeFillsLaneGroups(t *testing.T) {
	r := bareSLARuntime(1, 64, SLAConfig{})
	for i := 0; i < 6; i++ {
		r.rq.push(mkBlock(104), true)
	}
	for _, want := range []int{4, 2} {
		got, ok := r.take(nil)
		if !ok || len(got) != want {
			t.Fatalf("take returned %d blocks (ok=%v), want %d", len(got), ok, want)
		}
		for _, b := range got {
			if b.K != 104 {
				t.Fatalf("K=%d block in a K=104 take", b.K)
			}
		}
	}
	if d := r.rq.waiting[qi(0, ClassEMBB)]; d != 0 {
		t.Errorf("%d blocks left waiting after both takes", d)
	}
}

// TestTakeKeepsKsApart: blocks of different K never share a take;
// URLLC comes before eMBB whatever the deadlines, and within a class the
// K whose head deadline is earliest wins. A URLLC take while eMBB waits
// is a steal.
func TestTakeKeepsKsApart(t *testing.T) {
	r := mixedRuntime()
	now := time.Now()
	pushAt(t, r, 1, 40, 3*time.Millisecond, now)
	pushAt(t, r, 1, 104, 2*time.Millisecond, now)
	pushAt(t, r, 1, 40, 4*time.Millisecond, now)
	pushAt(t, r, 0, 40, 9*time.Millisecond, now)
	for i, want := range []struct {
		class  Class
		k, len int
	}{{ClassURLLC, 40, 1}, {ClassEMBB, 104, 1}, {ClassEMBB, 40, 2}} {
		got, ok := r.take(nil)
		if !ok || len(got) != want.len {
			t.Fatalf("take %d: x%d (ok=%v), want %v x%d", i, len(got), ok, want.class, want.len)
		}
		for _, b := range got {
			if b.K != want.k || b.Class != want.class {
				t.Fatalf("take %d: block %v K=%d, want %v K=%d", i, b.Class, b.K, want.class, want.k)
			}
		}
		if len(got) == 2 && got[1].Deadline.Before(got[0].Deadline) {
			t.Error("a take is not in deadline order")
		}
	}
	if n := r.met.steals.Load(); n != 1 {
		t.Errorf("steals = %d, want 1 (the URLLC take while eMBB waited)", n)
	}
}

// TestTakeLoneBlockAtOnce: nothing waits for lane co-travellers — a
// lone block is taken at once, by a taker already waiting for work too.
func TestTakeLoneBlockAtOnce(t *testing.T) {
	r := bareSLARuntime(1, 64, SLAConfig{})
	r.rq.push(mkBlock(40), true)
	if got, ok := r.take(nil); !ok || len(got) != 1 {
		t.Fatalf("lone block: take returned %d blocks (ok=%v), want 1", len(got), ok)
	}
	got := make(chan []*Block)
	go func() {
		b, _ := r.take(nil)
		got <- b
	}()
	waitParked(r, func(q *ready) bool { return q.idle == 1 })
	r.rq.push(mkBlock(40), true)
	if b := <-got; len(b) != 1 {
		t.Fatalf("a parked taker woken by a lone block took %d", len(b))
	}
}

// TestCloseDrainsEveryGroup: close hands back every group — a taker
// drains them all, URLLC first — and every push after it is refused.
func TestCloseDrainsEveryGroup(t *testing.T) {
	r := mixedRuntime()
	now := time.Now()
	pushAt(t, r, 1, 40, time.Second, now)
	pushAt(t, r, 1, 104, time.Second, now)
	pushAt(t, r, 0, 40, time.Second, now)
	r.rq.close()
	if b, ok := r.take(nil); !ok || len(b) != 1 || b[0].Class != ClassURLLC {
		t.Fatalf("first take after close: x%d (ok=%v), want the URLLC block", len(b), ok)
	}
	ks := map[int]bool{}
	for {
		b, ok := r.take(nil)
		if !ok {
			break
		}
		ks[b[0].K] = true
	}
	if len(ks) != 2 {
		t.Errorf("after the URLLC take the taker drained eMBB K groups %v, want 40 and 104", ks)
	}
	if a, _ := r.rq.push(mkBlock(40), true); a != RejectedStopped {
		t.Errorf("push after close: %v, want RejectedStopped", a)
	}
}

// TestPushHandsOffOnlyFromIdle: a push reports a hand-off only when it
// wakes a worker while every worker is parked — the first arrival at an
// idle runtime — and never when it signals nobody, when another worker
// is already awake, or when it does not queue the block at all.
func TestPushHandsOffOnlyFromIdle(t *testing.T) {
	r := bareSLARuntime(2, 64, SLAConfig{})
	r.rq.workers = 2
	got := make(chan []*Block, 2)
	for i := 0; i < 2; i++ {
		go func() {
			b, _ := r.take(nil)
			got <- b
		}()
	}
	waitParked(r, func(q *ready) bool { return q.idle == 2 })
	push := func(b *Block, want Admit, wantHandOff bool, what string) {
		t.Helper()
		if a, h := r.rq.push(b, true); a != want || h != wantHandOff {
			t.Fatalf("%s: push = (%v, %v), want (%v, %v)", what, a, h, want, wantHandOff)
		}
	}

	// Refused or diverted arrivals wake nobody, whoever is parked.
	if err := r.rq.beginMigration(1); err != nil {
		t.Fatal(err)
	}
	push(&Block{Cell: 1, K: 40}, Admitted, false, "migrating cell")
	r.rq.endMigration()
	fill(r, 0, ClassEMBB, 64)
	push(&Block{Cell: 0, K: 40}, RejectedBacklog, false, "full backlog")
	fill(r, 0, ClassEMBB, 0)

	// Different K, so each taker's batch is one block and both return.
	push(&Block{Cell: 0, K: 40}, Admitted, true, "first arrival at an idle runtime")
	push(&Block{Cell: 0, K: 104}, Admitted, false, "second arrival, one worker already woken")
	for i := 0; i < 2; i++ {
		if b := <-got; len(b) != 1 {
			t.Fatalf("a woken taker got %d blocks, want 1", len(b))
		}
	}
	push(&Block{Cell: 0, K: 40}, Admitted, false, "arrival with nobody parked")
	r.rq.close()
	push(&Block{Cell: 0, K: 40}, RejectedStopped, false, "closed structure")

	// Mixed classes: an eMBB and a URLLC arrival at an all-parked runtime
	// each hand off and wake the one taker, whatever the class.
	for _, b := range []*Block{{Cell: 1, K: 40, Class: ClassEMBB}, {Cell: 0, K: 40, Class: ClassURLLC}} {
		r = mixedRuntime()
		r.rq.workers = 1
		go func() {
			b, _ := r.take(nil)
			got <- b
		}()
		waitParked(r, func(q *ready) bool { return q.idle == 1 })
		push(b, Admitted, true, b.Class.String()+" arrival, the one taker parked")
		if g := <-got; len(g) != 1 || g[0] != b {
			t.Fatalf("%v arrival: the woken taker got %d blocks, want that one", b.Class, len(g))
		}
	}
}

// TestIdleHandOffDecodesBeforeSubmitReturns: on one processor, a Submit
// that wakes a worker of an idle runtime hands it the processor, and the
// woken worker takes and decodes the block before the submitter resumes.
// A worker back from park has readied nothing, so it must not yield the
// processor back first (DESIGN §6). It asserts order, not host timing.
// Go's scheduler runs its global queue — where the yielding submitter
// waits — ahead of the woken worker on one schedule in 61, for fairness,
// so a few rounds may see the submitter first; a worker that yields back
// sends every round there.
func TestIdleHandOffDecodesBeforeSubmitReturns(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	cfg := testConfig(simd.W512)
	pool := mustPool(t, 40, 16, 5)
	if err := turbo.Precompile(cfg.Width, cfg.Strategy, pool.K); err != nil {
		t.Fatal(err)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	late := 0
	for i := 0; i < pool.Len(); i++ {
		waitParked(rt, func(q *ready) bool { return q.idle == q.workers })
		w, _ := pool.Get(i)
		if a := rt.Submit(0, i, pool.K, w); a != Admitted {
			t.Fatalf("block %d: %v", i, a)
		}
		if rt.Snapshot().Delivered != uint64(i+1) {
			late++
		}
	}
	if late > pool.Len()/4 {
		t.Errorf("%d of %d blocks not yet decoded when Submit returned, want at most %d", late, pool.Len(), pool.Len()/4)
	}
}

// waitParked yields until parked reports the taker goroutine is waiting.
func waitParked(r *Runtime, parked func(*ready) bool) {
	for {
		r.rq.mu.Lock()
		ok := parked(r.rq)
		r.rq.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// TestRuntimeDecodesLoneBlockAtOnce covers the wired-up path: a single
// block in a 4-lane build is decoded as soon as it arrives, alone, with
// the waste showing up in the lane-occupancy metric.
func TestRuntimeDecodesLoneBlockAtOnce(t *testing.T) {
	rt, err := New(testConfig(simd.W512))
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 40, 1, 6)
	w, _ := pool.Get(0)
	if a := rt.Submit(0, 0, pool.K, w); a != Admitted {
		t.Fatalf("not admitted: %v", a)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && rt.Snapshot().Delivered != 1 {
		time.Sleep(time.Millisecond)
	}
	s := rt.Stop()
	if s.Delivered != 1 {
		t.Fatalf("lone block never decoded: delivered=%d", s.Delivered)
	}
	if s.Batches != 1 || s.LaneOccupancy > 0.26 {
		t.Errorf("batches=%d occupancy=%.2f, want one quarter-full batch", s.Batches, s.LaneOccupancy)
	}
}
