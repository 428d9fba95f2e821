package ran

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/turbo"
)

func testConfig(w simd.Width) Config {
	cfg := DefaultConfig(w, core.StrategyAPCM)
	cfg.Cells = 2
	cfg.Workers = 2
	cfg.QueueDepth = 256
	cfg.MaxIters = 4
	cfg.Deadline = 30 * time.Second // correctness tests never race the clock
	return cfg
}

func mustPool(t testing.TB, k, n int, seed int64) *WordPool {
	t.Helper()
	pool, err := NewWordPool(k, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestNewRefusesUncoveredStrategy: a runtime of a strategy with no
// compiled program would serve every block interpreted, each a program
// miss that reads unhealthy, so New refuses it by name; the two
// arrangements the emitter writes start.
func TestNewRefusesUncoveredStrategy(t *testing.T) {
	for s := core.StrategyScalar; s <= core.StrategyShuffle; s++ {
		cfg := testConfig(simd.W256)
		cfg.Strategy = s
		rt, err := New(cfg)
		switch {
		case s == core.StrategyAPCM || s == core.StrategyExtract:
			if err != nil {
				t.Errorf("%v: %v", s, err)
				continue
			}
			rt.Stop()
		case err == nil:
			rt.Stop()
			t.Errorf("%v: New accepted a strategy with no compiled program", s)
		case !strings.Contains(err.Error(), s.String()):
			t.Errorf("%v: the error does not name the strategy: %v", s, err)
		}
	}
}

// TestConcurrentSubmitConservation floods the runtime from many
// goroutines and checks the accounting invariants: every offered block
// is exactly one of {delivered, dropped-with-cause, rejected}.
func TestConcurrentSubmitConservation(t *testing.T) {
	cfg := testConfig(simd.W256)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 40, 32, 1)

	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	var rejected sync.Map // goroutine -> count
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rej := 0
			for i := 0; i < perG; i++ {
				w, _ := pool.Get(g*perG + i)
				if rt.Submit(g%cfg.Cells, g, pool.K, w) != Admitted {
					rej++
				}
			}
			rejected.Store(g, rej)
		}(g)
	}
	wg.Wait()
	s := rt.Stop()

	totalRej := 0
	rejected.Range(func(_, v interface{}) bool { totalRej += v.(int); return true })
	offered := uint64(goroutines * perG)
	if s.Offered() != offered {
		t.Errorf("offered %d != ledger offered %d (accepted %d, drops %v)",
			offered, s.Offered(), s.Accepted, s.DropsByCause())
	}
	if s.Accepted != s.Terminal() {
		t.Errorf("accepted %d != terminal %d (delivered %d, drops %v)",
			s.Accepted, s.Terminal(), s.Delivered, s.DropsByCause())
	}
	if rej := s.Offered() - s.Accepted; uint64(totalRej) != rej {
		t.Errorf("caller saw %d rejections, metrics say %d", totalRej, rej)
	}
	if s.Delivered == 0 {
		t.Error("nothing delivered under a 30s deadline")
	}
}

// TestDecodeMatchesSingleAndTruth is the end-to-end lane-independence
// property: blocks decoded through the batching runtime must be
// bit-identical to per-block single decoding — and, for noiseless
// words, to the encoded payloads.
func TestDecodeMatchesSingleAndTruth(t *testing.T) {
	cfg := testConfig(simd.W512)
	pool := mustPool(t, 64, 24, 2)

	var mu sync.Mutex
	got := make(map[*Block][]byte)
	cfg.OnDecoded = func(b *Block, bits []byte) {
		mu.Lock()
		got[b] = append([]byte(nil), bits...)
		mu.Unlock()
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		word  *turbo.LLRWord
		truth []byte
	}
	wants := make([]want, pool.Len())
	for i := 0; i < pool.Len(); i++ {
		w, truth := pool.Get(i)
		wants[i] = want{w, truth}
		if a := rt.Submit(i%cfg.Cells, i, pool.K, w); a != Admitted {
			t.Fatalf("block %d not admitted: %v", i, a)
		}
	}
	s := rt.Stop()
	if s.Delivered != uint64(pool.Len()) {
		t.Fatalf("delivered %d of %d", s.Delivered, pool.Len())
	}

	// Reference: the scalar decoder, the oracle, at the same settings.
	c, err := turbo.NewCode(pool.K)
	if err != nil {
		t.Fatal(err)
	}
	sd := turbo.NewDecoder(c)
	sd.MaxIters = cfg.MaxIters
	single := make(map[*turbo.LLRWord][]byte)
	for _, w := range wants {
		bits, _, err := sd.Decode(w.word)
		if err != nil {
			t.Fatal(err)
		}
		single[w.word] = bits
	}

	mu.Lock()
	defer mu.Unlock()
	checked := 0
	for b, bits := range got {
		ref := single[b.Word]
		if !bitsEqual(bits, ref) {
			t.Errorf("runtime decode differs from single-block decode")
		}
		for _, w := range wants {
			if w.word == b.Word && !bitsEqual(bits, w.truth) {
				t.Errorf("runtime decode differs from encoded truth")
			}
		}
		checked++
	}
	if checked != pool.Len() {
		t.Errorf("OnDecoded saw %d blocks, want %d", checked, pool.Len())
	}
}

// TestSubmitRacingStopConserves: Submit calls racing Stop either end up
// accepted — and then decoded, since Stop drains everything it let in —
// or rejected outside the ledger. Round after round, four submitters are
// mid-flight when Stop closes the runtime, and every accepted block must
// reach exactly one terminal outcome.
func TestSubmitRacingStopConserves(t *testing.T) {
	pool := mustPool(t, 40, 16, 12)
	for round := 0; round < 2000; round++ {
		cfg := testConfig(simd.W512)
		cfg.Workers = 1
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg, started sync.WaitGroup
		wg.Add(4)
		started.Add(4)
		for g := 0; g < 4; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					w, _ := pool.Get(g + i)
					a := rt.Submit(g%2, g, pool.K, w)
					if i == 0 {
						started.Done()
					}
					if a == RejectedStopped {
						return
					}
				}
			}(g)
		}
		started.Wait()
		rt.Stop()
		wg.Wait()
		s := rt.Snapshot()
		if end := s.Terminal(); s.Accepted != end {
			t.Fatalf("round %d: accepted %d, delivered %d, dropped after admission %d (%v)",
				round, s.Accepted, s.Delivered, end-s.Delivered, s.DropsByCause())
		}
	}
}

// TestDeadlineDropsUnderOverload drives an expensive-K flood at one
// worker with a deadline far below the service capacity: the runtime
// must shed load (by any cause) rather than deliver everything late,
// and must never deliver more than it accepted.
func TestDeadlineDropsUnderOverload(t *testing.T) {
	cfg := testConfig(simd.W256)
	cfg.Workers = 1
	cfg.QueueDepth = 8
	cfg.Deadline = 2 * time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 512, 16, 3)
	const offered = 300
	for i := 0; i < offered; i++ {
		w, _ := pool.Get(i)
		rt.Submit(i%cfg.Cells, i, pool.K, w)
	}
	s := rt.Stop()
	if s.Dropped() == 0 {
		t.Fatalf("no drops under 150x overload (delivered=%d accepted=%d)", s.Delivered, s.Accepted)
	}
	if s.Delivered+s.Dropped() != offered {
		t.Errorf("delivered %d + dropped %d != offered %d", s.Delivered, s.Dropped(), offered)
	}
	if s.Delivered > s.Accepted {
		t.Errorf("delivered %d > accepted %d", s.Delivered, s.Accepted)
	}
}

// TestGracefulShutdown checks Stop semantics: everything admitted before
// Stop is decoded (not leaked), repeated Stop is safe, and Submit after
// Stop is rejected.
func TestGracefulShutdown(t *testing.T) {
	cfg := testConfig(simd.W512)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := mustPool(t, 40, 7, 4)
	for i := 0; i < pool.Len(); i++ {
		w, _ := pool.Get(i)
		if a := rt.Submit(0, i, pool.K, w); a != Admitted {
			t.Fatalf("block %d not admitted: %v", i, a)
		}
	}
	s := rt.Stop()
	if s.Terminal() != uint64(pool.Len()) {
		t.Errorf("shutdown leaked blocks: terminal %d of %d (delivered %d, drops %v)",
			s.Terminal(), pool.Len(), s.Delivered, s.DropsByCause())
	}
	if s.Delivered != uint64(pool.Len()) {
		t.Errorf("delivered %d of %d under infinite deadline", s.Delivered, pool.Len())
	}
	s2 := rt.Stop()
	if s2.Delivered != s.Delivered {
		t.Error("second Stop changed the snapshot")
	}
	w, _ := pool.Get(0)
	if a := rt.Submit(0, 0, pool.K, w); a != RejectedStopped {
		t.Errorf("Submit after Stop returned %v", a)
	}
}

// TestSaturatingLoadFillsLanes floods a W512 build and checks the
// workers' takes actually fill registers. Nothing waits for lane
// co-travellers, so the load must really saturate: blocks pile up while
// every worker is busy and every take after the first few is full.
//   - two_workers: K=512, whose batch decode outlasts the submission of
//     many blocks; occupancy must clear the 75% bar the serving layer is
//     designed around.
//   - more_workers_than_processors: 8 workers on 2 processors, K=104. A
//     submitter yields its processor to the worker it woke only when
//     every worker was parked (DESIGN §6); handing off at every wake
//     gives each woken worker a one-block batch (0.55–0.60 here), the
//     idle rule keeps the takes full (0.99–1.00).
func TestSaturatingLoadFillsLanes(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		procs, workers, k, offered int
		depth, maxIters            int
		min                        float64
	}{
		{"two_workers", 0, 2, 512, 480, 1024, 4, 0.75},
		{"more_workers_than_processors", 2, 8, 104, 4000, 512, 2, 0.9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			cfg := testConfig(simd.W512)
			cfg.Cells = 4
			cfg.Workers = tc.workers
			cfg.QueueDepth = tc.depth
			cfg.MaxIters = tc.maxIters
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool := mustPool(t, tc.k, 64, 11)
			for i := 0; i < tc.offered; i++ {
				w, _ := pool.Get(i)
				for rt.Submit(i%cfg.Cells, i, pool.K, w) == RejectedBacklog {
					runtime.Gosched()
				}
			}
			s := rt.Stop()
			if s.Delivered != uint64(tc.offered) {
				t.Fatalf("delivered %d of %d", s.Delivered, tc.offered)
			}
			if s.LaneOccupancy < tc.min {
				t.Errorf("lane occupancy %.3f under saturating load, want >= %.2f (batches=%d)",
					s.LaneOccupancy, tc.min, s.Batches)
			}
		})
	}
}

func bitsEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServingGoroutinesCarryLayerLabels: a goroutine profile of a
// running runtime attributes every worker to layer=decode, which is what
// lets a CPU profile of a live vranserve be split by ledger layer — and
// shows no other goroutine: no dispatcher stands between Submit and the
// workers.
func TestServingGoroutinesCarryLayerLabels(t *testing.T) {
	cfg := testConfig(simd.W128)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	// Labelled goroutines per layer, from the debug=1 text form: one
	// "N @ stack" header per distinct stack, its labels on a line below.
	count := func() map[string]int {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		n := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if head, _, ok := strings.Cut(line, " @ "); ok {
				n, _ = strconv.Atoi(head)
			}
			if _, labels, ok := strings.Cut(line, "# labels: "); ok {
				for _, layer := range []string{"decode", "dispatch"} {
					if strings.Contains(labels, `"layer":"`+layer+`"`) {
						got[layer] += n
					}
				}
			}
		}
		return got
	}
	// The goroutines label themselves as they start; wait for that.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := count()
		if got["decode"] == cfg.Workers && got["dispatch"] == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("labelled goroutines %v, want decode=%d and no dispatch", got, cfg.Workers)
		}
		time.Sleep(time.Millisecond)
	}
}
