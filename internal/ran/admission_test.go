package ran

import (
	"fmt"
	"testing"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/turbo"
)

// oneBlockCost measures what a one-block decode of the pool's K costs on
// this host, kernel and build: first (the state build, and the plan build,
// recording and compile too when the process has not decoded this K at
// this width before) and warm (the best of three replays). The guard tests
// stage their deadline from the warm cost, so they assert the guard's
// behaviour and not the host's speed.
func oneBlockCost(t *testing.T, w simd.Width, pool *WordPool) (first, warm time.Duration) {
	t.Helper()
	bd := turbo.NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
	decode := func() time.Duration {
		word, _ := pool.Get(0)
		start := time.Now()
		if _, _, err := bd.Decode(pool.K, []*turbo.LLRWord{word}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	first = decode()
	warm = decode()
	for i := 0; i < 2; i++ {
		warm = min(warm, decode())
	}
	return first, warm
}

// guardConfig is ran.DefaultConfig (admission guard on, 3 ms deadline)
// on one cell and one worker, its deadline stretched where this host's
// warm decode would not fit it.
func guardConfig(warm time.Duration) Config {
	cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells, cfg.Workers = 1, 1
	cfg.QueueDepth = 256
	cfg.Deadline = max(cfg.Deadline, 8*warm)
	return cfg
}

// waitSettled waits until every block the runtime accepted has been
// delivered or dropped.
func waitSettled(t *testing.T, rt *Runtime) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(200 * time.Microsecond) {
		s := rt.Snapshot()
		if s.Terminal() >= s.Accepted {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime did not settle: accepted %d, delivered %d, dropped %d", s.Accepted, s.Delivered, s.Dropped())
		}
	}
}

// pace submits n blocks one interval apart and returns the verdicts.
func pace(rt *Runtime, pool *WordPool, from, n int, interval time.Duration) []Admit {
	verdicts := make([]Admit, n)
	next := time.Now()
	for i := range verdicts {
		w, _ := pool.Get(from + i)
		verdicts[i] = rt.Submit(0, from+i, pool.K, w)
		next = next.Add(interval)
		time.Sleep(time.Until(next))
	}
	return verdicts
}

func count(verdicts []Admit, want Admit) (n int) {
	for _, v := range verdicts {
		if v == want {
			n++
		}
	}
	return n
}

// paceFor picks the submission interval (a third of one worker's capacity,
// never under the 1 ms of the reported scenario) and how many blocks to
// offer at it in about two seconds, between 40 and 200.
func paceFor(warm time.Duration) (interval time.Duration, n int) {
	interval = max(time.Millisecond, 3*warm)
	return interval, int(min(max(2*time.Second/interval, 40), 200))
}

// TestAdmissionGuardSurvivesColdStart: a block size nothing named at
// start-up is compiled when its first block reaches a worker (30 ms at
// K=512, 125 ms at K=2048, against 0.1 and 0.3 ms warm). When that cost
// was part of the decode it was fed to the estimate, which put the guard's
// feasibility bound ten deadlines out: every later Submit was refused, and
// since nothing refused is ever decoded no sample could correct it — one
// block, then silence for good. The compile is outside the decode's clock
// now. The runtime must come out of a cold start serving, with the
// estimate at the warm cost.
//
// Measuring a size compiles it for the process, so the warm cost the
// deadline is staged from is measured on a neighbouring size (528, 2016),
// and the subtest skips, saying so, when something earlier in the process
// (a second -count round) has already compiled the size it serves.
func TestAdmissionGuardSurvivesColdStart(t *testing.T) {
	for _, ks := range [][2]int{{512, 528}, {2048, 2016}} {
		k, proxy := ks[0], ks[1]
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			_, warm := oneBlockCost(t, simd.W512, mustPool(t, proxy, 1, int64(proxy)))
			cfg := guardConfig(warm)
			pool := mustPool(t, k, 8, int64(k))
			before := turbo.PlanCacheStats()
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One block at a time until one has reached the worker and made
			// it compile (a block that expires before the worker is up does
			// not): the cold decode, however it ended.
			var cold time.Duration
			sent := 0
			for ; turbo.PlanCacheStats().Compiles == before.Compiles && sent < 5; sent++ {
				w, _ := pool.Get(sent)
				start := time.Now()
				if v := rt.Submit(0, sent, k, w); v != Admitted {
					t.Fatalf("block %d: %v", sent, v)
				}
				waitSettled(t, rt)
				cold = time.Since(start)
			}
			if turbo.PlanCacheStats().Compiles == before.Compiles || cold < 2*cfg.Deadline {
				rt.Stop()
				t.Skipf("K=%d: %d programs compiled in the runtime, last block %v against a %v deadline (warm %v): no cold start to survive here",
					k, turbo.PlanCacheStats().Compiles-before.Compiles, cold, cfg.Deadline, warm)
			}
			if est := time.Duration(rt.estDecodeNs.Load()); est > cfg.Deadline/2 {
				t.Errorf("estimate %v after the cold block (%v, warm %v): the compile was charged to the decode", est, cold, warm)
			}

			interval, n := paceFor(warm)
			verdicts := pace(rt, pool, sent, n, interval)
			est := time.Duration(rt.estDecodeNs.Load())
			s := rt.Stop()
			if got := count(verdicts, Admitted); got*10 < n*9 {
				t.Errorf("after a cold start (%v, warm %v, deadline %v) %d of %d blocks admitted at one per %v, %d refused by the guard; estimate %v",
					cold, warm, cfg.Deadline, got, n, interval, count(verdicts, RejectedDeadline), est)
			}
			if s.Delivered+s.Dropped() != uint64(n+sent) {
				t.Errorf("delivered %d + dropped %d != offered %d", s.Delivered, s.Dropped(), n+sent)
			}
		})
	}
}

// TestAdmissionGuardReopensAfterStall: a 200 ms host stall lands on the
// first decode, the one sample the estimate takes whole. The guard shuts,
// as it should on that evidence, and must open again on its own: every
// refusal decays the estimate, so within 50 submissions a block is
// admitted, measured, and the guard stays open.
func TestAdmissionGuardReopensAfterStall(t *testing.T) {
	const k = 512
	pool := mustPool(t, k, 8, 5)
	_, warm := oneBlockCost(t, simd.W512, pool)
	cfg := guardConfig(warm)
	// The stall must fire on the first batch and on no other: pick the
	// seed whose stall site rolls that way.
	cc := chaos.Config{StallRate: 0.01, StallFor: max(200*time.Millisecond, 60*cfg.Deadline)}
	const rolls = 200
search:
	for cc.Seed = 1; ; cc.Seed++ {
		if cc.Seed > 1<<20 {
			t.Fatal("no seed stalls the first batch alone")
		}
		probe := chaos.New(cc)
		for i := 0; i < rolls; i++ {
			if (probe.StallDuration() > 0) != (i == 0) {
				continue search
			}
		}
		break
	}
	cfg.Chaos = chaos.New(cc)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One block at a time until a batch has been decoded: the stalled one.
	// (A block that expires before a worker is up is not a batch.)
	batches := func() uint64 { return cfg.Chaos.Counters()[chaos.SiteStall].Trials }
	sent := 0
	for ; batches() < 1; sent++ {
		if sent == 20 {
			t.Fatalf("%d blocks submitted, %d decoded", sent, batches())
		}
		w, _ := pool.Get(sent)
		if v := rt.Submit(0, sent, k, w); v != Admitted {
			t.Fatalf("block %d: %v", sent, v)
		}
		waitSettled(t, rt)
	}
	if est := time.Duration(rt.estDecodeNs.Load()); est < cc.StallFor {
		t.Fatalf("estimate %v after a %v stall on the first sample: the stall is not charged to the decode", est, cc.StallFor)
	}

	interval, n := paceFor(warm)
	n = min(n, rolls/2-2)
	reopen := pace(rt, pool, sent, 50, interval)
	after := pace(rt, pool, sent+50, n, interval)
	rt.Stop()
	if count(reopen, RejectedDeadline) == 0 {
		t.Errorf("the guard never shut on an estimate of a whole stall")
	}
	if count(reopen, Admitted) == 0 {
		t.Errorf("the guard did not re-open within 50 submissions of the stall: %d refused", count(reopen, RejectedDeadline))
	}
	if got := count(after, Admitted); got*10 < n*9 {
		t.Errorf("once re-opened the guard admitted %d of %d (%d refused)", got, n, count(after, RejectedDeadline))
	}
}
