package ran

import (
	"runtime"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// TestSLAOverloadSoak is the SLA-class acceptance soak: a mixed
// urllc/embb fleet is driven twice with identical runtime configs —
// once at clean load (every cell stationary Poisson) to establish the
// URLLC latency baseline, then with the eMBB cells switched to a 3×
// mean MMPP burst process while the URLLC cells stay steady. The burst
// is a real overload: it fills the eMBB queues, whose bound refuses the
// excess for backlog. The URLLC-first take and the per-(cell, class)
// queue bound together must hold the SLA:
//
//   - URLLC p99 under burst stays within 1.5× the clean-load value;
//   - zero URLLC admission rejects (no backlog drops on the protected
//     class — its queues must never fill);
//   - eMBB absorbs the damage: ≥ 90% of all dropped volume in the
//     burst phase is eMBB;
//   - per-class accounting conserves in both phases;
//   - no goroutine leak across both runtimes.
//
// Run under -race (the CI sla-soak job does).
//
// The soak runs its replay programs on the Go executor whatever the host
// has: the pin selects the executor of every Exec the runtimes' workers
// make, and the programs are the ones the plan cache holds either way, so
// it compiles nothing a second time. Its subject is the batcher/worker
// class policy above the kernel, and its load calibration (block-size
// ladder, TTI floor, queue depth — see slaSoak) was made against the Go
// executor's service times. On the native kernel the ladder stops at
// K=152–512, where, when the pin was added, a 1000-block capacity probe
// and both phases were dominated by per-worker cold starts (each worker
// recorded and compiled on its first block of a K, ~30 ms at K=512, inside
// the measured phase). Those are gone — a size is compiled once a process,
// by the capacity probe here, and every other worker's first block of it
// costs a state allocation — but the calibration has not been redone
// against the native kernel's service times; ROADMAP item 2 (virtual time)
// retires it and this pin together.
func TestSLAOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	was := program.UseNativeKernel(false)
	t.Cleanup(func() { program.UseNativeKernel(was) })
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run("seed"+itoa(int(seed)), func(t *testing.T) {
			slaSoak(t, seed)
		})
	}
}

func slaSoak(t *testing.T, seed int64) {
	const (
		cells = 4
		// Burst-phase TTIs; the clean baseline runs 2× longer. Sized so
		// each phase delivers enough URLLC blocks (~640/~1280 at the
		// calibrated means) that its p99 is an order statistic over tens
		// of samples, not single digits — under -race, rare scheduler/GC
		// stalls of tens of ms land on whichever blocks are in flight,
		// and a thin tail turns those into coin-flip p99 estimates.
		ttis = 800
		// The "3× MMPP burst": the eMBB long-run mean triples. At 2× a
		// race build sometimes absorbed the burst without a single drop,
		// which the premise check below rejects.
		burstMult = 3.0
		maxWait   = 60 * time.Second
	)
	baseline := runtime.NumGoroutine()

	classes, err := ParseClassList("urllc,embb", cells)
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate the offered load to this machine and build mode: decode
	// runs ~10× slower under -race, so fixed per-TTI means would either
	// saturate a race run's clean phase or never overload a fast one.
	// The TTI is stretched until it holds ~4 blocks of measured service
	// capacity, then the clean phase runs at 50% of capacity and the
	// burst ON rate lands at ~3.6× capacity on the eMBB cells.
	//
	// The block size is the fast-side half of that calibration. The TTI
	// has a 1 ms floor (sleep granularity), so on a faster decoder the
	// capacity-relative means grow in blocks per millisecond while the
	// 32-deep queues and the host's scheduling stalls stay what they
	// are: at 30 blocks/ms a URLLC cell offers 3 per TTI, and a
	// generator that catches up after a 12 ms stall submits more than a
	// queue's worth in a single clump — backlog rejects with no latency
	// excursion behind them, which say nothing about class policy.
	// OfferLoad slips instead of catching up, but the ladder was
	// calibrated against a catching-up generator and stays until
	// virtual time retires it. K steps up, a third of capacity per rung,
	// until a 1 ms TTI holds at most maxCapMs blocks of service, which
	// lands it at 10–14: the rate the test ran at on a 2-vCPU host
	// before the decoder got faster. The relative load and every
	// assertion below are unchanged.
	// Stepping further is not safer: a 4-block batch holds a processor
	// for 8/capMs ms, so below ~8 blocks/ms a full eMBB batch outlasts a
	// TTI and the burst p99 misses the clean + 6 TTI floor instead.
	// Sub-tests failed on a 2-vCPU VM, package alone: stop at 8 blocks/ms
	// 5 of 15, at 12 5 of 36, at 14 1 of 36, at 16 3 of 36. Runs of
	// `go test ./...` (another package's tests on the same two vCPUs)
	// with a failed soak: stop at 8 7 of 8, at 10 7 of 8, at 12 9 of 16,
	// at 14 5 of 16, at 16 5 of 8; the unstepped test on the slower
	// decoder 3 of 16.
	const maxCapMs = 14
	var pool *WordPool
	var capMs float64
	for _, k := range []int{40, 64, 104, 152, 208, 304, 512, 768, 1024} {
		pool = mustPool(t, k, 64, seed)
		if capMs = measureCapacity(t, pool, cells, k); capMs <= maxCapMs {
			break
		}
	}
	tti := time.Millisecond
	if capMs < 4 {
		tti = time.Duration(4 / capMs * float64(time.Millisecond))
	}
	capTTI := capMs * float64(tti) / float64(time.Millisecond)
	// URLLC carries 2×0.10 and eMBB 2×0.15 of capacity in the clean
	// phase (50% total): the URLLC share is deliberately the larger
	// per-class sampling knob, because the p99 comparison needs a thick
	// enough tail — log-bucketed percentiles quantize at ~1.2× steps
	// and scheduler jitter (especially under -race) lands a thin tail
	// a bucket away run to run.
	urllcMean := 0.10 * capTTI
	embbMean := 0.15 * capTTI
	t.Logf("seed %d: K=%d, measured capacity %.2f blocks/ms; TTI %v (%.1f blocks), means urllc %.2f embb %.2f",
		seed, pool.K, capMs, tti, capTTI, urllcMean, embbMean)

	run := func(burst bool, nTTIs int) *Snapshot {
		cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
		cfg.Cells = cells
		cfg.Workers = 4
		cfg.QueueDepth = 32
		cfg.MaxIters = 4
		// Generous deadline (scaled with the calibrated TTI): the soak
		// is about class isolation under queue pressure, not the HARQ
		// clock — drops must come from backlog, not expiry.
		cfg.Deadline = 25 * tti
		// Rejects can only come from full queues, which is exactly what
		// the class policy must keep away from URLLC.
		cfg.CheckCRC = CRC24B
		// Every worker serves both classes and takes URLLC first, so a
		// URLLC block waits for at most one eMBB batch, which holds a
		// processor for 8/capMs ms (0.6–0.8 ms at the calibrated K, see
		// maxCapMs): well inside the bar's 6-TTI floor below.
		cfg.SLA = SLAConfig{Classes: classes}

		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// An eMBB burst is ON at 8× the cell mean 1/8 of the time, so the
		// burst-phase ON rate is burstMult*embbMean*8 ≈ 3.6× measured
		// capacity per eMBB cell — decisively past a 32-deep queue
		// within one dwell.
		lc := LoadConfig{UEs: 4, TTI: tti, TTIs: nTTIs, Seed: seed}
		for c := 0; c < cells; c++ {
			switch {
			case classes[c] == ClassURLLC:
				lc.Cells = append(lc.Cells, Source{Mean: urllcMean})
			case burst:
				lc.Cells = append(lc.Cells, Source{Mean: burstMult * embbMean, Burst: 8})
			default:
				lc.Cells = append(lc.Cells, Source{Mean: embbMean})
			}
		}
		rep := OfferLoad(NewSchedule(lc), 0, nTTIs, pool, rt.SubmitProcess)

		// Settle: every accepted block terminal, no retry in flight.
		settleBy := time.Now().Add(maxWait)
		for time.Now().Before(settleBy) {
			s := rt.Snapshot()
			if s.Terminal() >= s.Accepted && s.RetryDepth == 0 {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		s := rt.Stop()
		t.Logf("seed %d, burst %v: generator slip %v over %d TTIs; backlog rejects urllc %d embb %d",
			seed, burst, rep.Slip, nTTIs, s.Classes[ClassURLLC].Drops[DropBacklog], s.Classes[ClassEMBB].Drops[DropBacklog])

		// Whole-run conservation: everything offered was admitted or
		// visibly rejected, and the per-class ledgers tile the totals.
		if uint64(rep.Offered) != s.Offered() {
			t.Errorf("offered %d != ledger offered %d (accepted %d)", rep.Offered, s.Offered(), s.Accepted)
		}
		var accSum, delSum uint64
		for c := Class(0); c < NumClasses; c++ {
			ks := &s.Classes[c]
			accSum += ks.Accepted
			delSum += ks.Delivered
			if ks.Accepted != ks.Terminal() {
				t.Errorf("class %s accounting leak: accepted %d != terminal %d (delivered %d)",
					c, ks.Accepted, ks.Terminal(), ks.Delivered)
			}
		}
		if accSum != s.Accepted || delSum != s.Delivered {
			t.Errorf("class ledgers do not tile totals: accepted %d/%d, delivered %d/%d",
				accSum, s.Accepted, delSum, s.Delivered)
		}
		return s
	}

	// The clean phase runs 2× longer: it defines the p99 baseline the
	// burst phase is judged against, so its tail needs the most samples.
	clean := run(false, 2*ttis)
	burst := run(true, ttis)

	cleanP99 := clean.Classes[ClassURLLC].LatencyP99
	burstP99 := burst.Classes[ClassURLLC].LatencyP99
	if clean.Classes[ClassURLLC].Delivered == 0 || cleanP99 == 0 {
		t.Fatal("clean phase delivered no URLLC blocks — baseline undefined")
	}
	// The burst's eMBB backlog count is how much of it the queue bound
	// refused.
	embb := &burst.Classes[ClassEMBB]
	t.Logf("seed %d: URLLC p99 clean %v → burst %v (%.2fx); burst drops urllc %v embb %v; steals %d, embb backlog %d",
		seed, cleanP99, burstP99, float64(burstP99)/float64(cleanP99),
		classDropTotal(burst, ClassURLLC), classDropTotal(burst, ClassEMBB),
		burst.Steals, embb.Drops[DropBacklog])

	// 1. URLLC latency holds under the eMBB burst: p99 within 1.5× of
	// the clean baseline. Both p99s are reconstructed from log-bucketed
	// histograms whose boundaries step ~1.21–1.24×, so two identical
	// underlying distributions can still report p99s one bucket apart;
	// the bar carries a single-bucket (×1.25) quantization allowance on
	// top of the 1.5× criterion. On a race build the strict bar is
	// unmeasurable — instrumentation slows decode ~10× and the burst
	// phase saturates the CPU, so every worker gets descheduled and
	// every wall-clock tail stretches with detector contention, not
	// queueing policy (measured: ratios up to ~2.7× from CPU-contention
	// stalls alone). Race runs instead assert a 4× sanity bound — one
	// histogram bucket above the measured contention ceiling, and low
	// enough to catch URLLC parked behind full-lane eMBB batches, which
	// a race build with ~100 ms batches measured at 4.3×. The CI
	// sla-soak job runs the soak natively as well, so the strict bar
	// stays enforced per commit.
	// The bar also carries an absolute slack floor of 6 TTIs: on a fast
	// native build the clean baseline lands near the batching + HARQ
	// retry jitter floor (~3 TTIs), where a single retry round-trip of
	// difference between two runs — noise, not queueing policy — already
	// reads as 2×. The floor dominates only in that small-baseline
	// regime; either way the tail stays far inside the 25-TTI deadline.
	mult := 1.5 * 1.25
	if raceEnabled {
		mult = 4.0
	}
	bar := time.Duration(mult * float64(cleanP99))
	if floor := cleanP99 + 6*tti; floor > bar {
		bar = floor
	}
	if burstP99 > bar {
		t.Errorf("URLLC p99 %v under burst exceeds 1.5× clean baseline %v (bar %v)",
			burstP99, cleanP99, bar)
	}

	// 2. Zero URLLC admission rejects: the protected class never hits a
	// full queue.
	u := &burst.Classes[ClassURLLC]
	if rej := u.Offered() - u.Accepted; rej != 0 {
		t.Errorf("%d URLLC admission rejects under burst (backlog %d), want 0",
			rej, u.Drops[DropBacklog])
	}

	// 3. eMBB absorbs the degradation: ≥ 90% of dropped volume.
	uDrops, eDrops := classDropTotal(burst, ClassURLLC), classDropTotal(burst, ClassEMBB)
	total := uDrops + eDrops
	if total == 0 {
		t.Fatal("burst phase produced no drops — load too light to overload the eMBB queues")
	}
	if share := float64(eDrops) / float64(total); share < 0.90 {
		t.Errorf("eMBB absorbed only %.1f%% of drop volume (%d of %d), want >= 90%%", 100*share, eDrops, total)
	}

	// 4. No goroutine leak across both runtimes.
	leakBy := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(leakBy) {
			t.Errorf("goroutines %d after both runs, baseline %d", runtime.NumGoroutine(), baseline)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// measureCapacity probes end-to-end decode throughput (blocks per
// 1 ms TTI) on this machine and build mode: it preloads a deep-queued
// runtime with a fixed block count, lets the pool drain it flat out,
// and divides. The soak scales its offered load from this so the same
// test overloads a fast native run and a 10×-slower -race run alike.
func measureCapacity(t *testing.T, pool *WordPool, cells, k int) float64 {
	t.Helper()
	cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells = cells
	cfg.Workers = 4
	cfg.QueueDepth = 2048
	cfg.MaxIters = 4
	cfg.Deadline = time.Minute // nothing expires during the probe
	cfg.CheckCRC = CRC24B
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	start := time.Now()
	for i := 0; i < n; i++ {
		w, _ := pool.Get(i)
		rt.SubmitProcess(i%cells, 0, i, k, w)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		s := rt.Snapshot()
		if s.Delivered+s.Drops[DropHARQ] >= n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	s := rt.Stop()
	if s.Delivered == 0 {
		t.Fatal("capacity probe delivered nothing")
	}
	return float64(s.Delivered) / (float64(elapsed) / float64(time.Millisecond))
}

// classDropTotal sums every drop cause for one class.
func classDropTotal(s *Snapshot, c Class) uint64 {
	var n uint64
	for d := DropCause(0); d < numDropCauses; d++ {
		n += s.Classes[c].Drops[d]
	}
	return n
}
