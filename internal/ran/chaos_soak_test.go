package ran

import (
	"runtime"
	"testing"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/turbo"
)

// TestChaosSoak drives the runtime through N simulated TTIs of traffic
// with a seeded fault injector firing at every site — forced CRC
// failures, noisy receptions, worker stalls, fake queue pressure and
// plan eviction storms — and asserts the properties the chaos harness
// exists to defend:
//
//   - no deadlock: the run settles and Stop returns;
//   - no goroutine leak: the count returns to its pre-runtime baseline;
//   - conserved accounting: every offered block is accepted or visibly
//     rejected, and every accepted block ends delivered or in a counted
//     post-admission drop — across three fixed seeds, under -race;
//   - recovery: ≥95 % of CRC-affected blocks come back via a
//     soft-combined HARQ retransmission within the retry budget;
//   - every batch decodes: no fault site makes the decoder refuse one,
//     and the clean phase (the same traffic, no injector) delivers every
//     block it accepts and ends with a healthy /healthz.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	t.Run("clean", func(t *testing.T) { soak(t, 4, false) })
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run("seed"+itoa(int(seed)), func(t *testing.T) {
			soak(t, seed, true)
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func soak(t *testing.T, seed int64, faults bool) {
	const (
		k       = 40
		ttis    = 250
		perTTI  = 8 // mean blocks across all cells per simulated TTI
		maxWait = 60 * time.Second
	)
	baseline := runtime.NumGoroutine()

	inj := chaos.New(chaos.Config{
		Seed:        seed,
		CRCRate:     0.10, // the acceptance-criterion fault
		CorruptRate: 0.05,
		CorruptAmp:  64,
		StallRate:   0.02,
		StallFor:    200 * time.Microsecond,
		QueueRate:   0.02,
		EvictRate:   0.01,
	})

	cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells = 3
	cfg.Workers = 4
	cfg.QueueDepth = 256
	cfg.MaxIters = 4
	cfg.Deadline = 30 * time.Second // the soak is about faults, not the clock
	if faults {
		cfg.Chaos = inj
	}

	pool := mustPool(t, k, 64, seed)
	cfg.CheckCRC = CRC24B

	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One arrival schedule at a compressed 50 µs TTI, so the workers
	// interleave with submission.
	sched := NewSchedule(LoadConfig{
		Cells: Uniform(cfg.Cells, Source{Mean: perTTI / float64(cfg.Cells)}),
		UEs:   8, TTI: 50 * time.Microsecond, TTIs: ttis, Seed: seed,
	})
	var admitted, rejected uint64
	rep := OfferLoad(sched, 0, ttis, pool, func(cell, ue, proc, k int, w *turbo.LLRWord) Admit {
		a := rt.SubmitProcess(cell, ue, proc, k, w)
		if a == Admitted {
			admitted++
		} else {
			rejected++
		}
		return a
	})
	offered := uint64(rep.Offered)

	// Settle: every accepted block terminal, no retry in flight.
	settleBy := time.Now().Add(maxWait)
	for time.Now().Before(settleBy) {
		s := rt.Snapshot()
		if s.Terminal() >= s.Accepted && s.RetryDepth == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	health := rt.Health(HealthPolicy{})()
	s := rt.Stop()

	// -- accounting ----------------------------------------------------
	if s.Accepted != admitted {
		t.Errorf("accepted %d, Submit admitted %d", s.Accepted, admitted)
	}
	if preDrops := s.Offered() - s.Accepted; preDrops != rejected {
		t.Errorf("pre-admission drops %d, Submit rejected %d", preDrops, rejected)
	}
	if offered != admitted+rejected {
		t.Errorf("offered %d != admitted %d + rejected %d", offered, admitted, rejected)
	}
	if s.Accepted != s.Terminal() {
		t.Errorf("accounting leak: accepted %d != terminal %d (delivered %d, drops %v)",
			s.Accepted, s.Terminal(), s.Delivered, s.DropsByCause())
	}
	if s.RetryDepth != 0 {
		t.Errorf("retry queue depth %d after stop", s.RetryDepth)
	}
	if s.HARQBuffers != 0 {
		t.Errorf("%d live HARQ buffers after stop", s.HARQBuffers)
	}
	for i, c := range s.Cells {
		if c.QueueDepth != 0 {
			t.Errorf("cell %d queue depth %d after stop", i, c.QueueDepth)
		}
	}

	// -- every batch decodes -------------------------------------------
	// No fault site makes the decoder refuse a batch: an eviction costs a
	// rebuilt state, never a decode.
	if s.Drops[DropDecode] != 0 {
		t.Errorf("%d blocks refused by the decoder", s.Drops[DropDecode])
	}
	if !faults {
		if s.CRCFailures != 0 || s.Delivered != s.Accepted {
			t.Errorf("clean phase: %d CRC failures, delivered %d of %d", s.CRCFailures, s.Delivered, s.Accepted)
		}
		if !health.Healthy {
			t.Errorf("clean phase: /healthz unhealthy: %s", health.Reason)
		}
		return
	}

	// -- recovery ------------------------------------------------------
	// Every CRC-affected block ends recovered (delivered on a retry) or
	// in a harq/shutdown drop; the acceptance bar is 95 % recovery.
	affected := s.HARQRecovered + s.Drops[DropHARQ] + s.Drops[DropShutdown]
	if affected == 0 {
		t.Fatalf("soak injected no CRC faults (crcFailures=%d)", s.CRCFailures)
	}
	recovery := float64(s.HARQRecovered) / float64(affected)
	t.Logf("seed %d: offered %d, delivered %d; %d CRC failures, %d retries, %d recovered (%.1f%% of %d affected); drops %v; chaos %v",
		seed, offered, s.Delivered, s.CRCFailures, s.HARQRetries, s.HARQRecovered,
		100*recovery, affected, s.DropsByCause(), siteSummary(inj))
	if recovery < 0.95 {
		t.Errorf("HARQ recovery %.1f%% below the 95%% acceptance bar", 100*recovery)
	}

	// -- fault sites actually fired ------------------------------------
	// Only the runtime's own sites: the fronthaul link sites fire on the
	// shard transport path, exercised by the shard package's soak.
	linkSites := map[string]bool{
		chaos.SiteLinkDrop.String(): true, chaos.SiteLinkDelay.String(): true,
		chaos.SiteLinkPart.String(): true,
	}
	for _, c := range inj.Counters() {
		if c.Trials == 0 && !linkSites[c.Site] {
			t.Errorf("site %s never consulted", c.Site)
		}
	}
	if s.CRCFailures == 0 {
		t.Error("no CRC failures under 10% forced-failure chaos")
	}

	// -- goroutine leak ------------------------------------------------
	leakBy := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(leakBy) {
			t.Errorf("goroutines %d after stop, baseline %d", runtime.NumGoroutine(), baseline)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func siteSummary(in *chaos.Injector) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range in.Counters() {
		if c.Fires > 0 {
			out[c.Site] = c.Fires
		}
	}
	return out
}
