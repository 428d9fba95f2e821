// chaos demonstrates the fault-injection subsystem and the HARQ
// retransmission path it exercises: the same Poisson load is served
// twice — once clean, once with a seeded injector forcing CRC failures
// and corrupting received words — and the recovery ledger shows how
// soft-combined retransmissions turn would-be losses back into
// deliveries. A third, saturating run trips the graceful-degradation
// ladder: under backlog pressure the workers clamp their turbo
// iteration budget before the admission path starts shedding load.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/core"
	"vransim/internal/ran"
	"vransim/internal/simd"
)

func main() {
	seed := flag.Int64("seed", 1, "traffic and chaos seed")
	flag.Parse()

	const k = 104
	pool, err := ran.NewWordPool(k, 128, rand.New(rand.NewSource(*seed)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== 1. clean baseline ===")
	run(pool, *seed, nil, 1.0, time.Millisecond)

	fmt.Println("\n=== 2. chaos: 10% forced CRC failures, 10% noisy receptions ===")
	inj := chaos.New(chaos.Config{
		Seed:        *seed,
		CRCRate:     0.10,
		CorruptRate: 0.10,
	})
	run(pool, *seed, inj, 1.0, time.Millisecond)
	fmt.Println("fault-site ledger (injected/trials):")
	for _, c := range inj.Counters() {
		if c.Trials > 0 {
			fmt.Printf("  %-8s %6d / %d\n", c.Site, c.Fires, c.Trials)
		}
	}

	fmt.Println("\n=== 3. overload: degradation ladder under saturating load ===")
	run(pool, *seed, nil, 16.0, 0)
}

// run serves Poisson traffic through a fresh runtime with the serving
// decoder build, W512/APCM (optionally under chaos injection), and
// prints the delivery/recovery ledger.
func run(pool *ran.WordPool, seed int64, inj *chaos.Injector, rate float64, tti time.Duration) {
	cfg := ran.DefaultConfig(simd.W512, core.StrategyAPCM)
	// The emulated decoder is ~1000x a real one, so the per-block budget
	// is loose — the point here is the failure path, not the deadline.
	cfg.Deadline = 100 * time.Millisecond
	cfg.CheckCRC = ran.CRC24B
	cfg.Chaos = inj
	rt, err := ran.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// An unpaced run (TTI 0) offers the whole schedule as fast as the
	// runtime takes it.
	load := ran.LoadConfig{
		Cells: ran.Uniform(cfg.Cells, ran.Source{Mean: rate}),
		UEs:   8, TTI: tti, TTIs: 400, Seed: seed,
	}
	rep := ran.OfferLoad(ran.NewSchedule(load), 0, 400, pool, rt.SubmitProcess)
	snap := rt.Stop()

	fmt.Printf("offered %d, accepted %d, delivered %d (%.1f%%)\n",
		rep.Offered, snap.Accepted, snap.Delivered,
		100*float64(snap.Delivered)/float64(maxInt(1, rep.Offered)))
	fmt.Printf("drops by cause: ")
	for cause, n := range snap.DropsByCause() {
		if n > 0 {
			fmt.Printf("%s=%d ", cause, n)
		}
	}
	fmt.Println()
	if snap.CRCFailures > 0 {
		recovered := 100 * float64(snap.HARQRecovered) / float64(maxU64(1, snap.HARQRetries))
		fmt.Printf("HARQ: %d CRC failures -> %d retries, %d recovered by soft combining (%.0f%% of retries)\n",
			snap.CRCFailures, snap.HARQRetries, snap.HARQRecovered, recovered)
		fmt.Printf("      %d combines, %d buffer evictions, %d live buffers at stop\n",
			snap.HARQCombines, snap.HARQEvictions, snap.HARQBuffers)
	}
	if snap.DegradedBatches > 0 {
		fmt.Printf("degradation: %d of %d batches decoded under a clamped iteration budget (final level %d)\n",
			snap.DegradedBatches, snap.Batches, snap.DegradeLevel)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
