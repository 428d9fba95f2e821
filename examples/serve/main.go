// serve demonstrates how the concurrent serving runtime fills wide
// registers without a batch window. A wide register only pays when its
// lane groups are full, but waiting for co-travellers costs latency, so
// the workers never wait: an idle worker takes whatever same-K blocks are
// waiting, up to a full register. This example serves Poisson load at
// three offered rates and shows lane occupancy following the load while
// the batch-stage dwell stays near zero.
//
// Each run mounts the telemetry admin endpoint on a loopback port and
// reads its own /snapshot over HTTP — the per-stage numbers printed
// below are exactly what an external scraper would see.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"syscall"
	"time"

	"vransim/internal/core"
	"vransim/internal/ran"
	"vransim/internal/simd"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// snapshot mirrors the wire shape of the admin /snapshot endpoint.
type snapshot struct {
	Snapshot struct {
		Delivered uint64
		Batches   uint64
	} `json:"snapshot"`
	Stages []telemetry.StageSummary `json:"stages"`
}

func main() {
	// The serving decoder build, as on vranserve.
	const w, s = simd.W512, core.StrategyAPCM
	pool, err := ran.NewWordPool(40, 64, rand.New(rand.NewSource(3)))
	if err != nil {
		log.Fatal(err)
	}
	// Compile the block size before any traffic, as vranserve does, so
	// the first run's first block does not wait on it.
	if err := turbo.Precompile(w, s, pool.K); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3 cells, 2 workers, %v, K=%d, poisson arrivals per cell per 1 ms TTI, 600 TTIs\n", w, pool.K)
	fmt.Println("per-load stage dwell read from the live admin /snapshot endpoint:")
	fmt.Println()
	fmt.Printf("%-12s %10s %10s %10s %14s %14s %14s %12s\n",
		"blocks/TTI", "delivered", "dropped", "lanes", "p99 queue", "p99 batch", "p99 decode", "cpu/block")
	for _, rate := range []float64{0.05, 0.6, 4} {
		cfg := ran.DefaultConfig(w, s)
		cfg.Cells = 3
		cfg.Workers = 2
		cfg.Deadline = 20 * time.Millisecond
		cfg.Tracer = telemetry.NewTracer(256, 8)
		rt, err := ran.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		admin := ran.MountAdmin(rt, cfg.Tracer, "127.0.0.1:0", ran.HealthPolicy{})
		if err := admin.Start(); err != nil {
			log.Fatal(err)
		}
		sched := ran.NewSchedule(ran.LoadConfig{
			Cells: ran.Uniform(cfg.Cells, ran.Source{Mean: rate}),
			UEs:   4, TTI: time.Millisecond, TTIs: 600, Seed: 9,
		})
		cpu0 := processCPU()
		done := make(chan struct{})
		go func() { ran.OfferLoad(sched, 0, 600, pool, rt.SubmitProcess); close(done) }()

		// Poll the endpoint while traffic flows, keeping the last scrape.
		var last snapshot
		tick := time.NewTicker(50 * time.Millisecond)
	poll:
		for {
			select {
			case <-done:
				break poll
			case <-tick.C:
				if s, err := scrape(admin.URL() + "/snapshot"); err == nil {
					last = s
				}
			}
		}
		tick.Stop()
		snap := rt.Stop()
		cpu := processCPU() - cpu0
		// One final scrape after the drain so the stage summaries cover
		// every delivered block.
		if s, err := scrape(admin.URL() + "/snapshot"); err == nil {
			last = s
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		admin.Shutdown(ctx)
		cancel()

		var p99Queue, p99Batch, p99Decode time.Duration
		for _, st := range last.Stages {
			switch st.Stage {
			case telemetry.StageQueue:
				p99Queue = st.P99
			case telemetry.StageBatch:
				p99Batch = st.P99
			case telemetry.StageDecode:
				p99Decode = st.P99
			}
		}
		var perBlock time.Duration
		if snap.Delivered > 0 {
			perBlock = cpu / time.Duration(snap.Delivered)
		}
		fmt.Printf("%-12v %10d %10d %9.0f%% %14v %14v %14v %12v\n",
			rate, snap.Delivered, snap.Dropped(), snap.LaneOccupancy*100,
			p99Queue.Round(10*time.Microsecond), p99Batch.Round(10*time.Microsecond),
			p99Decode.Round(time.Microsecond), perBlock.Round(time.Microsecond))
	}
	fmt.Println("\nlanes fill as the offered load rises, because blocks pile up while every")
	fmt.Println("worker is busy and the next take picks up all of them; no block waits")
	fmt.Println("for co-travellers, so the batch stage (a worker's take to its decode)")
	fmt.Println("stays near zero at every load and the wait is all in the queue stage.")
	fmt.Println("cpu/block is the whole process's CPU time over each run (getrusage:")
	fmt.Println("workers, generator, admin scrapes and the Go runtime) per delivered block;")
	fmt.Println("at light load it is mostly waking workers, not decoding.")
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		log.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape fetches and decodes one /snapshot from the admin endpoint.
func scrape(url string) (snapshot, error) {
	var s snapshot
	resp, err := http.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}
