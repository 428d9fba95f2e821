// Command vranserve runs the concurrent multi-cell serving runtime
// against synthetic traffic: per-cell Poisson (or bursty) arrivals of
// same-K code blocks, deadline-aware admission, lane-fill batching, and
// a decode worker pool — printing live stats while it runs and a final
// report cross-checked against the analytic TTI queueing model.
//
// Usage:
//
//	vranserve [-cells 3] [-ues 8] [-workers 4] [-k 40] [-iters 4]
//	          [-rate 0.3] [-burst] [-ttis 2000] [-tti 1ms]
//	          [-deadline 10ms] [-queue 64] [-harq-retries 3]
//	          [-saturate] [-stats 1s] [-seed 1] [-admin :9090] [-notrace]
//	          [-class urllc,embb]
//	          [-chaos] [-chaos-corrupt 0.05] [-chaos-crc 0.05]
//
// The decoder build is W512/APCM (vranpipe and vranbench compare the rest).
//
// -chaos arms the fault injector (internal/chaos), seeded from -seed, at
// the two decode-path sites: received words corrupted at submit and CRC
// verdicts forced to fail. Decode failures route through the HARQ
// soft-combining retry path instead of dropping, visible as the
// vran_harq_* and vran_chaos_injected_total families on /metrics.
//
// -class assigns SLA classes to cells (the list cycles: "urllc,embb"
// makes every other cell URLLC). With URLLC cells configured the
// runtime decodes URLLC ahead of eMBB and reports per-class ledgers
// (vran_class_* families). Each (cell, class) has its own queue bound,
// so an eMBB overload is refused at its own full queues ("backlog")
// and never fills a URLLC queue.
//
// With -admin an HTTP endpoint exposes the runtime while it serves:
// /metrics (Prometheus text, ?format=json for JSON), /snapshot,
// /spans, /healthz, and /debug/pprof. Span tracing is on by default
// when the admin endpoint is mounted; -notrace disables it.
//
// The process exits non-zero if the runtime's ledger does not balance
// after Stop: every offered block counted (ran.Ledger.Offered) and every
// accepted one ended (ran.Ledger.Terminal).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/cliutil"
	"vransim/internal/pipeline"
	"vransim/internal/ran"
	"vransim/internal/simd/program"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

func main() {
	rf := cliutil.RegisterRuntime(flag.CommandLine)
	ues := flag.Int("ues", 8, "UEs per cell")
	rate := flag.Float64("rate", 0.3, "mean code blocks per cell per TTI")
	burst := flag.Bool("burst", false, "bursty (on/off) arrivals instead of Poisson")
	ttis := flag.Int("ttis", 2000, "run horizon in TTIs")
	tti := flag.Duration("tti", time.Millisecond, "TTI length")
	saturate := flag.Bool("saturate", false, "submit without TTI pacing (saturating load)")
	stats := flag.Duration("stats", time.Second, "live stats interval (0 disables)")
	seed := flag.Int64("seed", 1, "traffic and chaos seed")
	admin := flag.String("admin", "", "admin HTTP listen address (e.g. :9090; empty disables)")
	notrace := flag.Bool("notrace", false, "disable span tracing even when -admin is set")
	cf := cliutil.RegisterChaos(flag.CommandLine, cliutil.DecodeChaos)
	flag.Parse()

	cfg, err := rf.Config()
	if err != nil {
		fatal("%v", err)
	}
	k := rf.K

	var tracer *telemetry.Tracer
	if *admin != "" && !*notrace {
		tracer = telemetry.NewTracer(512, 16)
	}
	cfg.Tracer = tracer

	pool, err := ran.NewWordPool(*k, 128, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fatal("%v", err)
	}
	// Every pool word ends in a CRC24B, checked on the decoded bits: a
	// chaos-corrupted reception that decodes to the wrong payload routes
	// into the HARQ retry path instead of being delivered.
	cfg.CheckCRC = ran.CRC24B

	inj := cf.Injector(*seed)
	if inj != nil {
		cfg.Chaos = inj
	}

	// Compile the block size the flags name before any traffic is
	// admitted: every worker then adopts the one program, and no block
	// waits on a compile. A size that is not valid or does not compile
	// would fail every batch, so the process refuses to start.
	if err := turbo.Precompile(cfg.Width, cfg.Strategy, *rf.K); err != nil {
		fatal("%v", err)
	}
	rt, err := ran.New(cfg)
	if err != nil {
		fatal("%v", err)
	}

	var adminSrv *telemetry.AdminServer
	if *admin != "" {
		adminSrv = ran.MountAdmin(rt, tracer, *admin, ran.HealthPolicy{}, inj.Families)
		if err := adminSrv.Start(); err != nil {
			fatal("admin endpoint: %v", err)
		}
		fmt.Printf("admin endpoint on %s (/metrics /snapshot /spans /healthz /debug/pprof)\n", adminSrv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			adminSrv.Shutdown(ctx)
		}()
	}

	fmt.Printf("vranserve: %d cells x %d UEs, %d workers, %v/%s, %s kernel, K=%d, %s arrivals at %.2f blocks/cell/TTI\n",
		cfg.Cells, *ues, cfg.Workers, cfg.Width, cfg.Strategy, program.Kernel(), *k, arrivalName(*burst), *rate)
	fmt.Printf("deadline %v, %d lanes, queue depth %d, %d TTIs of %v\n",
		cfg.Deadline, rt.Lanes(), cfg.QueueDepth, *ttis, *tti)
	fmt.Printf("HARQ: %d retries, %d processes/UE\n", cfg.HARQ.MaxRetries, ran.HARQProcesses)
	if len(cfg.SLA.Classes) > 0 {
		fmt.Printf("SLA classes:")
		for i, c := range cfg.SLA.Classes {
			fmt.Printf(" cell%d=%s", i, c)
		}
		fmt.Println()
	}
	if inj != nil {
		fmt.Printf("chaos armed (seed %d): corrupt=%.2f crc=%.2f\n", *seed, *cf.Corrupt, *cf.CRC)
	}
	fmt.Println()

	src := ran.Source{Mean: *rate}
	if *burst {
		src.Burst = 4
	}
	load := ran.LoadConfig{
		Cells: ran.Uniform(cfg.Cells, src), UEs: *ues, TTI: *tti, TTIs: *ttis, Seed: *seed,
	}
	if *saturate {
		load.TTI = 0
	}
	sched := ran.NewSchedule(load)
	done := make(chan *ran.LoadReport, 1)
	go func() {
		rep := ran.OfferLoad(sched, 0, *ttis, pool, rt.SubmitProcess)
		done <- &rep
	}()

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *stats > 0 {
		ticker = time.NewTicker(*stats)
		tick = ticker.C
		defer ticker.Stop()
	}
	var report *ran.LoadReport
	for report == nil {
		select {
		case report = <-done:
		case <-tick:
			live(rt.Snapshot())
		}
	}
	snap := rt.Stop()
	final(snap, report, cfg, pool.K, *tti, inj)
	if snap.Offered() != uint64(report.Offered) || snap.Terminal() != snap.Accepted {
		fatal("ledger broken: offered %d, runtime counted %d; accepted %d, terminal %d",
			report.Offered, snap.Offered(), snap.Accepted, snap.Terminal())
	}
}

func arrivalName(burst bool) string {
	if burst {
		return "bursty"
	}
	return "poisson"
}

// live prints one in-flight stats line.
func live(s *ran.Snapshot) {
	depth := 0
	for _, c := range s.Cells {
		depth += c.QueueDepth
	}
	fmt.Printf("[%6.1fs] delivered %7d  dropped %6d  queue %4d  goodput %7.2f Mbps  lanes %4.0f%%  p99 %7s  util %3.0f%%\n",
		s.Elapsed.Seconds(), s.Delivered, s.Dropped(), depth, s.GoodputMbps,
		s.LaneOccupancy*100, s.LatencyP99.Round(10*time.Microsecond), s.WorkerUtilization*100)
}

// final prints the end-of-run report and the analytic cross-check.
func final(s *ran.Snapshot, rep *ran.LoadReport, cfg ran.Config, k int, tti time.Duration, inj *chaos.Injector) {
	fmt.Printf("\n===== final report (%.1fs) =====\n", s.Elapsed.Seconds())
	fmt.Printf("%-6s %10s %10s %10s %10s %10s\n", "cell", "accepted", "delivered", "dropped", "Mbps", "queue")
	for i, c := range s.Cells {
		fmt.Printf("%-6d %10d %10d %10d %10.2f %10d\n", i, c.Accepted, c.Delivered, c.Dropped(), c.Mbps, c.QueueDepth)
	}
	fmt.Printf("\noffered %d blocks, accepted %d, delivered %d (%.1f%% of offered); generator slip %v\n",
		rep.Offered, s.Accepted, s.Delivered, 100*float64(s.Delivered)/float64(max(1, rep.Offered)),
		rep.Slip.Round(time.Microsecond))
	fmt.Printf("drops by cause: ")
	for cause, n := range s.DropsByCause() {
		fmt.Printf("%s=%d ", cause, n)
	}
	fmt.Println()
	fmt.Printf("goodput %.2f Mbps, lane occupancy %.1f%% over %d batches, worker utilization %.0f%%\n",
		s.GoodputMbps, 100*s.LaneOccupancy, s.Batches, 100*s.WorkerUtilization)
	fmt.Printf("latency p50/p90/p99: %v / %v / %v; mean decode %.0f µs/block\n",
		s.LatencyP50.Round(10*time.Microsecond), s.LatencyP90.Round(10*time.Microsecond),
		s.LatencyP99.Round(10*time.Microsecond), s.AvgDecodeUs)
	if s.CRCFailures > 0 || s.HARQRetries > 0 {
		fmt.Printf("HARQ: %d CRC failures, %d retries, %d recovered by combining; %d combines, %d buffer evictions\n",
			s.CRCFailures, s.HARQRetries, s.HARQRecovered, s.HARQCombines, s.HARQEvictions)
	}
	if len(cfg.SLA.Classes) > 0 {
		fmt.Printf("\n%-6s %10s %10s %10s %10s %10s %10s\n", "class", "accepted", "delivered", "dropped", "backlog", "p99", "p50")
		for c := ran.Class(0); c < ran.NumClasses; c++ {
			ks := s.Classes[c]
			fmt.Printf("%-6s %10d %10d %10d %10d %10v %10v\n", c, ks.Accepted, ks.Delivered, ks.Dropped(),
				ks.Drops[ran.DropBacklog], ks.LatencyP99.Round(10*time.Microsecond), ks.LatencyP50.Round(10*time.Microsecond))
		}
		fmt.Printf("worker steals %d\n", s.Steals)
	}
	if inj != nil {
		fmt.Printf("chaos: ")
		for _, c := range inj.Counters() {
			fmt.Printf("%s=%d/%d ", c.Site, c.Fires, c.Trials)
		}
		fmt.Println("(injected/trials)")
	}

	// Cross-check against the analytic earliest-free-core model fed with
	// the measured per-block decode cost and the actual arrival pattern.
	if s.DecodedBlocks == 0 {
		return
	}
	model := pipeline.TTIConfig{
		TTIUs:      ttiUs(tti),
		ProcUs:     s.AvgDecodeUs,
		TBBits:     k,
		DeadlineUs: float64(cfg.Deadline.Microseconds()),
		Cores:      cfg.Workers,
	}
	delivered, mbps := model.SimulateArrivals(rep.Arrivals)
	measured := float64(s.Delivered) / float64(max(1, rep.Offered))
	fmt.Printf("\nanalytic cross-check (pipeline.TTIConfig, measured %.0f µs/block, %d cores):\n", s.AvgDecodeUs, cfg.Workers)
	fmt.Printf("  delivery: measured %.1f%%  vs model %.1f%%\n", 100*measured, 100*delivered)
	fmt.Printf("  goodput:  measured %.2f Mbps vs model %.2f Mbps\n", s.GoodputMbps, mbps)
	fmt.Println("  (the model has no batching, admission or queue bound; gaps show what the runtime adds)")
}

func ttiUs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vranserve: "+format+"\n", args...)
	os.Exit(1)
}
