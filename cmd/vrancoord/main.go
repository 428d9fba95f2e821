// Command vrancoord is the DU-side coordinator of a distributed vRAN
// deployment: it dials a fleet of vranshard workers over TCP, owns the
// cell→shard route, streams synthetic traffic through the fronthaul,
// optionally force-migrates a live cell mid-run (-migrate-cell, the
// only way a cell changes shard), and reports the fleet-aggregated
// ledger at the end.
//
// Usage:
//
//	vrancoord -shards 127.0.0.1:7101,127.0.0.1:7102
//	          [-cells 4] [-k 40] [-rate 2] [-ttis 400] [-tti 1ms]
//	          [-deadline 10ms] [-seed 1] [-admin :9190] [-hold 0s]
//	          [-migrate-cell -1] [-migrate-at -1]
//	          [-trace-sample 1] [-slo-target 0] [-slo-objective 0.999]
//	          [-slo-window 1m] [-connect-timeout 10s] [-settle 30s]
//	          [-chaos] [-chaos-linkdrop 0.02] [-chaos-linkdelay 0.05]
//
// Each shard gets two connections: a data link (the lossy U-plane,
// where -chaos arms the link-drop and reorder sites, seeded from -seed;
// the decode-path sites are the shards' own) and a control link (the reliable
// M-plane carrying snapshot and migration RPCs). Traffic is Poisson,
// -rate mean blocks per cell per TTI as in vranserve, drawn up front and
// paced by ran.OfferLoad; block n of a cell goes to UE n % 8 on HARQ
// process (n / 8) % 8, so concurrently-live blocks of a cell hold
// distinct (UE, process) pairs. With -admin the
// coordinator exposes /metrics: the fleet-aggregated vran_* families
// plus the vran_shard_* routing/migration/link overlay; -hold keeps the
// endpoint up after the run for scrapers. The process exits non-zero if
// the fleet ledger does not balance (accepted ≠ ran.Ledger.Terminal
// after settling).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/cliutil"
	"vransim/internal/fronthaul"
	"vransim/internal/ran"
	"vransim/internal/shard"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

func main() {
	shards := flag.String("shards", "", "comma-separated vranshard addresses (required)")
	cells := flag.Int("cells", 4, "fleet-wide cell count (must match the workers' -cells)")
	k := flag.Int("k", 40, "turbo code block size")
	rate := flag.Float64("rate", 2, "mean code blocks per cell per TTI")
	ttis := flag.Int("ttis", 400, "run horizon in TTIs")
	tti := flag.Duration("tti", time.Millisecond, "TTI length")
	deadline := flag.Duration("deadline", 10*time.Millisecond, "per-block budget hint stamped into data frames")
	seed := flag.Int64("seed", 1, "traffic and chaos seed")
	admin := flag.String("admin", "", "admin HTTP listen address (e.g. :9190; empty disables)")
	hold := flag.Duration("hold", 0, "keep the admin endpoint up this long after the run")
	migrateCell := flag.Int("migrate-cell", -1, "cell to force-migrate mid-run (-1 disables)")
	migrateAt := flag.Int("migrate-at", -1, "TTI index of the forced migration (-1: half the horizon)")
	traceSample := flag.Int("trace-sample", 1, "trace every Nth submission end to end (0 disables tracing)")
	sloTarget := flag.Duration("slo-target", 0, "SLO latency target (0: the -deadline value)")
	sloObjective := flag.Float64("slo-objective", 0.999, "SLO success objective (fraction of blocks delivered within target)")
	sloWindow := flag.Duration("slo-window", time.Minute, "fast burn-rate window (slow window is 10x)")
	connectTimeout := flag.Duration("connect-timeout", 10*time.Second, "per-shard dial budget (retries until it expires)")
	settleTimeout := flag.Duration("settle", 30*time.Second, "post-traffic settle budget")
	cf := cliutil.RegisterChaos(flag.CommandLine, cliutil.LinkChaos)
	flag.Parse()

	addrs, err := cliutil.ParseShardAddrs(*shards)
	if err != nil {
		fatal("-shards: %v", err)
	}
	inj := cf.Injector(*seed)

	// Two links per shard: the chaos-faulted data plane and the clean
	// control plane. Workers may still be starting — retry the dials.
	conns := make([]*shard.ShardConn, len(addrs))
	for i, addr := range addrs {
		data, err := dialRetry(addr, *connectTimeout)
		if err != nil {
			fatal("shard %s: %v", addr, err)
		}
		ctrl, err := dialRetry(addr, *connectTimeout)
		if err != nil {
			fatal("shard %s: %v", addr, err)
		}
		conns[i] = &shard.ShardConn{
			Name: addr,
			Data: fronthaul.NewLink(data, inj),
			Ctrl: fronthaul.NewLink(ctrl, nil),
		}
	}

	coord, err := shard.NewCoordinator(shard.Config{
		Cells: *cells, Deadline: *deadline,
		Trace: shard.TraceConfig{
			Sample: *traceSample,
			SLO: telemetry.SLOConfig{
				Target: *sloTarget, Objective: *sloObjective, Fast: *sloWindow,
			},
		},
	}, conns)
	if err != nil {
		fatal("%v", err)
	}

	if *admin != "" {
		srv := coord.MountAdmin(*admin)
		if err := srv.Start(); err != nil {
			fatal("admin endpoint: %v", err)
		}
		fmt.Printf("admin endpoint on %s\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}

	pool, err := ran.NewWordPool(*k, 128, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("vrancoord: %d cells over %d shards, %.2f blocks/cell/TTI, %d TTIs of %v, K=%d\n",
		*cells, len(addrs), *rate, *ttis, *tti, *k)

	sched := ran.NewSchedule(ran.LoadConfig{
		Cells: ran.Uniform(*cells, ran.Source{Mean: *rate}),
		UEs:   8, TTI: *tti, TTIs: *ttis, Seed: *seed,
	})
	submit := func(cell, ue, proc, k int, w *turbo.LLRWord) error {
		if err := coord.Submit(cell, ue, proc, k, w); err != nil {
			fatal("submit: %v", err)
		}
		return nil
	}
	// A forced migration runs after TTI migAt, between two calls over
	// the one schedule.
	split := *ttis
	if *migrateCell >= 0 {
		migAt := *migrateAt
		if migAt < 0 {
			migAt = *ttis / 2
		}
		split = min(migAt+1, *ttis)
	}
	offered := ran.OfferLoad(sched, 0, split, pool, submit).Offered
	if *migrateCell >= 0 {
		to := (coord.Route(*migrateCell) + 1) % coord.Shards()
		if err := coord.MigrateCell(*migrateCell, to); err != nil {
			fatal("migration: %v", err)
		}
		fmt.Printf("[tti %d] migrated cell %d to shard %d\n", split-1, *migrateCell, to)
	}
	offered += ran.OfferLoad(sched, split, *ttis, pool, submit).Offered

	agg, per, err := settle(coord, *settleTimeout)
	if err != nil {
		fatal("%v", err)
	}
	report(coord, agg, per, offered, inj)

	if *hold > 0 {
		fmt.Printf("holding admin endpoint for %v\n", *hold)
		time.Sleep(*hold)
	}
	coord.Stop()
	if terminal := agg.Terminal(); agg.Accepted != terminal {
		fatal("fleet ledger broken: accepted %d != terminal %d", agg.Accepted, terminal)
	}
}

// dialRetry dials addr until it succeeds or the budget expires — shard
// workers may come up after the coordinator.
func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// settle polls the fleet until every accepted block is terminal and the
// retry queues are empty, stable across several polls (frames may still
// be draining out of socket buffers when traffic stops).
func settle(c *shard.Coordinator, budget time.Duration) (*ran.Snapshot, []*ran.Snapshot, error) {
	deadline := time.Now().Add(budget)
	stable := 0
	var last uint64
	for {
		agg, per, err := c.FleetSnapshot()
		if err != nil {
			return nil, nil, err
		}
		terminal := agg.Terminal()
		if terminal >= agg.Accepted && agg.RetryDepth == 0 {
			if agg.Accepted == last {
				if stable++; stable >= 5 {
					return agg, per, nil
				}
			} else {
				stable = 0
			}
			last = agg.Accepted
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("fleet did not settle in %v: accepted %d, terminal %d, retry %d",
				budget, agg.Accepted, terminal, agg.RetryDepth)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func report(c *shard.Coordinator, agg *ran.Snapshot, per []*ran.Snapshot, offered int, inj *chaos.Injector) {
	fmt.Printf("\n===== fleet report =====\n")
	fmt.Printf("%-24s %10s %10s %10s %8s\n", "shard", "accepted", "delivered", "dropped", "cells")
	for i, s := range per {
		owned := 0
		for cell := 0; cell < len(s.Cells); cell++ {
			if c.Route(cell) == i {
				owned++
			}
		}
		fmt.Printf("%-24d %10d %10d %10d %8d\n", i, s.Accepted, s.Delivered, s.Dropped(), owned)
	}
	fmt.Printf("\noffered %d, accepted %d, delivered %d (fleet goodput %.2f Mbps, p99 %v)\n",
		offered, agg.Accepted, agg.Delivered, agg.GoodputMbps,
		agg.LatencyP99.Round(10*time.Microsecond))
	fmt.Printf("drops by cause: ")
	for cause, n := range agg.DropsByCause() {
		fmt.Printf("%s=%d ", cause, n)
	}
	fmt.Println()
	if agg.HARQRetries > 0 {
		fmt.Printf("HARQ: %d retries, %d recovered\n", agg.HARQRetries, agg.HARQRecovered)
	}
	// Per-class fleet view, present when any worker runs class-aware
	// (-class on the vranshard command line).
	if agg.Classes[ran.ClassURLLC].Accepted > 0 || agg.Steals > 0 {
		fmt.Printf("\n%-6s %10s %10s %10s %10s %10s\n", "class", "accepted", "delivered", "dropped", "backlog", "p99")
		for cl := ran.Class(0); cl < ran.NumClasses; cl++ {
			ks := agg.Classes[cl]
			fmt.Printf("%-6s %10d %10d %10d %10d %10v\n", cl, ks.Accepted, ks.Delivered, ks.Dropped(),
				ks.Drops[ran.DropBacklog], ks.LatencyP99.Round(10*time.Microsecond))
		}
		fmt.Printf("worker steals %d\n", agg.Steals)
	}
	if inj != nil {
		fmt.Printf("chaos: ")
		for _, ct := range inj.Counters() {
			fmt.Printf("%s=%d/%d ", ct.Site, ct.Fires, ct.Trials)
		}
		fmt.Println("(injected/trials)")
	}
	if col := c.Collector(); col.SpanCount() > 0 {
		fmt.Printf("\ntraces: %d spans merged\n", col.SpanCount())
		fmt.Printf("%-12s %8s %12s %12s %12s\n", "hop", "spans", "mean", "p99", "budget")
		sums := col.HopSummaries()
		var meanSum time.Duration
		for _, h := range sums {
			meanSum += time.Duration(float64(h.Mean) * float64(h.Count))
		}
		for _, h := range sums {
			if h.Count == 0 {
				continue
			}
			share := 0.0
			if meanSum > 0 {
				share = float64(h.Mean) * float64(h.Count) / float64(meanSum)
			}
			fmt.Printf("%-12s %8d %12v %12v %11.1f%%\n", h.Stage, h.Count,
				h.Mean.Round(time.Microsecond), h.P99.Round(time.Microsecond), 100*share)
		}
		slo := col.SLO()
		good, bad := slo.Totals()
		fmt.Printf("SLO: target %v objective %.4f — %d good / %d bad, fast burn %.2f, budget remaining %.2f\n",
			slo.Config().Target, slo.Config().Objective, good, bad,
			slo.BurnRate(slo.Config().Fast), slo.BudgetRemaining(slo.Config().Fast))
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vrancoord: "+format+"\n", args...)
	os.Exit(1)
}
