// Command vranshard runs one shard worker of a distributed vRAN
// deployment: a serving runtime (internal/ran) fronted by the fronthaul
// frame protocol, ready to be driven by a vrancoord coordinator over
// TCP.
//
// Usage:
//
//	vranshard -listen 127.0.0.1:7101 [-admin :9191]
//	          [-cells 3] [-workers 4] [-k 40] [-iters 4]
//	          [-deadline 10ms] [-queue 64] [-harq-retries 3]
//	          [-class urllc,embb] [-predict] [-seed 1] [-trace-ring 256]
//	          [-chaos] [-chaos-corrupt 0.05] [-chaos-crc 0.05]
//
// As on vranserve, the decoder is W512/APCM and -chaos arms the
// decode-path fault sites, seeded from -seed.
//
// The worker accepts any number of fronthaul connections on -listen and
// serves each until EOF; the coordinator conventionally opens two per
// shard (a lossy U-plane data link and a lock-step M-plane control
// link), but the worker treats every connection uniformly. -cells is
// the FLEET cell count — cell ids are global across shards, and the
// coordinator routes each cell to exactly one worker.
//
// Decode acceptance is the content CRC24B check (ran.CRC24B), the same
// as vranserve's: it needs only the bits that crossed the wire. Blocks
// whose payload does not end in a valid CRC24B suffix route into the
// HARQ retry path.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"vransim/internal/chaos"
	"vransim/internal/cliutil"
	"vransim/internal/fronthaul"
	"vransim/internal/ran"
	"vransim/internal/shard"
	"vransim/internal/simd/program"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

func main() {
	rf := cliutil.RegisterRuntime(flag.CommandLine)
	listen := flag.String("listen", "127.0.0.1:7101", "fronthaul listen address")
	admin := flag.String("admin", "", "admin HTTP listen address (e.g. :9191; empty disables)")
	seed := flag.Int64("seed", 1, "chaos seed")
	traceRing := flag.Int("trace-ring", 256, "local span ring size for the admin /spans view")
	cf := cliutil.RegisterChaos(flag.CommandLine, cliutil.DecodeChaos)
	flag.Parse()

	cfg, err := rf.Config()
	if err != nil {
		fatal("%v", err)
	}
	cfg.CheckCRC = ran.CRC24B
	tr := telemetry.NewTracer(*traceRing, 0)
	cfg.Tracer = tr
	var inj *chaos.Injector
	if inj = cf.Injector(*seed); inj != nil {
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
	w := shard.NewWorker(rt)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("vranshard: serving %d fleet cells on %s (%d workers, %v/%s, %s kernel, queue %d)\n",
		cfg.Cells, ln.Addr(), cfg.Workers, cfg.Width, cfg.Strategy, program.Kernel(), cfg.QueueDepth)

	if *admin != "" {
		srv := ran.MountAdmin(rt, tr, *admin, ran.HealthPolicy{}, inj.Families)
		if err := srv.Start(); err != nil {
			fatal("admin endpoint: %v", err)
		}
		fmt.Printf("admin endpoint on %s\n", srv.Addr())
	}

	// Serve until signalled; each accepted connection gets its own
	// serve loop and the listener close unblocks Accept.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var wg sync.WaitGroup
	go func() {
		<-stop
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			if err := w.ServeConn(fronthaul.NewLink(conn, nil)); err != nil {
				fmt.Fprintf(os.Stderr, "vranshard: conn %s: %v\n", conn.RemoteAddr(), err)
			}
		}(conn)
	}
	wg.Wait()
	s := rt.Stop()
	fmt.Printf("vranshard: stopped; accepted %d, delivered %d, dropped %d\n",
		s.Accepted, s.Delivered, s.Dropped())
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vranshard: "+format+"\n", args...)
	os.Exit(1)
}
