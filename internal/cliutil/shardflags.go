package cliutil

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/core"
	"vransim/internal/ran"
	"vransim/internal/simd"
)

// This file is the flag plumbing shared by the serving binaries —
// vranserve (single process), vranshard (shard worker) and vrancoord
// (fleet coordinator) — so they accept the same runtime and chaos
// vocabulary instead of copy-pasting flag blocks that drift.
// A knob is a flag here only if a CI step, the README or a script sets
// it; every other one keeps its ran, shard or chaos default.

// RuntimeFlags is the serving-runtime flag set, registered with
// identical names and defaults by vranserve and vranshard.
type RuntimeFlags struct {
	Cells, Workers  *int
	K, Iters, Queue *int
	Deadline        *time.Duration
	HARQRetries     *int
	Class           *string
}

// RegisterRuntime registers the runtime flags on fs.
func RegisterRuntime(fs *flag.FlagSet) *RuntimeFlags {
	return &RuntimeFlags{
		Cells:       fs.Int("cells", 3, "number of served cells"),
		Workers:     fs.Int("workers", 4, "decode worker pool size"),
		K:           fs.Int("k", 40, "turbo code block size"),
		Iters:       fs.Int("iters", 4, "turbo decoder iteration budget"),
		Deadline:    fs.Duration("deadline", 10*time.Millisecond, "per-block HARQ processing budget (the emulated decoder is ~1000x a real one, so the default budget is loose)"),
		Queue:       fs.Int("queue", 64, "blocks one cell may have waiting for a worker, per traffic class"),
		HARQRetries: fs.Int("harq-retries", 3, "HARQ retransmission budget per block (0 disables the retry path)"),
		Class:       fs.String("class", "", "per-cell SLA class list, comma-separated and cycled over cells (e.g. \"urllc,embb\"); empty = class-blind"),
	}
}

// Config resolves the parsed flags into a ran.Config. The serving
// decoder build is W512/APCM: a packed batch costs the same at every
// width, so the widest register carries the most blocks for it, and the
// other widths and strategies are vranpipe's and vranbench's.
func (rf *RuntimeFlags) Config() (ran.Config, error) {
	cfg := ran.DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells = *rf.Cells
	cfg.Workers = *rf.Workers
	cfg.QueueDepth = *rf.Queue
	cfg.MaxIters = *rf.Iters
	cfg.Deadline = *rf.Deadline
	cfg.HARQ = ran.HARQConfig{MaxRetries: *rf.HARQRetries}
	classes, err := ran.ParseClassList(*rf.Class, cfg.Cells)
	if err != nil {
		return ran.Config{}, fmt.Errorf("-class: %w", err)
	}
	cfg.SLA = ran.SLAConfig{Classes: classes}
	return cfg, nil
}

// ChaosRole names the fault sites a binary owns, and so the rate flags
// RegisterChaos gives it.
type ChaosRole int

const (
	// DecodeChaos is a runtime binary's: words corrupted at submit and
	// CRC verdicts forced to fail after decode.
	DecodeChaos ChaosRole = iota
	// LinkChaos is the coordinator's: data frames lost or reordered on
	// the fronthaul links it writes.
	LinkChaos
)

// ChaosFlags is the fault-injection flag set: -chaos and the rates of
// the binary's own sites. A site the binary does not own reads rate 0.
type ChaosFlags struct {
	On                                *bool
	Corrupt, CRC, LinkDrop, LinkDelay *float64
}

// RegisterChaos registers -chaos and the rate flags of role's sites on
// fs.
func RegisterChaos(fs *flag.FlagSet, role ChaosRole) *ChaosFlags {
	cf := &ChaosFlags{
		On:      fs.Bool("chaos", false, "arm the fault injector, seeded from -seed (see the -chaos-* rates)"),
		Corrupt: new(float64), CRC: new(float64), LinkDrop: new(float64), LinkDelay: new(float64),
	}
	switch role {
	case DecodeChaos:
		cf.Corrupt = fs.Float64("chaos-corrupt", 0.05, "probability a submitted word is received noisily")
		cf.CRC = fs.Float64("chaos-crc", 0.05, "probability a decode's CRC verdict is forced to fail")
	case LinkChaos:
		cf.LinkDrop = fs.Float64("chaos-linkdrop", 0, "probability a fronthaul data frame is lost in flight")
		cf.LinkDelay = fs.Float64("chaos-linkdelay", 0, "probability a fronthaul data frame is reordered behind its successor")
	}
	return cf
}

// Injector builds the armed injector seeded with seed, or nil when
// -chaos is unset.
func (cf *ChaosFlags) Injector(seed int64) *chaos.Injector {
	if !*cf.On {
		return nil
	}
	return chaos.New(chaos.Config{
		Seed:          seed,
		CorruptRate:   *cf.Corrupt,
		CRCRate:       *cf.CRC,
		LinkDropRate:  *cf.LinkDrop,
		LinkDelayRate: *cf.LinkDelay,
	})
}

// ParseShardAddrs splits a -shards value ("host:port,host:port,…") into
// the shard worker addresses, rejecting empty lists and entries without
// a port.
func ParseShardAddrs(csv string) ([]string, error) {
	var addrs []string
	for _, a := range strings.Split(csv, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, ":") {
			return nil, fmt.Errorf("shard address %q has no port", a)
		}
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no shard addresses (want host:port[,host:port...])")
	}
	return addrs, nil
}
