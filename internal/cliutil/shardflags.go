package cliutil

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/ran"
	"vransim/internal/shard"
)

// This file is the flag plumbing shared by the serving binaries —
// vranserve (single process), vranshard (shard worker) and vrancoord
// (fleet coordinator) — so the three accept the same runtime, chaos and
// rebalance vocabulary instead of copy-pasting flag blocks that drift.

// RuntimeFlags is the serving-runtime flag set: every knob that shapes
// a ran.Config, registered with identical names and defaults across the
// binaries.
type RuntimeFlags struct {
	Cells, Workers, Width *int
	Mech                  *string
	K, Iters, Queue       *int
	Deadline              *time.Duration
	HARQRetries           *int
	HARQProcs             *int
	Class                 *string
	URLLCDeadline         *time.Duration
	Predict               *bool
	PredictWindow         *time.Duration
}

// RegisterRuntime registers the runtime flags on fs.
func RegisterRuntime(fs *flag.FlagSet) *RuntimeFlags {
	return &RuntimeFlags{
		Cells:         fs.Int("cells", 3, "number of served cells"),
		Workers:       fs.Int("workers", 4, "decode worker pool size"),
		Width:         fs.Int("width", 512, WidthHelp),
		Mech:          fs.String("mech", "apcm", MechHelp),
		K:             fs.Int("k", 40, "turbo code block size"),
		Iters:         fs.Int("iters", 4, "turbo decoder iteration budget"),
		Deadline:      fs.Duration("deadline", 10*time.Millisecond, "per-block HARQ processing budget (the emulated decoder is ~1000x a real one, so the default budget is loose)"),
		Queue:         fs.Int("queue", 64, "blocks one cell may have waiting for a worker, per traffic class"),
		HARQRetries:   fs.Int("harq-retries", 3, "HARQ retransmission budget per block (0 disables the retry path)"),
		HARQProcs:     fs.Int("harq-procs", 8, "HARQ processes per (cell, UE)"),
		Class:         fs.String("class", "", "per-cell SLA class list, comma-separated and cycled over cells (e.g. \"urllc,embb\"); empty = class-blind"),
		URLLCDeadline: fs.Duration("urllc-deadline", 0, "processing budget override for URLLC-class blocks (0: same as -deadline)"),
		Predict:       fs.Bool("predict", false, "arm the per-cell MMPP burst predictor feeding the class-aware shed ladder"),
		PredictWindow: fs.Duration("predict-window", time.Millisecond, "burst predictor rate-estimation window"),
	}
}

// Config resolves the parsed flags into a ran.Config (width and
// mechanism validated).
func (rf *RuntimeFlags) Config() (ran.Config, error) {
	w, err := ParseWidth(*rf.Width)
	if err != nil {
		return ran.Config{}, err
	}
	s, err := ParseStrategy(*rf.Mech)
	if err != nil {
		return ran.Config{}, err
	}
	cfg := ran.DefaultConfig(w, s)
	cfg.Cells = *rf.Cells
	cfg.Workers = *rf.Workers
	cfg.QueueDepth = *rf.Queue
	cfg.MaxIters = *rf.Iters
	cfg.Deadline = *rf.Deadline
	cfg.HARQ = ran.HARQConfig{MaxRetries: *rf.HARQRetries, Processes: *rf.HARQProcs}
	classes, err := ran.ParseClassList(*rf.Class, cfg.Cells)
	if err != nil {
		return ran.Config{}, fmt.Errorf("-class: %w", err)
	}
	cfg.SLA = ran.SLAConfig{Classes: classes, URLLCDeadline: *rf.URLLCDeadline}
	cfg.Predict = ran.PredictConfig{Enabled: *rf.Predict, Window: *rf.PredictWindow}
	return cfg, nil
}

// ChaosFlags is the fault-injection flag set. The decode-path rates
// match vranserve's historical flags; the chaos-link* rates arm the
// fronthaul sites and only matter to binaries that own a data link.
type ChaosFlags struct {
	On                                *bool
	Seed                              *int64
	Corrupt, CRC, Stall, Queue, Evict *float64
	Compile                           *float64
	LinkDrop, LinkDelay, LinkPart     *float64
	LinkPartFor                       *time.Duration
}

// RegisterChaos registers the chaos flags on fs.
func RegisterChaos(fs *flag.FlagSet) *ChaosFlags {
	return &ChaosFlags{
		On:          fs.Bool("chaos", false, "arm the fault injector (see -chaos-* rates)"),
		Seed:        fs.Int64("chaos-seed", 0, "fault injector seed (0: derive from -seed)"),
		Corrupt:     fs.Float64("chaos-corrupt", 0.05, "probability a submitted word is received noisily"),
		CRC:         fs.Float64("chaos-crc", 0.05, "probability a decode's CRC verdict is forced to fail"),
		Stall:       fs.Float64("chaos-stall", 0, "probability a worker stalls before a batch decode"),
		Queue:       fs.Float64("chaos-queue", 0, "probability admission behaves as if the cell queue were full"),
		Evict:       fs.Float64("chaos-evict", 0, "probability a worker's plan cache is flushed before a batch"),
		Compile:     fs.Float64("chaos-compilefail", 0, "probability a program compile-verify is failed"),
		LinkDrop:    fs.Float64("chaos-linkdrop", 0, "probability a fronthaul data frame is lost in flight"),
		LinkDelay:   fs.Float64("chaos-linkdelay", 0, "probability a fronthaul data frame is reordered behind its successor"),
		LinkPart:    fs.Float64("chaos-linkpart", 0, "probability a fronthaul partition window opens"),
		LinkPartFor: fs.Duration("chaos-linkpart-for", 5*time.Millisecond, "fronthaul partition window length"),
	}
}

// Injector builds the armed injector, or nil when -chaos is unset.
// defaultSeed backs -chaos-seed 0 (conventionally the traffic seed).
func (cf *ChaosFlags) Injector(defaultSeed int64) *chaos.Injector {
	if !*cf.On {
		return nil
	}
	seed := *cf.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	return chaos.New(chaos.Config{
		Seed:          seed,
		CorruptRate:   *cf.Corrupt,
		CRCRate:       *cf.CRC,
		StallRate:     *cf.Stall,
		QueueRate:     *cf.Queue,
		EvictRate:     *cf.Evict,
		CompileRate:   *cf.Compile,
		LinkDropRate:  *cf.LinkDrop,
		LinkDelayRate: *cf.LinkDelay,
		LinkPartRate:  *cf.LinkPart,
		LinkPartFor:   *cf.LinkPartFor,
	})
}

// RebalanceFlags is the coordinator's load-rebalance policy flag set.
type RebalanceFlags struct {
	Every                  *time.Duration
	Skew, Streak           *int
	Cooldown, DrainTimeout *time.Duration
}

// RegisterRebalance registers the rebalance flags on fs.
func RegisterRebalance(fs *flag.FlagSet) *RebalanceFlags {
	return &RebalanceFlags{
		Every:        fs.Duration("rebalance-every", 0, "rebalancer poll period (0 disables automatic rebalancing)"),
		Skew:         fs.Int("rebalance-skew", 32, "minimum busiest-to-idlest backlog gap (blocks) to count toward the streak"),
		Streak:       fs.Int("rebalance-streak", 3, "consecutive skewed polls before a cell moves"),
		Cooldown:     fs.Duration("rebalance-cooldown", 0, "per-cell ineligibility window after a move (0: 50x the poll period)"),
		DrainTimeout: fs.Duration("drain-timeout", 5*time.Second, "per-migration drain budget"),
	}
}

// Config resolves the parsed flags into a shard.RebalanceConfig.
func (rb *RebalanceFlags) Config() shard.RebalanceConfig {
	return shard.RebalanceConfig{
		Every:        *rb.Every,
		Skew:         *rb.Skew,
		Streak:       *rb.Streak,
		Cooldown:     *rb.Cooldown,
		DrainTimeout: *rb.DrainTimeout,
	}
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
