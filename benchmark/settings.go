package main

import (
	"fmt"
	"time"

	"vransim/internal/core"
	"vransim/internal/ran"
	"vransim/internal/shard"
	"vransim/internal/simd"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// Fixed settings of every workload. They are constants on purpose: a
// rate derived at run time from probed capacity would rise with a
// speed-up and hide it, whereas a speed-up at a fixed rate shows as
// lower latency and fewer CPU-seconds per bit.
const (
	numCells     = 4
	totalWorkers = 2
	queueDepth   = 1024
	// Deadlines are generous so that the seed misses nothing: the
	// calibration host stalls the whole process for 100-400 ms several
	// times a minute and once froze it for 1.2 s, which cost a run with a
	// 1 s deadline 50 blocks. Any miss after a change is a regression,
	// not noise.
	blockDeadline = 8 * time.Second
	urllcDeadline = 4 * time.Second
	maxIters      = 4

	// Pool words: random payload + CRC24B, turbo-encoded at this LLR
	// amplitude, plus Gaussian LLR noise clamped to ±llrClamp (the
	// fronthaul's int8 quantisation range, so a word is identical on
	// both sides of the link).
	llrAmplitude = 24
	llrClamp     = 127
	hiSNRSigma   = 12.0 // always converges in 2 iterations
	loSNRSigma   = 22.0 // 2..4 iterations, batch runs as long as its slowest lane

	// Closed-loop workloads keep this many blocks in flight.
	closedInFlight = 64

	// Open-loop rates in blocks per second, summed over the cells of a
	// class, and the eMBB block-size mix. The shares put each reported
	// percentile inside one population instead of on the boundary
	// between two, where it would jump from run to run: 92.6 % of blocks
	// are URLLC, so the median is a URLLC block; 1.85 % are K=2048, the
	// slowest, so the 99th percentile is near the median K=2048 block.
	urllcBlocksPerSec = 500.0
	embbBlocksPerSec  = 40.0
	urllcK            = 40
	embbSmallK        = 512
	embbLargeK        = 2048
	embbLargeShare    = 0.25
	// Arrivals are uniform within strata of this length and each stratum
	// holds its exact share of the rate (see buildSchedule).
	scheduleStratum = 100 * time.Millisecond

	// A run is set-up, a warm-up of the workload's own traffic that is
	// discarded, and the measured span, which is cut into subWindows
	// equal parts by due time: one second each in a full run, which is
	// 540 blocks of the paced schedule, enough for a median. The issue's
	// 3 s + 30 s plan is shrunk by one factor (2/3) to fit the driver's
	// time budget.
	defaultSeconds = 20.0
	quickSeconds   = 5.0
	warmupShare    = 0.1
	subWindows     = 20
	setupRepeats   = 3

	// The closed-loop generator stops when it has offered this many
	// blocks per second of run: about ten times the seed's rate.
	maxClosedBlocksPerSec = 20000

	gridBlocksPerWorker = 16
)

// lanes is how many same-size blocks one W512 decode carries.
var lanes = turbo.BlocksPerRegister(simd.W512)

// gridSizes is the fixed warm-up grid of set-up: every worker builds the
// plan and compiles the replay program of each size before traffic.
var gridSizes = []int{40, 512, 2048, 6144}

// poolWords is how many distinct words a pool holds per block size.
var poolWords = map[int]int{40: 128, 512: 128, 2048: 32, 6144: 8}

type workload struct {
	name string
	why  string
	// paced selects the open-loop schedule with SLA classes; otherwise
	// the load is closed-loop K=512 on class-blind cells.
	paced bool
	// fleet drives the schedule through coordinator, fronthaul and two
	// one-worker shards instead of one two-worker runtime.
	fleet bool
	loSNR bool
	// paperPath runs the simulated uplink packets (uarch.*, simd.*) in
	// the traced pass.
	paperPath bool
}

// BENCHMARK.json repeats the why of each workload it gives the driver:
// all but fleet_paced, whose latency the calibration host cannot repeat
// (README.md).
var workloads = []workload{
	{name: "serve_sat", paperPath: true, why: "closed loop, 64 in flight, K=512 clean words on one 2-worker runtime: lanes stay full, so the decode kernel does nearly all the work"},
	{name: "serve_sat_losnr", loSNR: true, why: "serve_sat with noisy words: 2-4 iterations and per-block early exit, a batch runs as long as its slowest lane"},
	{name: "serve_paced", paced: true, why: "open loop, 500/s URLLC K=40 + 40/s eMBB K=512/2048 at about a quarter utilisation: batch window, lane fill and classes set latency"},
	{name: "fleet_paced", paced: true, fleet: true, why: "serve_paced's schedule through coordinator, fronthaul pipe and 2 shards x 1 worker: isolates fronthaul + shard cost"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pacedSLA is the per-cell class list of the paced pair.
var pacedSLA = ran.SLAConfig{
	Classes:       []ran.Class{ran.ClassURLLC, ran.ClassURLLC, ran.ClassEMBB, ran.ClassEMBB},
	URLLCDeadline: urllcDeadline,
}

// classes is the per-cell SLA class list: none (class-blind) on the
// closed-loop pair so both workers serve every batch, pacedSLA on the
// paced pair.
func (w workload) classes() ran.SLAConfig {
	if !w.paced {
		return ran.SLAConfig{}
	}
	return pacedSLA
}

func (w workload) deadlineOf(cell int) time.Duration {
	if w.classes().ClassOf(cell) == ran.ClassURLLC {
		return urllcDeadline
	}
	return blockDeadline
}

// runtimeConfig is the one serving configuration every workload uses:
// the repository's default W512/APCM decoder build with the fixed
// settings above laid over it.
func (w workload) runtimeConfig(workers int, onDecoded func(*ran.Block, []byte), tr *telemetry.Tracer) ran.Config {
	cfg := ran.DefaultConfig(simd.W512, core.StrategyAPCM)
	cfg.Cells = numCells
	cfg.Workers = workers
	cfg.QueueDepth = queueDepth
	cfg.MaxIters = maxIters
	cfg.Deadline = blockDeadline
	cfg.AdmissionGuard = false
	cfg.SLA = w.classes()
	cfg.CheckCRC = shard.ContentCRC24B()
	cfg.OnDecoded = onDecoded
	cfg.Tracer = tr
	return cfg
}
