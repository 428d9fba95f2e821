package shard

// Aggregate folds per-shard runtime snapshots into one fleet-wide view.
// Counters sum; cell rows sum elementwise (every shard carries the full
// fleet cell range, idle cells contribute zeros); rate-like gauges are
// weighted means where a sensible weight exists, otherwise the
// conservative bound (max) is taken.

import (
	"time"

	"vransim/internal/ran"
	"vransim/internal/telemetry"
)

// Aggregate combines shard snapshots. Nil entries are skipped; a nil or
// all-nil input yields an empty snapshot.
func Aggregate(snaps []*ran.Snapshot) *ran.Snapshot {
	out := &ran.Snapshot{}
	var (
		laneWeighted   float64 // Σ occupancy·batches
		decodeWeighted float64 // Σ avg-cost·decoded-blocks
		utilSum        float64
		allocSum       float64
		utilN, allocN  int
		procs          = make(map[uint64]bool)
	)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if len(s.Cells) > len(out.Cells) {
			out.Cells = append(out.Cells, make([]ran.CellSnapshot, len(s.Cells)-len(out.Cells))...)
		}
		for i, c := range s.Cells {
			o := &out.Cells[i]
			o.Accepted += c.Accepted
			o.Delivered += c.Delivered
			for d := range c.Drops {
				o.Drops[d] += c.Drops[d]
			}
			o.QueueDepth += c.QueueDepth
			o.Mbps += c.Mbps
		}
		out.Accepted += s.Accepted
		out.Delivered += s.Delivered
		for d := range s.Drops {
			out.Drops[d] += s.Drops[d]
		}
		out.Batches += s.Batches
		out.DecodedBlocks += s.DecodedBlocks
		out.GoodputMbps += s.GoodputMbps
		out.ProgramHits += s.ProgramHits
		out.ProgramMisses += s.ProgramMisses
		if s.ProgramMisses > 0 {
			out.ProgramMissK = s.ProgramMissK
		}
		// Programs are compiled once a process, and every shard of a
		// process reports that process's count.
		if !procs[s.Process] {
			procs[s.Process] = true
			out.ProgramCompiles += s.ProgramCompiles
			out.CompileSeconds += s.CompileSeconds
		}
		out.CompiledPlans += s.CompiledPlans
		out.CRCFailures += s.CRCFailures
		out.HARQRetries += s.HARQRetries
		out.HARQRecovered += s.HARQRecovered
		out.HARQCombines += s.HARQCombines
		out.HARQEvictions += s.HARQEvictions
		out.HARQBuffers += s.HARQBuffers
		out.RetryDepth += s.RetryDepth
		out.DegradedBatches += s.DegradedBatches
		out.Steals += s.Steals
		out.ReservedWorkers += s.ReservedWorkers
		if s.ShedLevel > out.ShedLevel {
			out.ShedLevel = s.ShedLevel
		}
		for c := range s.Classes {
			ks, ok := &s.Classes[c], &out.Classes[c]
			ok.Accepted += ks.Accepted
			ok.Delivered += ks.Delivered
			for d := range ks.Drops {
				ok.Drops[d] += ks.Drops[d]
			}
			ok.QueueDepth += ks.QueueDepth
			// Class percentiles reconstruct from merged buckets below; the
			// max-fold is the no-buckets fallback, as for the global ones.
			ok.LatencyBuckets = telemetry.MergeBuckets(ok.LatencyBuckets, ks.LatencyBuckets)
			ok.LatencyP50 = maxDur(ok.LatencyP50, ks.LatencyP50)
			ok.LatencyP90 = maxDur(ok.LatencyP90, ks.LatencyP90)
			ok.LatencyP99 = maxDur(ok.LatencyP99, ks.LatencyP99)
		}
		// Predictor rows key on cell: each cell is owned by exactly one
		// shard at a time, so rows concatenate rather than merge (a
		// migrated cell keeps both shards' rows; readers key on the
		// freshest windows count).
		out.Predict = append(out.Predict, s.Predict...)

		laneWeighted += s.LaneOccupancy * float64(s.Batches)
		decodeWeighted += s.AvgDecodeUs * float64(s.DecodedBlocks)
		utilSum += s.WorkerUtilization
		utilN++
		if s.DecodeAllocsPerOp >= 0 {
			allocSum += s.DecodeAllocsPerOp
			allocN++
		}

		out.Elapsed = maxDur(out.Elapsed, s.Elapsed)
		// Percentiles do not compose across shards — merge the raw
		// histogram buckets and reconstruct below. The max-fold is only
		// the fallback for snapshots predating LatencyBuckets.
		out.LatencyBuckets = telemetry.MergeBuckets(out.LatencyBuckets, s.LatencyBuckets)
		out.LatencyP50 = maxDur(out.LatencyP50, s.LatencyP50)
		out.LatencyP90 = maxDur(out.LatencyP90, s.LatencyP90)
		out.LatencyP99 = maxDur(out.LatencyP99, s.LatencyP99)
		if s.DegradeLevel > out.DegradeLevel {
			out.DegradeLevel = s.DegradeLevel
		}
	}
	if len(out.LatencyBuckets) > 0 {
		out.LatencyP50 = telemetry.PercentileFromBuckets(out.LatencyBuckets, 0.50)
		out.LatencyP90 = telemetry.PercentileFromBuckets(out.LatencyBuckets, 0.90)
		out.LatencyP99 = telemetry.PercentileFromBuckets(out.LatencyBuckets, 0.99)
	}
	for c := range out.Classes {
		ok := &out.Classes[c]
		if len(ok.LatencyBuckets) > 0 {
			ok.LatencyP50 = telemetry.PercentileFromBuckets(ok.LatencyBuckets, 0.50)
			ok.LatencyP90 = telemetry.PercentileFromBuckets(ok.LatencyBuckets, 0.90)
			ok.LatencyP99 = telemetry.PercentileFromBuckets(ok.LatencyBuckets, 0.99)
		}
	}
	if out.Batches > 0 {
		out.LaneOccupancy = laneWeighted / float64(out.Batches)
	}
	if out.DecodedBlocks > 0 {
		out.AvgDecodeUs = decodeWeighted / float64(out.DecodedBlocks)
	}
	if utilN > 0 {
		out.WorkerUtilization = utilSum / float64(utilN)
	}
	if allocN > 0 {
		out.DecodeAllocsPerOp = allocSum / float64(allocN)
	} else {
		out.DecodeAllocsPerOp = -1
	}
	if n := out.ProgramHits + out.ProgramMisses; n > 0 {
		out.CompiledRatio = float64(out.ProgramHits) / float64(n)
	}
	return out
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
