package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"vransim/internal/ran"
	"vransim/internal/shard"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// target is the system under test behind one submit call: a single
// ran.Runtime, or a shard.Fleet of one-worker runtimes behind a
// coordinator and fronthaul pipes. Everything here is public API of the
// program; tracing is the tracing the program ships, switched on through
// its config.
type target struct {
	rt    *ran.Runtime
	fleet *shard.Fleet
	// tracer holds the spans of a traced pass: the runtime's own tracer,
	// or the fleet collector's.
	tracer *telemetry.Tracer
	// rec receives every OnDecoded callback; set-up's warm-up grid and
	// the run proper install their own.
	rec atomic.Pointer[recorder]
	// offered counts blocks that entered the stack since construction:
	// every one of them must end in the runtime's ledger.
	offered uint64
}

// newTarget constructs and starts the workload's serving stack. With
// traced set, every block records a span into a ring of spanRing.
func newTarget(w workload, traced bool, spanRing int) (*target, error) {
	t := &target{}
	onDecoded := func(b *ran.Block, bits []byte) { t.rec.Load().onDecoded(b, bits) }
	if !w.fleet {
		if traced {
			t.tracer = telemetry.NewTracer(spanRing, 0)
		}
		rt, err := ran.New(w.runtimeConfig(totalWorkers, onDecoded, t.tracer))
		if err != nil {
			return nil, err
		}
		t.rt = rt
		return t, nil
	}
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("%s needs at least 2 CPUs to show two shards side by side, host has %d", w.name, runtime.NumCPU())
	}
	const shards = 2
	coord := shard.Config{Cells: numCells, Deadline: blockDeadline}
	if traced {
		coord.Trace = shard.TraceConfig{Sample: 1, Ring: spanRing}
	}
	f, err := shard.NewFleet(shard.FleetConfig{
		Coordinator: coord,
		Shards:      shards,
		Runtime: func(int) ran.Config {
			return w.runtimeConfig(totalWorkers/shards, onDecoded, nil)
		},
	})
	if err != nil {
		return nil, err
	}
	t.fleet = f
	if traced {
		t.tracer = f.Coord.Collector().Tracer()
	}
	return t, nil
}

// submit offers one block. The sequence number rides in the UE field,
// which the frame header, the block and its span all carry, and the
// HARQ process id cycles as LTE's eight processes do.
func (t *target) submit(cell, seq, k int, word *turbo.LLRWord) bool {
	if t.fleet != nil {
		if t.fleet.Coord.Submit(cell, seq, seq%8, k, word) != nil {
			return false
		}
		t.offered++
		return true
	}
	// The runtime counts a block it refuses at the door as a drop.
	t.offered++
	return t.rt.SubmitProcess(cell, seq, seq%8, k, word) == ran.Admitted
}

// snapshot is the runtime's ledger, summed over the shards of a fleet.
func (t *target) snapshot() (*ran.Snapshot, error) {
	if t.fleet == nil {
		return t.rt.Snapshot(), nil
	}
	agg, per, err := t.fleet.Coord.FleetSnapshot()
	if err != nil {
		return nil, err
	}
	// shard.Aggregate leaves the per-block iteration histogram out.
	for _, s := range per {
		for i, n := range s.DecodeIters {
			agg.DecodeIters[i] += n
		}
	}
	return agg, nil
}

// install makes rec the receiver of every callback from now on. The
// stack must be idle: rec counts its callbacks against the ledger as it
// stands here.
func (t *target) install(rec *recorder) error {
	base, err := t.snapshot()
	if err != nil {
		return err
	}
	rec.base = base
	t.rec.Store(rec)
	return nil
}

// drain waits until every offered block has a terminal outcome in the
// runtime's own ledger and every decoded block has reached the current
// recorder (the runtime counts a block before it calls OnDecoded), and
// returns that ledger.
func (t *target) drain(timeout time.Duration) (*ran.Snapshot, error) {
	rec := t.rec.Load()
	limit := time.Now().Add(timeout)
	for {
		s, err := t.snapshot()
		if err != nil {
			return nil, err
		}
		if s.Delivered+s.Dropped() >= t.offered && s.RetryDepth == 0 && rec.callbacks.Load() >= rec.answered(s) {
			return s, nil
		}
		if time.Now().After(limit) {
			return nil, fmt.Errorf("drain: %d offered, %d delivered, %d dropped, %d callbacks after %v",
				t.offered, s.Delivered, s.Dropped(), rec.callbacks.Load(), timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the stack down and waits for its goroutines.
func (t *target) stop() error {
	if t.fleet != nil {
		_, errs := t.fleet.Stop()
		return errors.Join(errs...)
	}
	t.rt.Stop()
	return nil
}

// stopAfter stops the stack on an error path and returns err, with the
// stop's own error attached if it has one.
func (t *target) stopAfter(err error) error {
	if serr := t.stop(); serr != nil {
		return fmt.Errorf("%w (and stop: %v)", err, serr)
	}
	return err
}

// coordCounter reads one of the coordinator's own counters by its
// exported family name (0 without a fleet).
func (t *target) coordCounter(family string) float64 {
	if t.fleet == nil {
		return 0
	}
	for _, f := range t.fleet.Coord.Families() {
		if f.Name == family && len(f.Samples) > 0 {
			return f.Samples[0].Value
		}
	}
	return 0
}
