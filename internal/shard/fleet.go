package shard

import (
	"fmt"
	"sync"

	"vransim/internal/chaos"
	"vransim/internal/fronthaul"
	"vransim/internal/ran"
)

// FleetConfig assembles an in-process fleet: N shard runtimes wired to
// one coordinator over fronthaul pipes (the same frames that cross TCP
// between vrancoord and vranshard processes, minus the sockets).
type FleetConfig struct {
	// Coordinator carries the fleet cell count, deadline hint and
	// trace policy.
	Coordinator Config
	// Runtime builds shard i's ran.Config. It must keep Cells equal to
	// Coordinator.Cells — cell ids are fleet-global.
	Runtime func(i int) ran.Config
	// Shards is the shard count.
	Shards int
	// LinkChaos optionally returns a fault injector for shard i's data
	// link (nil = clean link). The control link is never faulted: the
	// M-plane is the reliable side of the split.
	LinkChaos func(i int) *chaos.Injector
}

// Fleet is a running in-process shard deployment.
type Fleet struct {
	Coord    *Coordinator
	Workers  []*Worker
	Runtimes []*ran.Runtime

	closers []func()
	wg      sync.WaitGroup
	serveMu sync.Mutex
	serve   []error
}

// NewFleet builds and starts the fleet: runtimes, workers, pipe pairs
// and the coordinator.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("shard: fleet needs shards > 0")
	}
	f := &Fleet{}
	fail := func(err error) (*Fleet, error) {
		f.close()
		for _, rt := range f.Runtimes {
			rt.Stop()
		}
		return nil, err
	}
	conns := make([]*ShardConn, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		rcfg := cfg.Runtime(i)
		if rcfg.Cells != cfg.Coordinator.Cells {
			return fail(fmt.Errorf("shard: runtime %d has %d cells, coordinator expects %d (cell ids are fleet-global)",
				i, rcfg.Cells, cfg.Coordinator.Cells))
		}
		rt, err := ran.New(rcfg)
		if err != nil {
			return fail(err)
		}
		f.Runtimes = append(f.Runtimes, rt)
		w := NewWorker(rt)
		f.Workers = append(f.Workers, w)

		var inj *chaos.Injector
		if cfg.LinkChaos != nil {
			inj = cfg.LinkChaos(i)
		}
		dataC, dataW := fronthaul.Pipe()
		ctrlC, ctrlW := fronthaul.Pipe()
		f.closers = append(f.closers, func() { dataC.Close(); ctrlC.Close() })
		conns[i] = &ShardConn{
			Name: fmt.Sprintf("shard%d", i),
			Data: fronthaul.NewLink(dataC, inj),
			Ctrl: fronthaul.NewLink(ctrlC, nil),
		}
		for _, end := range []*fronthaul.PipeEnd{dataW, ctrlW} {
			link := fronthaul.NewLink(end, nil)
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				if err := w.ServeConn(link); err != nil {
					f.serveMu.Lock()
					f.serve = append(f.serve, err)
					f.serveMu.Unlock()
				}
			}()
		}
	}
	coord, err := NewCoordinator(cfg.Coordinator, conns)
	if err != nil {
		return fail(err)
	}
	f.Coord = coord
	return f, nil
}

func (f *Fleet) close() {
	for _, fn := range f.closers {
		fn()
	}
	f.closers = nil
	f.wg.Wait()
}

// Stop tears the fleet down — coordinator, runtimes, span shippers,
// links — and returns each runtime's final snapshot plus any worker
// serve errors (EOF on clean close is not an error). Runtimes stop
// before the links close so the shutdown-drain spans still ship to the
// collector; workers close before the links so the final flush lands.
func (f *Fleet) Stop() ([]*ran.Snapshot, []error) {
	if f.Coord != nil {
		f.Coord.Stop()
	}
	snaps := make([]*ran.Snapshot, len(f.Runtimes))
	for i, rt := range f.Runtimes {
		snaps[i] = rt.Stop()
	}
	for _, w := range f.Workers {
		w.Close()
	}
	f.close()
	if f.Coord != nil {
		// The pipes are closed, so the span readers see EOF; wait them
		// out so nothing touches the collector after Stop returns.
		f.Coord.readerWG.Wait()
	}
	return snaps, f.serve
}
