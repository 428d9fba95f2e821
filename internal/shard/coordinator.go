package shard

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vransim/internal/fronthaul"
	"vransim/internal/ran"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// maxHeldFrames bounds the frames the coordinator parks for a cell
// while its migration handshake is in flight; past it, frames are
// counted dropped (exactly what a real DU buffer overflow would do).
const maxHeldFrames = 1 << 16

// Config parameterizes a Coordinator.
type Config struct {
	// Cells is the fleet-wide cell count; cell ids are global.
	Cells int
	// Deadline is the per-block budget hint stamped into data frames.
	Deadline time.Duration
	// Trace shapes distributed tracing and SLO accounting (Sample 0
	// disables trace propagation; the collector still exists so the
	// metric schema is stable).
	Trace TraceConfig
}

// ShardConn is one shard's pair of fronthaul links: Data carries the
// one-way U-plane (may be chaos-faulted), Ctrl the lock-step M-plane
// RPCs (reliable).
type ShardConn struct {
	Name       string
	Data, Ctrl *fronthaul.Link
}

// shardLink is the coordinator's per-shard state.
type shardLink struct {
	name   string
	data   *fronthaul.Link
	ctrl   *fronthaul.Link
	ctrlMu sync.Mutex // serializes lock-step RPC exchanges
	routed atomic.Uint64
	// shipDropped mirrors the shard's cumulative dropped-span count
	// (carried on every span report frame's Aux).
	shipDropped atomic.Uint64
}

// heldFrame is one data frame parked during a migration handshake,
// with its park instant so the trace context can account the dwell.
type heldFrame struct {
	f  *fronthaul.Frame
	at time.Time
}

// Coordinator is the DU side: it owns the cell→shard route, streams
// data frames to shard workers, aggregates their snapshots, and runs
// the migration protocol.
type Coordinator struct {
	cfg    Config
	shards []*shardLink

	// route maps cell → shard index.
	route []atomic.Int32

	// holdCell is the cell whose frames are parked while its migration
	// handshake runs (-1 otherwise); held is the parking buffer.
	holdCell atomic.Int64
	holdMu   sync.Mutex
	held     []heldFrame

	// collector merges shipped shard spans into the fleet trace view;
	// traceSeq/traceBase generate sampled trace IDs.
	collector *SpanCollector
	traceSeq  atomic.Uint64
	traceBase uint64
	readerWG  sync.WaitGroup

	// migMu serializes migrations (one cell moves at a time).
	migMu sync.Mutex

	routeErrors     atomic.Uint64
	heldDropped     atomic.Uint64
	migrations      atomic.Uint64
	migratedBlocks  atomic.Uint64
	migratedBuffers atomic.Uint64 // no family: only the migration tests read it
}

// NewCoordinator routes cells round-robin across the given shards. A
// cell's route changes only when MigrateCell moves it.
func NewCoordinator(cfg Config, conns []*ShardConn) (*Coordinator, error) {
	if cfg.Cells <= 0 {
		return nil, fmt.Errorf("shard: coordinator needs cells")
	}
	if len(conns) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard")
	}
	c := &Coordinator{
		cfg:       cfg,
		route:     make([]atomic.Int32, cfg.Cells),
		collector: newSpanCollector(cfg.Trace, cfg.Deadline),
		traceBase: uint64(time.Now().UnixNano()) << 20,
	}
	c.holdCell.Store(-1)
	for i, sc := range conns {
		name := sc.Name
		if name == "" {
			name = fmt.Sprintf("shard%d", i)
		}
		sh := &shardLink{name: name, data: sc.Data, ctrl: sc.Ctrl}
		c.shards = append(c.shards, sh)
		// One reader per data link drains the shard→coordinator
		// direction (span reports). The link is full-duplex; the writer
		// side (Submit) never contends with this read loop.
		c.readerWG.Add(1)
		go c.readSpans(sh)
	}
	for cell := 0; cell < cfg.Cells; cell++ {
		c.route[cell].Store(int32(cell % len(c.shards)))
	}
	return c, nil
}

// readSpans is the per-shard backchannel reader: it drains span report
// frames off the data link into the collector until the link dies
// (shutdown, or a real transport failure — either way the backchannel
// just ends; it is best-effort by design).
func (c *Coordinator) readSpans(sh *shardLink) {
	defer c.readerWG.Done()
	for {
		f, err := sh.data.ReadFrame()
		if err != nil {
			return
		}
		if f.Type != fronthaul.TypeSpanReport {
			continue
		}
		sh.shipDropped.Store(f.Aux)
		c.collector.ingest(sh.name, f.Payload)
	}
}

// Collector exposes the fleet span collector.
func (c *Coordinator) Collector() *SpanCollector { return c.collector }

// nextTraceID decides whether this submission is traced (every
// cfg.Trace.Sample-th one) and returns its fleet-unique trace ID, or 0
// for untraced. IDs are the coordinator start stamp high bits OR a
// monotonic sequence, so concurrent coordinators in one fleet cannot
// collide in practice.
func (c *Coordinator) nextTraceID() uint64 {
	n := c.cfg.Trace.Sample
	if n <= 0 {
		return 0
	}
	seq := c.traceSeq.Add(1)
	if n > 1 && seq%uint64(n) != 0 {
		return 0
	}
	return c.traceBase | (seq & (1<<20 - 1))
}

// Route reports which shard currently owns a cell.
func (c *Coordinator) Route(cell int) int {
	return int(c.route[cell].Load())
}

// Shards reports the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Submit routes one block's data frame to the owning shard. During the
// cell's migration handshake the frame is parked and flushed to the new
// owner after the route flips. A nil error does not mean delivery — the
// U-plane is lossy by design; it means the frame was routed.
func (c *Coordinator) Submit(cell, ue, proc, k int, word *turbo.LLRWord) error {
	t0 := time.Now()
	if cell < 0 || cell >= c.cfg.Cells {
		c.routeErrors.Add(1)
		return fmt.Errorf("shard: unknown cell %d", cell)
	}
	id := c.nextTraceID()
	tEnc := time.Now()
	f := fronthaul.DataFrame(cell, ue, proc, k, word, uint64(c.cfg.Deadline))
	if id != 0 {
		// Route = admission + routing decision; encode-wire = packing
		// the soft word. Both are monotonic local offsets; the send
		// stamp (the link stage's base) is taken in send(), as late as
		// possible.
		f.Trace = &fronthaul.TraceCtx{
			TraceID: id, ParentID: id,
			RouteNs:  fronthaul.SatNs32(tEnc.Sub(t0).Nanoseconds()),
			EncodeNs: fronthaul.SatNs32(time.Since(tEnc).Nanoseconds()),
		}
	}
	if c.holdCell.Load() == int64(cell) {
		c.holdMu.Lock()
		if c.holdCell.Load() == int64(cell) {
			if len(c.held) >= maxHeldFrames {
				c.holdMu.Unlock()
				c.heldDropped.Add(1)
				return nil
			}
			c.held = append(c.held, heldFrame{f: f, at: time.Now()})
			c.holdMu.Unlock()
			return nil
		}
		c.holdMu.Unlock()
	}
	return c.send(c.Route(cell), f)
}

func (c *Coordinator) send(shard int, f *fronthaul.Frame) error {
	sh := c.shards[shard]
	if f.Trace != nil {
		f.Trace.SentUnixNs = time.Now().UnixNano()
	}
	if err := sh.data.WriteFrame(f); err != nil {
		c.routeErrors.Add(1)
		return err
	}
	sh.routed.Add(1)
	return nil
}

// ShardSnapshot fetches one shard's metrics snapshot over its control
// link (a lock-step RPC).
func (c *Coordinator) ShardSnapshot(i int) (*ran.Snapshot, error) {
	sh := c.shards[i]
	sh.ctrlMu.Lock()
	defer sh.ctrlMu.Unlock()
	if err := sh.ctrl.WriteFrame(&fronthaul.Frame{Type: fronthaul.TypeSnapshotReq}); err != nil {
		return nil, err
	}
	f, err := sh.ctrl.ReadFrame()
	if err != nil {
		return nil, err
	}
	if f.Type == fronthaul.TypeError {
		return nil, fmt.Errorf("shard: %s snapshot: %s", sh.name, f.Payload)
	}
	if f.Type != fronthaul.TypeSnapshotResp {
		return nil, fmt.Errorf("shard: %s snapshot: unexpected %s frame", sh.name, f.Type)
	}
	var s ran.Snapshot
	if err := json.Unmarshal(f.Payload, &s); err != nil {
		return nil, fmt.Errorf("shard: %s snapshot: %w", sh.name, err)
	}
	return &s, nil
}

// FleetSnapshot fetches every shard's snapshot and their fold, ran.Merge.
func (c *Coordinator) FleetSnapshot() (*ran.Snapshot, []*ran.Snapshot, error) {
	per := make([]*ran.Snapshot, len(c.shards))
	for i := range c.shards {
		s, err := c.ShardSnapshot(i)
		if err != nil {
			return nil, nil, err
		}
		per[i] = s
	}
	return ran.Merge(per), per, nil
}

// MigrateCell drains cell from its current shard and installs its state
// on shard `to`, flipping the route and flushing any frames parked
// during the handshake. In-flight blocks and HARQ soft buffers move
// losslessly; blocks the fronthaul dropped before the drain are simply
// gone, as on any lossy link. The source's drain is bounded by
// DefaultDrainTimeout.
func (c *Coordinator) MigrateCell(cell, to int) error {
	if cell < 0 || cell >= c.cfg.Cells {
		return fmt.Errorf("shard: unknown cell %d", cell)
	}
	if to < 0 || to >= len(c.shards) {
		return fmt.Errorf("shard: unknown shard %d", to)
	}
	c.migMu.Lock()
	defer c.migMu.Unlock()
	from := c.Route(cell)
	if from == to {
		return nil
	}

	// Park new frames for the cell while the handshake runs.
	holdStart := time.Now()
	c.holdMu.Lock()
	c.holdCell.Store(int64(cell))
	c.holdMu.Unlock()
	unholdTo := from // on failure, flush back to the old owner
	var drainDur, installDur time.Duration
	outcome := "migrate_failed"
	defer func() {
		c.holdMu.Lock()
		c.holdCell.Store(-1)
		held := c.held
		c.held = nil
		c.holdMu.Unlock()
		now := time.Now()
		for _, h := range held {
			if h.f.Trace != nil {
				// The park dwell rides the frame's trace context so the
				// block's final span accounts time spent in the hold
				// buffer — measured on this host's clock.
				parked := h.f.Trace.ParkNs + fronthaul.SatNs32(now.Sub(h.at).Nanoseconds())
				if parked < h.f.Trace.ParkNs { // saturate on wrap
					parked = ^uint32(0)
				}
				h.f.Trace.ParkNs = parked
			}
			_ = c.send(unholdTo, h.f) // a failed write counts in routeErrors
		}
		// The migration itself is a coordinator-local trace: park window
		// plus the drain and install RPC legs, visible in /spans and the
		// drain/install hop histograms.
		sp := telemetry.Span{
			Cell: cell, TraceID: c.traceBase | (1<<20 - 1), Origin: "coordinator",
			Start: holdStart, Outcome: outcome,
		}
		sp.Stages[telemetry.SpanPark] = now.Sub(holdStart) - drainDur - installDur
		if sp.Stages[telemetry.SpanPark] < 0 {
			sp.Stages[telemetry.SpanPark] = 0
		}
		sp.Stages[telemetry.SpanDrain] = drainDur
		sp.Stages[telemetry.SpanInstall] = installDur
		c.collector.Record(sp)
	}()

	// Source: drain the cell, collecting the state stream.
	src := c.shards[from]
	drainT0 := time.Now()
	src.ctrlMu.Lock()
	var state []*fronthaul.Frame
	err := func() error {
		if err := src.ctrl.WriteFrame(&fronthaul.Frame{
			Type: fronthaul.TypeMigrateStart, Cell: uint32(cell),
		}); err != nil {
			return err
		}
		for {
			f, err := src.ctrl.ReadFrame()
			if err != nil {
				return err
			}
			switch f.Type {
			case fronthaul.TypeMigrateState:
				state = append(state, f)
			case fronthaul.TypeMigrateDone:
				if int(f.Aux) != len(state) {
					return fmt.Errorf("shard: %s drain announced %d entries, streamed %d", src.name, f.Aux, len(state))
				}
				return nil
			case fronthaul.TypeError:
				return fmt.Errorf("shard: %s drain: %s", src.name, f.Payload)
			default:
				return fmt.Errorf("shard: %s drain: unexpected %s frame", src.name, f.Type)
			}
		}
	}()
	src.ctrlMu.Unlock()
	drainDur = time.Since(drainT0)
	if err != nil {
		return err
	}

	// Target: forward the state verbatim, then commit.
	dst := c.shards[to]
	installT0 := time.Now()
	dst.ctrlMu.Lock()
	err = func() error {
		for _, f := range state {
			if err := dst.ctrl.WriteFrame(f); err != nil {
				return err
			}
		}
		if err := dst.ctrl.WriteFrame(&fronthaul.Frame{
			Type: fronthaul.TypeMigrateCommit, Cell: uint32(cell), Aux: uint64(len(state)),
		}); err != nil {
			return err
		}
		f, err := dst.ctrl.ReadFrame()
		if err != nil {
			return err
		}
		if f.Type == fronthaul.TypeError {
			return fmt.Errorf("shard: %s import: %s", dst.name, f.Payload)
		}
		if f.Type != fronthaul.TypeMigrateAck {
			return fmt.Errorf("shard: %s import: unexpected %s frame", dst.name, f.Type)
		}
		return nil
	}()
	dst.ctrlMu.Unlock()
	installDur = time.Since(installT0)
	if err != nil {
		// The cell's state now lives on the target's staging (or was
		// rejected); the source cell stays sealed. Surface the failure —
		// the operator decides, nothing is silently lost.
		return err
	}

	c.route[cell].Store(int32(to))
	unholdTo = to
	outcome = "migrated"
	c.migrations.Add(1)
	for _, f := range state {
		if f.Flags&fronthaul.FlagHasWord != 0 {
			c.migratedBlocks.Add(1)
		}
		if f.Flags&fronthaul.FlagHasSoft != 0 {
			c.migratedBuffers.Add(1)
		}
	}
	return nil
}

// Stop flushes reorder-held link frames. It does not stop the shard
// runtimes — the caller owns those.
func (c *Coordinator) Stop() {
	for _, sh := range c.shards {
		_ = sh.data.Flush()
	}
}
