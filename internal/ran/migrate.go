package ran

import (
	"fmt"
	"time"

	"vransim/internal/phy"
	"vransim/internal/turbo"
)

// This file is the runtime side of cell drain-and-migrate: the shard
// coordinator moves a cell between two live runtimes without losing a
// single in-flight block or HARQ soft buffer.
//
// Protocol, from this runtime's point of view (the source):
//
//  1. DrainCell marks the cell migrating, which moves its waiting blocks
//     out of the ready structure into the migration queue under the
//     structure's lock, and seals it — new submissions bounce with
//     RejectedSealed.
//  2. Blocks a worker already took finish normally: delivered, dropped,
//     or CRC-failed into a HARQ retry, which the push diverts to the
//     migration queue too. The drain loop waits until the migration
//     queue holds every non-terminal block of the cell.
//  3. The drained blocks are un-accepted (the target re-accepts them,
//     so the fleet ledger counts each exactly once) and returned with
//     the cell's exported HARQ soft buffers. The cell stays sealed.
//
// ImportCell is the target side: inject the soft buffers, re-accept and
// re-enqueue the blocks under fresh deadlines, unseal the cell.

// MigratedBlock is one in-flight block leaving a runtime.
type MigratedBlock struct {
	UE, Proc, K int
	// Attempt is the block's HARQ attempt counter.
	Attempt int
	// Word is the block's current soft input (a combined snapshot for
	// retries); Tx is the originally submitted reference word the HARQ
	// path regenerates retransmissions from.
	Word, Tx *turbo.LLRWord
}

// CellState is everything a cell owns inside a runtime: its in-flight
// blocks and HARQ soft buffers.
type CellState struct {
	Cell    int
	Blocks  []MigratedBlock
	Buffers []phy.ProcState
}

// Sealed reports whether a cell currently rejects submissions.
func (r *Runtime) Sealed(cell int) bool {
	return cell >= 0 && cell < r.cfg.Cells && r.sealed[cell].Load()
}

// DrainCell seals cell and extracts its complete state: every
// non-terminal block (wherever it was — waiting, decoding, awaiting
// retry) and every HARQ soft buffer. Blocks that reach a terminal
// outcome while the drain converges are counted normally on this
// runtime; everything else leaves with the state. At most one drain
// runs at a time. On timeout the drain aborts: the cell unseals and its
// blocks re-enter the decode path.
func (r *Runtime) DrainCell(cell int, timeout time.Duration) (*CellState, error) {
	if cell < 0 || cell >= r.cfg.Cells {
		return nil, fmt.Errorf("ran: drain of unknown cell %d", cell)
	}
	if err := r.rq.beginMigration(cell); err != nil {
		return nil, err
	}
	r.sealed[cell].Store(true)
	deadline := time.Now().Add(timeout)
	for {
		// Read inflight before the queue depth: with the cell sealed the
		// accepted count is frozen, so inflight only overestimates and
		// the equality below is reached exactly when every non-terminal
		// block sits in the migration queue.
		in := r.met.inflight(cell)
		if uint64(r.rq.migrated()) >= in {
			break
		}
		if time.Now().After(deadline) {
			r.abortDrain(cell)
			return nil, fmt.Errorf("ran: drain of cell %d timed out with %d blocks in flight", cell, in)
		}
		time.Sleep(100 * time.Microsecond)
	}
	blocks := r.rq.endMigration()
	st := &CellState{Cell: cell}
	for _, b := range blocks {
		r.met.unaccept(cell, b.Class)
		st.Blocks = append(st.Blocks, MigratedBlock{
			UE: b.UE, Proc: b.Process, K: b.K, Attempt: b.Attempt,
			Word: b.Word, Tx: b.tx,
		})
	}
	if r.harq != nil {
		st.Buffers = r.harq.ExportCell(cell)
	}
	return st, nil
}

// abortDrain puts a timed-out drain's blocks back into the decode path
// and unseals the cell.
func (r *Runtime) abortDrain(cell int) {
	for _, b := range r.rq.endMigration() {
		if a, _ := r.rq.push(b, false); a != Admitted {
			r.met.drop(b.Cell, b.Class, DropShutdown)
			r.recordSpan(b, time.Now(), 0, 0, "migrate_shutdown")
			r.harqRelease(b)
		}
	}
	r.sealed[cell].Store(false)
}

// ImportCell installs a drained cell's state on this runtime: HARQ soft
// buffers are injected, blocks are re-accepted and re-enqueued under
// fresh arrival stamps and deadlines (a migrated block is re-scheduled,
// and cross-process clocks make the original stamps meaningless), and
// the cell is unsealed. Returns how many blocks re-entered the decode
// path; a block the cell's backlog cannot hold is a backlog drop, refused
// at the door (an accepted shutdown drop if Stop closed the runtime
// meanwhile), so both Ledger identities stay exact even under an
// overloaded target.
func (r *Runtime) ImportCell(st *CellState) (int, error) {
	if st.Cell < 0 || st.Cell >= r.cfg.Cells {
		return 0, fmt.Errorf("ran: import of unknown cell %d", st.Cell)
	}
	if r.stopped.Load() {
		return 0, fmt.Errorf("ran: import during shutdown")
	}
	if r.harq != nil {
		for _, b := range st.Buffers {
			r.harq.Inject(st.Cell, b)
		}
	}
	now := time.Now()
	class := r.cfg.SLA.ClassOf(st.Cell)
	n := 0
	for _, mb := range st.Blocks {
		b := &Block{
			Cell: st.Cell, UE: mb.UE, Process: mb.Proc, K: mb.K, Class: class,
			Word: mb.Word, tx: mb.Tx, Attempt: mb.Attempt,
			Arrived:    now,
			Deadline:   now.Add(r.classDeadline(class)),
			hopArrived: now,
		}
		switch a, _ := r.rq.push(b, true); a {
		case Admitted:
			r.met.accept(st.Cell, class)
			n++
			continue
		case RejectedStopped:
			// Accepted, then lost to the shutdown.
			r.met.accept(st.Cell, class)
			r.met.drop(st.Cell, class, DropShutdown)
		default:
			// Refused at the door, as Submit refuses a block the queue
			// cannot hold: the source un-accepted it, so the fleet ledger
			// counts it once, as offered.
			r.met.drop(st.Cell, class, DropBacklog)
		}
		r.harqRelease(b)
	}
	r.sealed[st.Cell].Store(false)
	return n, nil
}
