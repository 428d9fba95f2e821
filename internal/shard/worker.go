// Package shard is the distributed serving layer above internal/ran: a
// coordinator (the DU side) owns the cell→shard map and routes
// submitted blocks over fronthaul links to shard workers (the RU side),
// each wrapping one ran.Runtime. The coordinator aggregates every
// shard's vran_* metric families into one fleet view, and, when asked,
// drain-and-migrates a cell between live shards without losing a single
// in-flight block or HARQ soft buffer.
package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"vransim/internal/fronthaul"
	"vransim/internal/phy"
	"vransim/internal/ran"
)

// DefaultDrainTimeout bounds a migration's drain on the source shard.
const DefaultDrainTimeout = 5 * time.Second

// Worker is the RU side of one shard: a ran.Runtime fed by fronthaul
// frames. One Worker may serve several connections concurrently (the
// coordinator opens a data conn and a control conn per shard).
type Worker struct {
	rt *ran.Runtime

	// shipper batches the runtime's completed traced spans back to the
	// coordinator over the last link that carried data traffic.
	shipper *spanShipper

	mu sync.Mutex
	// pending stages migrate-state frames per cell between the first
	// TypeMigrateState and the TypeMigrateCommit that installs them.
	pending map[int]*ran.CellState
}

// NewWorker wraps a runtime. The runtime should be configured with the
// fleet-wide cell count: cell ids are global, and every runtime carries
// queues for all of them (idle queues are cheap, and migration needs no
// id remapping).
func NewWorker(rt *ran.Runtime) *Worker {
	w := &Worker{rt: rt, pending: make(map[int]*ran.CellState), shipper: newSpanShipper()}
	rt.SetSpanSink(w.shipper.offer)
	return w
}

// Close stops the span shipper after a final flush. The runtime is the
// caller's to stop; spans recorded after Close are counted dropped.
func (w *Worker) Close() {
	w.shipper.close()
}

// ServeConn reads frames off the link until EOF or a transport error,
// dispatching each one. Data frames are one-way (the U-plane);
// management frames get a lock-step response on the same link. Returns
// nil on clean peer close.
func (w *Worker) ServeConn(link *fronthaul.Link) error {
	for {
		f, err := link.ReadFrame()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := w.handle(link, f); err != nil {
			return err
		}
	}
}

// handle dispatches one frame. Malformed management requests answer
// with TypeError instead of killing the connection.
func (w *Worker) handle(link *fronthaul.Link, f *fronthaul.Frame) error {
	switch f.Type {
	case fronthaul.TypeData:
		recv := time.Now()
		word, err := f.DataWord()
		if err != nil {
			// A data frame that decoded as a frame but carries a bad
			// payload: drop it like the lossy fronthaul would.
			return nil
		}
		// Span reports flow back on whichever link the coordinator sends
		// data over — the Link is full-duplex (separate read/write locks).
		w.shipper.link.Store(link)
		// Admission is the runtime's job; a reject here is exactly a
		// reject on a single-process deployment (counted there).
		if f.Trace != nil {
			tc := spanContextFromWire(f.Trace, recv, time.Since(recv))
			w.rt.SubmitTraced(int(f.Cell), int(f.UE), int(f.Proc), int(f.K), word, tc)
		} else {
			w.rt.SubmitProcess(int(f.Cell), int(f.UE), int(f.Proc), int(f.K), word)
		}
		return nil

	case fronthaul.TypeSnapshotReq:
		body, err := json.Marshal(w.rt.Snapshot())
		if err != nil {
			return w.writeErr(link, err)
		}
		return link.WriteFrame(&fronthaul.Frame{Type: fronthaul.TypeSnapshotResp, Payload: body})

	case fronthaul.TypeMigrateStart:
		return w.serveDrain(link, f)

	case fronthaul.TypeMigrateState:
		return w.stageState(link, f)

	case fronthaul.TypeMigrateCommit:
		return w.commitImport(link, f)

	case fronthaul.TypeError:
		return fmt.Errorf("shard: peer error: %s", f.Payload)
	}
	// Unknown-but-valid frame types are a protocol error on the M-plane.
	return w.writeErr(link, fmt.Errorf("unexpected %s frame", f.Type))
}

// serveDrain is the source side of a migration: drain the cell and
// stream its state back — one MigrateState frame per block, one per
// soft buffer, then MigrateDone carrying the entry count.
func (w *Worker) serveDrain(link *fronthaul.Link, f *fronthaul.Frame) error {
	st, err := w.rt.DrainCell(int(f.Cell), DefaultDrainTimeout)
	if err != nil {
		return w.writeErr(link, err)
	}
	n := uint64(0)
	for _, b := range st.Blocks {
		flags, payload := fronthaul.EncodeState(b.Word, b.Tx, nil)
		if err := link.WriteFrame(&fronthaul.Frame{
			Type: fronthaul.TypeMigrateState, Flags: flags,
			Cell: f.Cell, UE: uint32(b.UE), Proc: uint32(b.Proc),
			K: uint32(b.K), Attempt: uint32(b.Attempt),
			Payload: payload,
		}); err != nil {
			return err
		}
		n++
	}
	for _, b := range st.Buffers {
		flags, payload := fronthaul.EncodeState(nil, nil, b.Word)
		if err := link.WriteFrame(&fronthaul.Frame{
			Type: fronthaul.TypeMigrateState, Flags: flags,
			Cell: f.Cell, UE: uint32(b.UE), Proc: uint32(b.Proc),
			K: uint32(b.K), Aux: uint64(b.Attempts),
			Payload: payload,
		}); err != nil {
			return err
		}
		n++
	}
	return link.WriteFrame(&fronthaul.Frame{Type: fronthaul.TypeMigrateDone, Cell: f.Cell, Aux: n})
}

// stageState is the target side of the state stream: decode and stage
// one entry; the coordinator's MigrateCommit installs the batch.
func (w *Worker) stageState(link *fronthaul.Link, f *fronthaul.Frame) error {
	word, tx, soft, err := fronthaul.DecodeState(int(f.K), f.Flags, f.Payload)
	if err != nil {
		return w.writeErr(link, err)
	}
	cell := int(f.Cell)
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.pending[cell]
	if st == nil {
		st = &ran.CellState{Cell: cell}
		w.pending[cell] = st
	}
	if word != nil {
		if tx == nil {
			tx = word
		}
		st.Blocks = append(st.Blocks, ran.MigratedBlock{
			UE: int(f.UE), Proc: int(f.Proc), K: int(f.K),
			Attempt: int(f.Attempt), Word: word, Tx: tx,
		})
	}
	if soft != nil {
		st.Buffers = append(st.Buffers, phy.ProcState{
			UE: int(f.UE), Proc: int(f.Proc), K: int(f.K),
			Attempts: int(f.Aux), Word: soft,
		})
	}
	return nil
}

// commitImport installs the staged state for a cell and acks with the
// number of blocks that re-entered the decode path.
func (w *Worker) commitImport(link *fronthaul.Link, f *fronthaul.Frame) error {
	cell := int(f.Cell)
	w.mu.Lock()
	st := w.pending[cell]
	delete(w.pending, cell)
	w.mu.Unlock()
	if st == nil {
		st = &ran.CellState{Cell: cell}
	}
	if want := int(f.Aux); want != len(st.Blocks)+len(st.Buffers) {
		return w.writeErr(link, fmt.Errorf("migration state incomplete: staged %d entries, commit expects %d",
			len(st.Blocks)+len(st.Buffers), want))
	}
	moved, err := w.rt.ImportCell(st)
	if err != nil {
		return w.writeErr(link, err)
	}
	return link.WriteFrame(&fronthaul.Frame{Type: fronthaul.TypeMigrateAck, Cell: f.Cell, Aux: uint64(moved)})
}

func (w *Worker) writeErr(link *fronthaul.Link, err error) error {
	return link.WriteFrame(&fronthaul.Frame{Type: fronthaul.TypeError, Payload: []byte(err.Error())})
}

// ContentCRC24B returns ran.CRC24B, the decode check every pool word
// carries. It is kept only for benchmark/, which calls it; ROADMAP item
// 1(h) moves that caller onto ran.CRC24B and deletes this forward.
func ContentCRC24B() func(*ran.Block, []byte) bool { return ran.CRC24B }
