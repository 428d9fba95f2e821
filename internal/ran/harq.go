package ran

import (
	"time"

	"vransim/internal/telemetry"
)

// HARQConfig shapes the runtime's retransmission path. A decode whose
// CRC check fails (Config.CheckCRC, or a chaos-forced failure) is not
// dropped: its received word is chase-combined into the (cell, UE,
// process) soft buffer, a retransmission is received, and the combined
// word is pushed back for another decode — up to MaxRetries times, each
// retry under a fresh per-transmission deadline. Exhausting the budget
// (or a combine rejection) terminates the block as a DropHARQ.
type HARQConfig struct {
	// MaxRetries bounds the retransmissions after the first attempt.
	// 0 disables the retry path entirely: CRC failures drop immediately.
	MaxRetries int
}

// HARQProcesses is the HARQ process count per (cell, UE), LTE FDD's
// eight stop-and-wait processes; process ids wrap modulo it.
const HARQProcesses = 8

// harqRelease frees the block's soft buffer after a terminal outcome
// (delivered or dropped for any cause).
func (r *Runtime) harqRelease(b *Block) {
	if r.harq != nil {
		r.harq.Release(b.Cell, b.UE, b.Process)
	}
}

// retryOrDrop is the worker-side failure path: called for a block whose
// decode finished in deadline but failed its CRC check. It either
// pushes a soft-combined retransmission back into the ready structure
// or terminates the block with a drop — exactly one of the two, so block
// accounting stays conserved.
func (r *Runtime) retryOrDrop(b *Block, now time.Time, busy time.Duration, iters int) {
	if r.harq == nil || b.Attempt >= r.cfg.HARQ.MaxRetries {
		r.met.drop(b.Cell, b.Class, DropHARQ)
		r.recordSpan(b, now, busy, iters, "harq_exhausted")
		r.harqRelease(b)
		return
	}
	// First failure: fold the first reception into the soft buffer.
	// Later attempts' words are combined snapshots — already in there.
	if b.Attempt == 0 {
		if _, _, err := r.harq.Combine(b.Cell, b.UE, b.Process, b.Word); err != nil {
			// K mismatch against a live buffer: reject, never corrupt.
			r.met.drop(b.Cell, b.Class, DropHARQ)
			r.recordSpan(b, now, busy, iters, "harq_reject")
			return
		}
	}
	// The retransmission: a fresh reception of the same transmitted
	// word (independently chaos-corrupted when an injector is armed),
	// chase-combined with every earlier reception of this block.
	rx := r.cfg.Chaos.CorruptWord(b.tx)
	comb, _, err := r.harq.Combine(b.Cell, b.UE, b.Process, rx)
	if err != nil {
		r.met.drop(b.Cell, b.Class, DropHARQ)
		r.recordSpan(b, now, busy, iters, "harq_reject")
		return
	}
	nb := &Block{
		Cell: b.Cell, UE: b.UE, Process: b.Process, K: b.K, Class: b.Class,
		Word: comb, tx: b.tx, Attempt: b.Attempt + 1,
		// Arrived stays the first transmission's arrival so delivered
		// latency covers the whole HARQ exchange; the deadline is per
		// transmission.
		Arrived:  b.Arrived,
		Deadline: now.Add(r.classDeadline(b.Class)),
		// The trace follows the retransmission: the failed attempt's
		// entire local dwell folds into the harq-retry stage, and the
		// successor's queue/batch/decode stages restart from its own
		// (monotonic, local) requeue instant — so the final span's
		// stages still sum to the block's end-to-end latency.
		traceID: b.traceID, traceParent: b.traceParent, origin: b.origin,
		acc:        b.acc,
		hopArrived: now,
	}
	prev := b.hopArrived
	if prev.IsZero() {
		prev = b.Arrived
	}
	nb.acc[telemetry.SpanHARQRetry] += clampDur(now.Sub(prev))
	// A retry is never refused for backlog (its count is already bounded
	// by MaxRetries times the blocks in flight); only Stop refuses it, and
	// then it ends here as a shutdown drop.
	if a, _ := r.rq.push(nb, false); a != Admitted {
		r.met.drop(b.Cell, b.Class, DropShutdown)
		r.recordSpan(b, now, busy, iters, "harq_shutdown")
		r.harqRelease(b)
		return
	}
	r.met.harqRetry()
	r.recordSpan(b, now, busy, iters, "harq_retry")
}

// checkBlock runs the post-decode acceptance check for one block:
// the configured CRC check first, then any chaos-forced failure.
func (r *Runtime) checkBlock(b *Block, bits []byte) bool {
	if r.cfg.CheckCRC != nil && !r.cfg.CheckCRC(b, bits) {
		return false
	}
	if r.cfg.Chaos.ForceCRCFail() {
		return false
	}
	return true
}
