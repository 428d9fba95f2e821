package ran

import (
	"fmt"
	"sync"
)

// ready is the runtime's one batch former and the only place a block
// waits between Submit and a worker: a work-conserving structure the
// workers pull from, with no goroutine of its own. Blocks are grouped by
// class and K, in deadline order within each group, and a worker takes
// up to lanes blocks of the most urgent group. Nothing waits for lane
// co-travellers: under load blocks pile up while every worker is busy,
// so the next take fills the lanes, and below load a block is decoded as
// soon as it arrives.
//
// Everything here is guarded by mu, and so is the degrade and shed
// recomputation each take does (Runtime.take).
type ready struct {
	mu    sync.Mutex
	lanes int
	// bound is Config.QueueDepth: an arrival is refused when its (cell,
	// class) already holds that many waiting blocks.
	bound int
	// groups[c][k] holds class c's waiting blocks of size k, earliest
	// deadline first.
	groups [NumClasses]map[int][]*Block
	// waiting counts blocks per (cell, class), indexed by qi; retries
	// counts the HARQ retransmissions among them.
	waiting []int
	retries int
	// mig is the cell being drained for migration (-1: none); migq holds
	// its blocks, which have left the decode path.
	mig  int
	migq []*Block
	// closed refuses every push; the workers drain what is left and exit.
	closed bool
	// Idle workers park on general, or on urllc when reserved for URLLC;
	// idleGeneral and idleURLLC count the parked ones no push has
	// signalled yet, out of workers.
	general, urllc         sync.Cond
	idleGeneral, idleURLLC int
	workers                int
}

func newReady(cells, lanes, bound, workers int) *ready {
	q := &ready{lanes: lanes, bound: bound, workers: workers, waiting: make([]int, cells*int(NumClasses)), mig: -1}
	for c := range q.groups {
		q.groups[c] = make(map[int][]*Block)
	}
	q.general.L, q.urllc.L = &q.mu, &q.mu
	return q
}

// qi indexes the per-(cell, class) waiting counts.
func qi(cell int, c Class) int { return cell*int(NumClasses) + int(c) }

// push adds b to its group and wakes one parked worker that may take it
// — a reserved one first for URLLC, never one for eMBB — or none when
// every such worker is busy. An arrival (bounded) is refused with
// RejectedBacklog when its (cell, class) is full; a retransmission or a
// block back from an aborted drain is not. A block of the cell being
// drained goes to migq instead. Once the structure is closed every push
// fails with RejectedStopped.
//
// handOff reports that the push woke a worker while every worker was
// parked: the runtime was idle, so no batch is forming for later
// arrivals to join, and the caller may yield its processor to the worker
// the wake queued there (Runtime.SubmitTraced).
func (q *ready) push(b *Block, bounded bool) (a Admit, handOff bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return RejectedStopped, false
	}
	if b.Cell == q.mig {
		q.migq = append(q.migq, b)
		return Admitted, false
	}
	i := qi(b.Cell, b.Class)
	if bounded && q.waiting[i] >= q.bound {
		return RejectedBacklog, false
	}
	q.count(b, 1)
	g := append(q.groups[b.Class][b.K], b)
	for j := len(g) - 1; j > 0 && b.Deadline.Before(g[j-1].Deadline); j-- {
		g[j], g[j-1] = g[j-1], g[j]
	}
	q.groups[b.Class][b.K] = g
	idle := q.idleGeneral+q.idleURLLC == q.workers
	switch {
	case b.Class == ClassURLLC && q.idleURLLC > 0:
		q.idleURLLC--
		q.urllc.Signal()
	case q.idleGeneral > 0:
		q.idleGeneral--
		q.general.Signal()
	default:
		idle = false
	}
	return Admitted, idle
}

// count moves b's (cell, class) and retry counts by d (+1 in, -1 out).
func (q *ready) count(b *Block, d int) {
	q.waiting[qi(b.Cell, b.Class)] += d
	if b.Attempt > 0 {
		q.retries += d
	}
}

// pick names the group a worker takes from next: URLLC before eMBB (a
// URLLC-only worker sees nothing else), and within a class the K whose
// head deadline is earliest.
func (q *ready) pick(urllcOnly bool) (Class, int, bool) {
	for _, c := range [...]Class{ClassURLLC, ClassEMBB} {
		var head *Block
		for _, g := range q.groups[c] {
			if len(g) > 0 && (head == nil || g[0].Deadline.Before(head.Deadline)) {
				head = g[0]
			}
		}
		if head != nil {
			return c, head.K, true
		}
		if urllcOnly {
			break
		}
	}
	return 0, 0, false
}

// holds reports whether any block of class c waits.
func (q *ready) holds(c Class) bool {
	for _, g := range q.groups[c] {
		if len(g) > 0 {
			return true
		}
	}
	return false
}

// pop moves up to lanes blocks from the head of group (c, k) onto out.
func (q *ready) pop(c Class, k int, out []*Block) []*Block {
	g := q.groups[c][k]
	n := min(len(g), q.lanes)
	for _, b := range g[:n] {
		q.count(b, -1)
	}
	out = append(out, g[:n]...)
	clear(g[:n])
	if n == len(g) {
		g = g[:0] // keep the array for the next arrivals
	} else {
		g = g[n:]
	}
	q.groups[c][k] = g
	return out
}

// park blocks the calling worker (mu held) until a push signals it or
// the structure closes.
func (q *ready) park(urllcOnly bool) {
	if urllcOnly {
		q.idleURLLC++
		q.urllc.Wait()
	} else {
		q.idleGeneral++
		q.general.Wait()
	}
}

// close refuses every later push and wakes every parked worker to drain
// what is left.
func (q *ready) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.idleGeneral, q.idleURLLC = 0, 0
	q.general.Broadcast()
	q.urllc.Broadcast()
}

// beginMigration diverts cell: its waiting blocks move to migq, and so
// does every later push of it until endMigration.
func (q *ready) beginMigration(cell int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return fmt.Errorf("ran: drain during shutdown")
	}
	if q.mig >= 0 {
		return fmt.Errorf("ran: a migration is already in progress")
	}
	q.mig = cell
	for c := range q.groups {
		for k, g := range q.groups[c] {
			kept := g[:0]
			for _, b := range g {
				if b.Cell == cell {
					q.count(b, -1)
					q.migq = append(q.migq, b)
				} else {
					kept = append(kept, b)
				}
			}
			clear(g[len(kept):])
			q.groups[c][k] = kept
		}
	}
	return nil
}

// migrated counts the blocks a migration has diverted so far.
func (q *ready) migrated() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.migq)
}

// endMigration stops diverting and hands back the diverted blocks.
func (q *ready) endMigration() []*Block {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.migq
	q.mig, q.migq = -1, nil
	return out
}

// depth is one (cell, class)'s waiting count.
func (q *ready) depth(i int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiting[i]
}

// depths sums the waiting counts per cell, and reports the waiting
// retransmissions.
func (q *ready) depths() (perCell []int, retries int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	perCell = make([]int, len(q.waiting)/int(NumClasses))
	for i, n := range q.waiting {
		perCell[i/int(NumClasses)] += n
	}
	return perCell, q.retries
}
