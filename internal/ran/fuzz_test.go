package ran

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
)

// fuzzPools caches one word pool per block size so the fuzzer does not
// pay the turbo encoder on every iteration.
var (
	fuzzPoolMu sync.Mutex
	fuzzPools  = map[int]*WordPool{}
)

func fuzzPool(t testing.TB, k int) *WordPool {
	fuzzPoolMu.Lock()
	defer fuzzPoolMu.Unlock()
	if p, ok := fuzzPools[k]; ok {
		return p
	}
	p, err := NewWordPool(k, 8, rand.New(rand.NewSource(int64(k))))
	if err != nil {
		t.Fatal(err)
	}
	fuzzPools[k] = p
	return p
}

// fuzzKs are the block sizes the fuzzer cycles through — small enough
// to decode fast, spanning distinct trellis shapes.
var fuzzKs = [...]int{40, 64, 104}

// FuzzAdmission drives Runtime.Submit with fuzzer-chosen class maps,
// deadlines, block sizes and arrival patterns, and asserts the
// properties no input may break:
//
//   - the conservation ledger holds per class and in total: every
//     offer is admitted or visibly rejected, every admitted block ends
//     delivered or in a counted drop, and the per-class ledgers tile
//     the totals;
//   - no class starves: all accepted work reaches a terminal state
//     within a generous settle budget — a stuck queue or a batcher
//     that never serves one class fails here;
//   - nothing is left behind after Stop (queues, retry path).
//
// mode picks the block size (bits 0-5); bits 0x40 and 0x80 are ignored,
// so the seeds that set them replay unchanged.
// Each step byte encodes one submission burst: cell, HARQ process,
// burst size and an optional sub-TTI arrival gap.
func FuzzAdmission(f *testing.F) {
	f.Add(byte(0b01), uint16(3000), uint16(1000), byte(0), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(byte(0b10), uint16(500), uint16(0), byte(0x80), []byte{0xff, 0x00, 0x7f, 0x08, 0x88})
	f.Add(byte(0b11), uint16(1), uint16(1), byte(0xc1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(byte(0b00), uint16(60000), uint16(30000), byte(0x42), []byte{0x10, 0x20, 0x30, 0x40})
	f.Fuzz(func(t *testing.T, classSpec byte, deadlineUs, urllcUs uint16, mode byte, steps []byte) {
		if len(steps) > 64 {
			steps = steps[:64]
		}
		const cells = 3
		classes := make([]Class, cells)
		for c := 0; c < cells; c++ {
			if classSpec&(1<<c) != 0 {
				classes[c] = ClassURLLC
			}
		}
		k := fuzzKs[int(mode&0x3f)%len(fuzzKs)]
		pool := fuzzPool(t, k)

		cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
		cfg.Cells = cells
		cfg.Workers = 2
		cfg.QueueDepth = 8 // small: the backlog reject path must fire under fuzz
		cfg.MaxIters = 4
		// Deadlines down to 1µs are legal inputs: hopeless blocks must
		// expire or finish late, never be lost.
		cfg.Deadline = time.Duration(deadlineUs) * time.Microsecond
		if cfg.Deadline <= 0 {
			cfg.Deadline = time.Microsecond
		}
		cfg.CheckCRC = CRC24B
		cfg.SLA = SLAConfig{
			Classes:       classes,
			URLLCDeadline: time.Duration(urllcUs) * time.Microsecond,
		}

		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var admitted, rejected [NumClasses]uint64
		var ghosts uint64 // out-of-range cells: rejected outside the ledger
		idx := 0
		for _, b := range steps {
			cell := int(b & 0x07) // 0-7: cells 3-7 exercise the range guard
			n := 1 + int(b>>6)    // burst of 1-4 blocks
			for j := 0; j < n; j++ {
				w, _ := pool.Get(idx)
				verdict := rt.SubmitProcess(cell, idx%4, idx, k, w)
				idx++
				if cell >= cells {
					if verdict != RejectedStopped {
						t.Fatalf("out-of-range cell %d: verdict %v", cell, verdict)
					}
					ghosts++
					continue
				}
				switch verdict {
				case Admitted:
					admitted[classes[cell]]++
				case RejectedBacklog:
					rejected[classes[cell]]++
				default:
					t.Fatalf("cell %d: verdict %v, want admitted or refused for backlog", cell, verdict)
				}
			}
			if b&0x08 != 0 { // sub-TTI arrival gap
				time.Sleep(time.Duration(b&0x07) * 20 * time.Microsecond)
			}
		}

		// No class starves: every accepted block must reach a terminal
		// state without Stop's shutdown sweep helping it along.
		settleBy := time.Now().Add(10 * time.Second)
		settled := false
		for time.Now().Before(settleBy) {
			s := rt.Snapshot()
			if s.Terminal() >= s.Accepted && s.RetryDepth == 0 {
				settled = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		s := rt.Stop()
		if !settled {
			t.Errorf("accepted work never settled: %d accepted, %d delivered, drops %v",
				s.Accepted, s.Delivered, s.DropsByCause())
		}

		// Conservation, per class and in total.
		var accSum, delSum, preSum uint64
		for c := Class(0); c < NumClasses; c++ {
			ks := &s.Classes[c]
			accSum += ks.Accepted
			delSum += ks.Delivered
			if ks.Accepted != admitted[c] {
				t.Errorf("class %s: accepted %d, Submit admitted %d", c, ks.Accepted, admitted[c])
			}
			pre := ks.Offered() - ks.Accepted
			preSum += pre
			if pre != rejected[c] {
				t.Errorf("class %s: ledger rejects %d, Submit rejected %d", c, pre, rejected[c])
			}
			if refused := ks.Drops[DropBacklog]; pre != refused {
				t.Errorf("class %s: Offered() - Accepted = %d, backlog = %d", c, pre, refused)
			}
			if ks.Accepted != ks.Terminal() {
				t.Errorf("class %s accounting leak: accepted %d != terminal %d (delivered %d)",
					c, ks.Accepted, ks.Terminal(), ks.Delivered)
			}
		}
		if accSum != s.Accepted || delSum != s.Delivered {
			t.Errorf("class ledgers do not tile totals: accepted %d/%d, delivered %d/%d",
				accSum, s.Accepted, delSum, s.Delivered)
		}
		if offered := uint64(idx); offered != accSum+preSum+ghosts {
			t.Errorf("offered %d != admitted %d + rejected %d + out-of-range %d",
				offered, accSum, preSum, ghosts)
		}
		if s.RetryDepth != 0 {
			t.Errorf("retry queue depth %d after stop", s.RetryDepth)
		}
		for i, c := range s.Cells {
			if c.QueueDepth != 0 {
				t.Errorf("cell %d queue depth %d after stop", i, c.QueueDepth)
			}
		}
	})
}
