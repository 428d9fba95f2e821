package ran

import (
	"fmt"
	"math/rand"
	"time"

	"vransim/internal/phy"
	"vransim/internal/transport"
	"vransim/internal/turbo"
)

// WordPool pre-encodes a set of random code blocks so the hot serving
// path hands out ready-made LLR words instead of paying the encoder per
// arrival. Every payload is k−24 random bits followed by their CRC24B,
// so a decode is judged on its content alone (CRC24B) — in process, on
// a shard across the fronthaul, or after a migration. Words are
// read-only once built, so one pool safely feeds any number of
// submitters and decode workers.
type WordPool struct {
	K     int
	words []*turbo.LLRWord
	truth [][]byte
}

// NewWordPool encodes n random CRC24B-suffixed K-bit blocks using the
// caller's rng (explicit so concurrent pools never share a source).
func NewWordPool(k, n int, rng *rand.Rand) (*WordPool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ran: word pool needs n > 0")
	}
	if k <= 24 {
		return nil, fmt.Errorf("ran: word pool needs k > 24 for its CRC24B, got %d", k)
	}
	c, err := turbo.NewCode(k)
	if err != nil {
		return nil, err
	}
	p := &WordPool{K: k}
	for i := 0; i < n; i++ {
		msg := make([]byte, k-24)
		for j := range msg {
			msg[j] = byte(rng.Intn(2))
		}
		bits := phy.AppendCRC(msg, phy.CRC24BPoly, 24)
		cw, err := c.Encode(bits)
		if err != nil {
			return nil, err
		}
		w := turbo.NewLLRWord(k)
		w.FromHard(cw, 24)
		p.words = append(p.words, w)
		p.truth = append(p.truth, bits)
	}
	return p, nil
}

// Get returns word i (mod pool size) and its true payload bits.
func (p *WordPool) Get(i int) (*turbo.LLRWord, []byte) {
	j := i % len(p.words)
	return p.words[j], p.truth[j]
}

// Len reports the pool size.
func (p *WordPool) Len() int { return len(p.words) }

// CRC24B is the Config.CheckCRC hook for pool words: a decoded payload
// is accepted iff its CRC24B suffix verifies. It needs no truth table,
// so it judges a block wherever it decodes. One check passes wrong
// decisions with probability 2⁻²⁴. The runtime checks a block's decisions
// of each iteration from the second on at most once (while they move, and
// after the decode those it stopped at, unless it stopped on a pass), so
// a wrong block is delivered with probability at most (MaxIters−1)·2⁻²⁴.
func CRC24B(_ *Block, bits []byte) bool {
	return phy.CheckCRC(bits, phy.CRC24BPoly, 24)
}

// Source is one cell's arrival process: Mean blocks per TTI, Poisson
// when Burst ≤ 1, and when Burst > 1 a two-state MMPP that is ON at
// Burst× the mean for 1/Burst of the time (ON dwell 8 TTIs on average)
// and silent otherwise, so the long-run mean stays Mean.
type Source struct {
	Mean, Burst float64
}

// Uniform is n cells of the one source.
func Uniform(n int, src Source) []Source {
	cells := make([]Source, n)
	for c := range cells {
		cells[c] = src
	}
	return cells
}

// LoadConfig shapes the synthetic traffic the generator offers.
type LoadConfig struct {
	// Cells holds one arrival source per cell, in cell order.
	Cells []Source
	// UEs is the number of UE ids per cell (at least 1).
	UEs int
	// TTI is the arrival clock period (LTE: 1 ms); 0 offers the whole
	// schedule unpaced, as fast as the submit callback returns.
	TTI time.Duration
	// TTIs is the run horizon.
	TTIs int
	// Seed derives one private rng per cell.
	Seed int64
}

// Arrival is one scheduled block. Block n of a cell goes to UE n % UEs
// on HARQ process (n / UEs) % HARQProcesses, so a (UE, process) pair of
// a cell recurs only every UEs·HARQProcesses blocks and two live blocks
// never share a soft buffer unless that many are in flight.
type Arrival struct {
	TTI, Cell, UE, Proc int
}

// Schedule is a load drawn up front: every arrival of the horizon,
// merged across cells in TTI order. Arrival i carries pool word i.
type Schedule struct {
	TTI      time.Duration
	Arrivals []Arrival
	// first[t] is the index of TTI t's first arrival; len TTIs+1.
	first []int
}

// NewSchedule draws cfg's arrivals. The same cfg draws the same
// schedule.
func NewSchedule(cfg LoadConfig) *Schedule {
	ues := max(cfg.UEs, 1)
	procs := make([]transport.ArrivalProcess, len(cfg.Cells))
	for c, src := range cfg.Cells {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
		if src.Burst > 1 {
			procs[c] = transport.NewBurstyProcess(src.Burst*src.Mean, 0, 8, 8*(src.Burst-1), rng)
		} else {
			procs[c] = transport.NewPoissonProcess(src.Mean, rng)
		}
	}
	s := &Schedule{TTI: cfg.TTI, first: make([]int, cfg.TTIs+1)}
	blocks := make([]int, len(cfg.Cells))
	for t := 0; t < cfg.TTIs; t++ {
		s.first[t] = len(s.Arrivals)
		for c, p := range procs {
			for j := p.Next(); j > 0; j-- {
				n := blocks[c]
				s.Arrivals = append(s.Arrivals, Arrival{
					TTI: t, Cell: c, UE: n % ues, Proc: (n / ues) % HARQProcesses,
				})
				blocks[c]++
			}
		}
	}
	s.first[cfg.TTIs] = len(s.Arrivals)
	return s
}

// LoadReport summarizes what a generator run actually offered.
type LoadReport struct {
	// Offered counts submit calls; Arrivals records the per-TTI
	// aggregate arrival counts (for the analytic cross-check).
	Offered  int
	Arrivals []int
	// Slip is how far the run fell behind the TTI clock for good.
	Slip time.Duration
}

// OfferLoad offers TTIs [from, to) of s to submit, pool word i with
// arrival i, on the calling goroutine, and returns what it offered.
// Runtime.SubmitProcess and Coordinator.Submit both fit submit. A
// caller that acts between two TTIs (a forced migration) offers the
// schedule in two calls.
//
// TTI t is due (t−from)·TTI after the call plus the slip so far. The
// catch-up rule is slip: a TTI the loop reaches more than one TTI past
// its due time adds that lateness to the slip and is offered at once,
// so later TTIs keep their spacing from it and a stall never turns
// into a clump of the TTIs it missed; a TTI less late is offered at
// once without slipping; an early one is slept for. Every arrival is
// still offered exactly once. Lateness is judged before the sleep, not
// after it: time.Sleep on an idle process wakes up to a millisecond
// late, and judged after it, that alone stretched a run of 1 ms TTIs
// by ~7 % on a 2-vCPU host.
func OfferLoad[R any](s *Schedule, from, to int, pool *WordPool, submit func(cell, ue, proc, k int, w *turbo.LLRWord) R) LoadReport {
	rep := LoadReport{Arrivals: make([]int, to-from)}
	start := time.Now()
	for t := from; t < to; t++ {
		if s.TTI > 0 {
			due := start.Add(time.Duration(t-from)*s.TTI + rep.Slip)
			if late := time.Since(due); late > s.TTI {
				rep.Slip += late
			} else if late < 0 {
				time.Sleep(-late)
			}
		}
		for i := s.first[t]; i < s.first[t+1]; i++ {
			a := s.Arrivals[i]
			w, _ := pool.Get(i)
			submit(a.Cell, a.UE, a.Proc, pool.K, w)
		}
		rep.Arrivals[t-from] = s.first[t+1] - s.first[t]
		rep.Offered += rep.Arrivals[t-from]
	}
	return rep
}
