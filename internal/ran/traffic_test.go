package ran

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vransim/internal/turbo"
)

// TestWordPoolCRC24B: every pool payload ends in a CRC24B that the
// decode check accepts, a flipped bit fails it, and a block size with
// no room for the CRC is refused.
func TestWordPoolCRC24B(t *testing.T) {
	pool := mustPool(t, 64, 4, 2)
	for i := 0; i < pool.Len(); i++ {
		_, bits := pool.Get(i)
		if !CRC24B(nil, bits) {
			t.Errorf("true payload %d fails its own CRC", i)
		}
		bad := append([]byte(nil), bits...)
		bad[3] ^= 1
		if CRC24B(nil, bad) {
			t.Errorf("corrupted payload %d passes CRC", i)
		}
	}
	if _, err := NewWordPool(24, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("k ≤ 24 pool accepted")
	}
}

// mixedLoad is four cells: two Poisson and two MMPP sources.
func mixedLoad(seed int64, ues, ttis int) LoadConfig {
	return LoadConfig{
		Cells: []Source{{Mean: 2}, {Mean: 0.3}, {Mean: 2, Burst: 4}, {Mean: 0.5, Burst: 8}},
		UEs:   ues, TTIs: ttis, Seed: seed,
	}
}

// TestScheduleDeterministic: the same config draws the same schedule,
// and another seed draws another one.
func TestScheduleDeterministic(t *testing.T) {
	a, b := NewSchedule(mixedLoad(7, 4, 500)), NewSchedule(mixedLoad(7, 4, 500))
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed drew two schedules")
	}
	if c := NewSchedule(mixedLoad(8, 4, 500)); reflect.DeepEqual(a.Arrivals, c.Arrivals) {
		t.Error("two seeds drew one schedule")
	}
}

// TestScheduleUEProcessRule: block n of a cell goes to UE n % UEs on
// process (n / UEs) % HARQProcesses, so a (UE, process) pair of a cell
// recurs exactly every UEs·HARQProcesses blocks of that cell and never
// sooner — two live blocks cannot chase-combine into one soft buffer.
func TestScheduleUEProcessRule(t *testing.T) {
	type pair struct{ cell, ue, proc int }
	for _, ues := range []int{1, 3, 4, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			s := NewSchedule(mixedLoad(seed, ues, 2000))
			blocks := map[int]int{} // per cell, blocks so far
			last := map[pair]int{}  // block number of a pair's last use
			for _, a := range s.Arrivals {
				n := blocks[a.Cell]
				blocks[a.Cell]++
				if a.UE != n%ues || a.Proc != (n/ues)%HARQProcesses {
					t.Fatalf("UEs %d seed %d: cell %d block %d got (UE %d, proc %d)", ues, seed, a.Cell, n, a.UE, a.Proc)
				}
				p := pair{a.Cell, a.UE, a.Proc}
				if prev, ok := last[p]; ok && n-prev != ues*HARQProcesses {
					t.Fatalf("UEs %d seed %d: cell %d reuses (UE %d, proc %d) after %d blocks, want %d",
						ues, seed, a.Cell, a.UE, a.Proc, n-prev, ues*HARQProcesses)
				}
				last[p] = n
			}
		}
	}
}

// TestScheduleMeans: over 400 000 TTIs each cell's arrivals per TTI
// average to its source's mean within 2 % for Poisson and 5 % for MMPP,
// whose on/off dwells make the count far noisier (over seeds 1–30 the
// worst deviations were 0.6 % and 3.1 %).
func TestScheduleMeans(t *testing.T) {
	const ttis = 400000
	cells := []Source{{Mean: 0.5}, {Mean: 0.5, Burst: 4}, {Mean: 0.25, Burst: 8}}
	for seed := int64(1); seed <= 3; seed++ {
		count := make([]int, len(cells))
		for _, a := range NewSchedule(LoadConfig{Cells: cells, TTIs: ttis, Seed: seed}).Arrivals {
			count[a.Cell]++
		}
		for c, src := range cells {
			tol := 0.02
			if src.Burst > 1 {
				tol = 0.05
			}
			if got := float64(count[c]) / ttis; math.Abs(got-src.Mean) > tol*src.Mean {
				t.Errorf("seed %d cell %d (%+v): %.4f arrivals per TTI, want %.4f ± %.0f%%",
					seed, c, src, got, src.Mean, 100*tol)
			}
		}
	}
}

// offered records what the generator hands its callback.
type offered struct {
	arrivals []Arrival
	words    []*turbo.LLRWord
}

func (o *offered) submit(cell, ue, proc, k int, w *turbo.LLRWord) struct{} {
	o.arrivals = append(o.arrivals, Arrival{Cell: cell, UE: ue, Proc: proc})
	o.words = append(o.words, w)
	return struct{}{}
}

// check fails unless the callback saw every arrival of s once, in
// order, with pool word i on arrival i.
func (o *offered) check(t *testing.T, s *Schedule, pool *WordPool) {
	t.Helper()
	if len(o.arrivals) != len(s.Arrivals) {
		t.Fatalf("callback saw %d arrivals, schedule holds %d", len(o.arrivals), len(s.Arrivals))
	}
	for i, a := range s.Arrivals {
		w, _ := pool.Get(i)
		a.TTI = 0
		if o.arrivals[i] != a || o.words[i] != w {
			t.Fatalf("arrival %d: callback got %+v, schedule has %+v", i, o.arrivals[i], a)
		}
	}
}

// TestOfferLoadOffersEveryArrivalOnce: Offered is the sum of the
// per-TTI arrivals, and every arrival reaches the callback exactly
// once, whether the schedule is offered in one call or in two.
func TestOfferLoadOffersEveryArrivalOnce(t *testing.T) {
	const ttis = 300
	pool := mustPool(t, 40, 16, 1)
	s := NewSchedule(mixedLoad(5, 4, ttis))
	var whole offered
	rep := OfferLoad(s, 0, ttis, pool, whole.submit)
	whole.check(t, s, pool)
	sum := 0
	for _, n := range rep.Arrivals {
		sum += n
	}
	if rep.Offered != sum || rep.Offered != len(s.Arrivals) {
		t.Errorf("offered %d, per-TTI arrivals sum to %d, schedule holds %d", rep.Offered, sum, len(s.Arrivals))
	}

	var split offered
	a := OfferLoad(s, 0, ttis/3, pool, split.submit)
	b := OfferLoad(s, ttis/3, ttis, pool, split.submit)
	split.check(t, s, pool)
	if a.Offered+b.Offered != rep.Offered {
		t.Errorf("split offered %d + %d, whole %d", a.Offered, b.Offered, rep.Offered)
	}
}

// TestOfferLoadSlipsAfterStall: a callback that stalls once for 10 TTIs
// leaves the generator at least 9 TTIs behind the clock for good — it
// slips rather than offering the missed TTIs back to back — and it
// still offers every arrival. Host stalls can only add slip.
func TestOfferLoadSlipsAfterStall(t *testing.T) {
	const (
		tti  = 2 * time.Millisecond
		ttis = 30
	)
	pool := mustPool(t, 40, 16, 1)
	s := NewSchedule(LoadConfig{Cells: Uniform(2, Source{Mean: 1}), UEs: 4, TTI: tti, TTIs: ttis, Seed: 2})
	if len(s.Arrivals) == 0 || s.Arrivals[0].TTI >= ttis-1 {
		t.Fatal("schedule has no arrival early enough to stall on")
	}
	var rec offered
	stalled := false
	rep := OfferLoad(s, 0, ttis, pool, func(cell, ue, proc, k int, w *turbo.LLRWord) struct{} {
		if !stalled {
			stalled = true
			time.Sleep(10 * tti)
		}
		return rec.submit(cell, ue, proc, k, w)
	})
	rec.check(t, s, pool)
	if rep.Slip < 9*tti {
		t.Errorf("slip %v after a 10-TTI stall, want ≥ %v", rep.Slip, 9*tti)
	}
}

// TestOfferLoadUnpaced: a TTI of 0 offers the whole schedule without
// sleeping. 100 000 TTIs would take seconds at the shortest sleep a
// host grants; unpaced they take milliseconds, so a 5 s bound has room
// for any stall.
func TestOfferLoadUnpaced(t *testing.T) {
	const ttis = 100000
	pool := mustPool(t, 40, 16, 1)
	s := NewSchedule(LoadConfig{Cells: Uniform(2, Source{Mean: 0.01}), TTIs: ttis, Seed: 1})
	var rec offered
	start := time.Now()
	rep := OfferLoad(s, 0, ttis, pool, rec.submit)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("unpaced offer of %d TTIs took %v", ttis, d)
	}
	rec.check(t, s, pool)
	if rep.Slip != 0 {
		t.Errorf("unpaced slip %v, want 0", rep.Slip)
	}
}
