package pipeline

import (
	"testing"
	"testing/quick"
)

// lte is LTE-shaped timing (1 ms TTI, 3 ms processing deadline) around
// a per-TB cost.
func lte(procUs float64, tbBits, cores int) TTIConfig {
	return TTIConfig{TTIUs: 1000, ProcUs: procUs, TBBits: tbBits, DeadlineUs: 3000, Cores: cores}
}

// flat is nTTIs TTIs of perTTI arrivals each.
func flat(perTTI, nTTIs int) []int {
	arrivals := make([]int, nTTIs)
	for i := range arrivals {
		arrivals[i] = perTTI
	}
	return arrivals
}

func TestTTISimulateUnderload(t *testing.T) {
	// One 500µs block per 1000µs TTI on one core: everything delivered.
	d, mbps := lte(500, 12000, 1).SimulateArrivals(flat(1, 100))
	if d != 1 {
		t.Errorf("delivery %f, want 1 under light load", d)
	}
	if mbps < 11.9 || mbps > 12.1 {
		t.Errorf("goodput %f Mbps, want ~12", mbps)
	}
}

func TestTTISimulateOverload(t *testing.T) {
	// Four 800µs blocks per TTI on one core: the queue grows without
	// bound and deadlines start failing.
	d, _ := lte(800, 12000, 1).SimulateArrivals(flat(4, 200))
	if d > 0.5 {
		t.Errorf("delivery %f under 3.2x overload, want low", d)
	}
}

func TestTTIMoreCoresMoreGoodput(t *testing.T) {
	// Four 700µs blocks per TTI overload one core (~1.4 blocks per TTI)
	// and fit in four; goodput never falls as cores are added.
	prev := 0.0
	var m1, m4 float64
	for cores := 1; cores <= 8; cores++ {
		_, m := lte(700, 12000, cores).SimulateArrivals(flat(4, 200))
		if m < prev {
			t.Errorf("%d cores sustain %f Mbps, below %d cores' %f", cores, m, cores-1, prev)
		}
		prev = m
		switch cores {
		case 1:
			m1 = m
		case 4:
			m4 = m
		}
	}
	if m4 < 3*m1 {
		t.Errorf("4 cores sustain %f Mbps vs 1 core %f; want ~4x", m4, m1)
	}
}

// Property: delivery ratio never increases when load increases.
func TestTTIDeliveryMonotone(t *testing.T) {
	f := func(procRaw uint8, coresRaw uint8) bool {
		cfg := lte(float64(procRaw%200)*10+100, 10000, int(coresRaw%4)+1)
		prev := 1.0
		for load := 1; load <= 6; load++ {
			d, _ := cfg.SimulateArrivals(flat(load, 50))
			if d > prev+1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTTIEdgeCases(t *testing.T) {
	if d, m := lte(100, 1000, 0).SimulateArrivals(flat(1, 10)); d != 0 || m != 0 {
		t.Error("zero cores should deliver nothing")
	}
	cfg := lte(100, 1000, 1)
	if d, m := cfg.SimulateArrivals(flat(0, 10)); d != 0 || m != 0 {
		t.Error("zero load should report zeros")
	}
	if d, m := cfg.SimulateArrivals(nil); d != 0 || m != 0 {
		t.Error("no TTIs should report zeros")
	}
}

func TestTTIZeroDeadline(t *testing.T) {
	// A zero deadline budget means nothing is deliverable, even with
	// instant processing: the serving layer treats it as "shed all".
	cfg := TTIConfig{TTIUs: 1000, ProcUs: 0, TBBits: 1000, DeadlineUs: 0, Cores: 4}
	if d, m := cfg.SimulateArrivals(flat(2, 50)); d != 0 || m != 0 {
		t.Errorf("zero deadline delivered %.2f (%.2f Mbps), want nothing", d, m)
	}
}

func TestTTIBurstArrival(t *testing.T) {
	// One giant burst followed by silence: the pool drains the backlog,
	// and only the blocks within the deadline horizon survive. Capacity
	// within the 3000µs deadline: first block starts at 0, each core
	// finishes floor(3000/500)=6 blocks in budget -> 12 of 20 delivered.
	cfg := TTIConfig{TTIUs: 1000, ProcUs: 500, TBBits: 12000, DeadlineUs: 3000, Cores: 2}
	arrivals := make([]int, 20)
	arrivals[0] = 20
	d, mbps := cfg.SimulateArrivals(arrivals)
	want := 12.0 / 20.0
	if d < want-1e-9 || d > want+1e-9 {
		t.Errorf("burst delivery %.3f, want %.3f", d, want)
	}
	if mbps <= 0 {
		t.Error("burst goodput should be positive")
	}

	// The same blocks spread evenly are all deliverable.
	dEven, _ := cfg.SimulateArrivals(flat(1, 20))
	if dEven != 1 {
		t.Errorf("even delivery %.3f, want 1", dEven)
	}
	if dEven <= d {
		t.Error("bursts must hurt delivery relative to even arrivals")
	}
}
