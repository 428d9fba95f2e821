package transport

import (
	"math/rand"
	"testing"
)

func TestPoissonMeanAndReplay(t *testing.T) {
	const mean = 2.5
	const n = 20000
	draw := func(seed int64) (sum int, seq []int) {
		p := NewPoissonProcess(mean, rand.New(rand.NewSource(seed)))
		seq = make([]int, n)
		for i := range seq {
			seq[i] = p.Next()
			sum += seq[i]
		}
		return
	}
	sum, seq1 := draw(42)
	got := float64(sum) / n
	if got < mean*0.95 || got > mean*1.05 {
		t.Errorf("empirical mean %.3f, want ~%.1f", got, mean)
	}
	// Same seed -> identical arrival pattern (reproducibility is the
	// whole point of injectable randomness).
	_, seq2 := draw(42)
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("same-seed processes diverge at TTI %d", i)
		}
	}
	if p := NewPoissonProcess(0, rand.New(rand.NewSource(1))); p.Next() != 0 {
		t.Error("zero-mean process should emit nothing")
	}
}

func TestBurstyLongRunMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBurstyProcess(8, 0.5, 10, 30, rng)
	const n = 60000
	sum := 0
	for i := 0; i < n; i++ {
		sum += b.Next()
	}
	want := b.MeanRate() // (8*10 + 0.5*30) / 40 = 2.375
	got := float64(sum) / n
	if got < want*0.85 || got > want*1.15 {
		t.Errorf("bursty empirical mean %.3f, want ~%.3f", got, want)
	}
}

func TestBurstyIsBurstier(t *testing.T) {
	// Same long-run mean, but the bursty process must have a heavier
	// per-TTI variance than the Poisson one (that is what it is for).
	const n = 40000
	variance := func(next func() int) float64 {
		var sum, sq float64
		for i := 0; i < n; i++ {
			v := float64(next())
			sum += v
			sq += v * v
		}
		m := sum / n
		return sq/n - m*m
	}
	p := NewPoissonProcess(2, rand.New(rand.NewSource(3)))
	b := NewBurstyProcess(8, 0, 10, 30, rand.New(rand.NewSource(3)))
	if b.MeanRate() != 2 {
		t.Fatalf("test setup: bursty mean %.2f, want 2", b.MeanRate())
	}
	vp, vb := variance(p.Next), variance(b.Next)
	if vb <= vp {
		t.Errorf("bursty variance %.2f not above poisson %.2f", vb, vp)
	}
}

// Two generators driven by equally seeded *rand.Rand streams replay the
// same packets, and each packet parses.
func TestNewGeneratorRand(t *testing.T) {
	g1 := &Generator{Proto: UDP, rng: rand.New(rand.NewSource(5))}
	g2 := &Generator{Proto: UDP, rng: rand.New(rand.NewSource(5))}
	p1, err := g1.Next(256)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g2.Next(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 256 || string(p1) != string(p2) {
		t.Error("same-rng generators should produce identical packets")
	}
	if _, err := Parse(p1); err != nil {
		t.Errorf("generated packet does not parse: %v", err)
	}
}
