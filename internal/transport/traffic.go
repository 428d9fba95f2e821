package transport

import (
	"fmt"
	"math"
	"math/rand"
)

// ArrivalProcess produces per-TTI arrival counts for one traffic
// source. Implementations are deterministic functions of the *rand.Rand
// they were constructed with, so two processes seeded identically
// replay the same arrival pattern.
type ArrivalProcess interface {
	// Next returns how many transport blocks arrive in the coming TTI.
	Next() int
	// Name labels the process in reports.
	Name() string
}

// PoissonProcess models independent per-TTI arrivals with the given
// mean (the classic M/D/c ingress of a cell under uniform load).
type PoissonProcess struct {
	Mean float64
	rng  *rand.Rand
}

// NewPoissonProcess builds a Poisson arrival process. rng must not be
// shared with another goroutine.
func NewPoissonProcess(mean float64, rng *rand.Rand) *PoissonProcess {
	return &PoissonProcess{Mean: mean, rng: rng}
}

// Name implements ArrivalProcess.
func (p *PoissonProcess) Name() string { return fmt.Sprintf("poisson(%.2f)", p.Mean) }

// Next draws one Poisson variate (Knuth's product method; the per-TTI
// means in play are small, so the loop is short).
func (p *PoissonProcess) Next() int {
	if p.Mean <= 0 {
		return 0
	}
	l := math.Exp(-p.Mean)
	k, prod := 0, 1.0
	for {
		prod *= p.rng.Float64()
		if prod <= l {
			return k
		}
		k++
	}
}

// BurstyProcess is a two-state Markov-modulated Poisson process: an ON
// state emitting at BurstMean and an OFF state emitting at IdleMean,
// with geometric dwell times. It models the flash crowds and DRX-style
// silences that make deadline queues interesting — the long-run mean is
// the dwell-weighted blend of the two rates.
type BurstyProcess struct {
	// BurstMean and IdleMean are the per-TTI arrival means in each state.
	BurstMean, IdleMean float64
	// BurstTTIs and IdleTTIs are the mean dwell times (geometric).
	BurstTTIs, IdleTTIs float64

	rng    *rand.Rand
	inner  *PoissonProcess
	onAir  bool
	remain int
}

// NewBurstyProcess builds a bursty arrival process starting in the OFF
// state. rng must not be shared with another goroutine.
func NewBurstyProcess(burstMean, idleMean, burstTTIs, idleTTIs float64, rng *rand.Rand) *BurstyProcess {
	return &BurstyProcess{
		BurstMean: burstMean, IdleMean: idleMean,
		BurstTTIs: burstTTIs, IdleTTIs: idleTTIs,
		rng:   rng,
		inner: NewPoissonProcess(idleMean, rng),
	}
}

// Name implements ArrivalProcess.
func (b *BurstyProcess) Name() string {
	return fmt.Sprintf("bursty(on=%.2f/%.0f off=%.2f/%.0f)", b.BurstMean, b.BurstTTIs, b.IdleMean, b.IdleTTIs)
}

// Next advances the state machine one TTI and draws the state's rate.
func (b *BurstyProcess) Next() int {
	if b.remain <= 0 {
		b.onAir = !b.onAir
		mean, dwell := b.IdleMean, b.IdleTTIs
		if b.onAir {
			mean, dwell = b.BurstMean, b.BurstTTIs
		}
		b.inner.Mean = mean
		b.remain = geometricDwell(dwell, b.rng)
	}
	b.remain--
	return b.inner.Next()
}

// MeanRate returns the long-run per-TTI arrival mean of the process.
func (b *BurstyProcess) MeanRate() float64 {
	tot := b.BurstTTIs + b.IdleTTIs
	if tot <= 0 {
		return 0
	}
	return (b.BurstMean*b.BurstTTIs + b.IdleMean*b.IdleTTIs) / tot
}

// geometricDwell samples a >=1 dwell time with the given mean.
func geometricDwell(mean float64, rng *rand.Rand) int {
	if mean <= 1 {
		return 1
	}
	// Geometric with success probability 1/mean.
	p := 1 / mean
	n := 1
	for rng.Float64() > p {
		n++
	}
	return n
}
