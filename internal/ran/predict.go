package ran

import (
	"math"
	"sync"
	"time"
)

// This file is the MMPP-informed burst predictor: a two-state arrival
// rate estimator that watches one cell's observed arrival stream and
// decides — ahead of any queue filling — whether the cell is inside an
// ON (burst) dwell of the Markov-modulated process the traffic
// generator models (transport.BurstyProcess). The shed ladder (sla.go)
// consults it so eMBB shedding starts when a burst begins, not when the
// backlog already crossed a threshold.
//
// Mechanism: arrivals are counted into fixed windows (one TTI by
// default). Each closed window feeds two EWMAs — a fast one tracking
// the instantaneous rate and a slow one tracking the baseline (idle)
// rate; the slow EWMA is frozen while a burst is declared so a long ON
// dwell cannot erode its own detection threshold. The state flips to
// burst when the fast rate exceeds predOnFactor x the baseline for
// predConfirm consecutive windows, and back when it falls under
// predOffFactor x the baseline for predConfirm windows — the two-sided
// hysteresis that keeps the estimator still on stationary Poisson input.
// While in a state, the state's own rate EWMA (RateOn / RateOff)
// converges toward the generating process's true per-state mean — the
// cross-check the unit tests run against transport.BurstyProcess ground
// truth.

// PredictConfig parameterizes the per-cell burst predictors.
type PredictConfig struct {
	// Enabled arms one predictor per cell; false leaves the shed ladder
	// purely reactive and emits no vran_predict_* families.
	Enabled bool
	// Window is the rate-estimation window (default 1ms — one LTE TTI).
	Window time.Duration
}

// The estimator's shape: constants, because they are tuned as a set (the
// unit tests pin the behaviour they give together against
// transport.BurstyProcess ground truth).
const (
	// predFastAlpha and predSlowAlpha are the EWMA weights of the
	// instantaneous and baseline rate trackers.
	predFastAlpha = 0.3
	predSlowAlpha = 0.03
	// predOnFactor and predOffFactor are the hysteresis thresholds: burst
	// when fast >= predOnFactor x baseline, clear when fast <=
	// predOffFactor x baseline.
	predOnFactor  = 1.8
	predOffFactor = 1.2
	// predMinRate floors the baseline used for thresholding (in blocks
	// per window) so a silent cell does not flag its first arrival as a
	// burst.
	predMinRate = 1.0
	// predConfirm is how many consecutive windows must agree before the
	// state flips, in either direction.
	predConfirm = 2
	// predNoiseSigmas is the Poisson-noise guard on the up transition:
	// the fast rate must also clear the baseline by this many standard
	// deviations of the fast EWMA under Poisson(baseline) arrivals
	// (sigma = sqrt(base*a/(2-a))). Without it, a stationary stream with
	// a mean near predMinRate sits only ~2 sigma under predOnFactor x
	// base and would flip state on noise alone.
	predNoiseSigmas = 4.0
	// predMaxCatchUp bounds how many empty windows one Observe call
	// rolls forward after a long silence.
	predMaxCatchUp = 64
)

// Predictor is one cell's burst estimator. Safe for concurrent use;
// the runtime calls Observe from every Submit, the shed controller
// reads Burst/Rate at every worker's take, and tests drive Tick directly
// with synthetic per-window counts.
type Predictor struct {
	mu     sync.Mutex
	window time.Duration

	windowEnd time.Time
	pending   float64 // arrivals in the open window

	seeded          bool
	offWindows      uint64  // non-burst windows folded into slow
	fast, slow      float64 // EWMA rates, blocks per window
	rateOn, rateOff float64 // learned per-state rates, blocks per window
	onSeen, offSeen bool

	burst              bool
	upStreak, downHold int
	transitions        uint64
	windows            uint64
}

// NewPredictor builds a predictor over cfg.Window (one LTE TTI when unset).
func NewPredictor(cfg PredictConfig) *Predictor {
	if cfg.Window <= 0 {
		cfg.Window = time.Millisecond
	}
	return &Predictor{window: cfg.Window}
}

// Observe records n arrivals at wall-clock instant now, closing (and
// scoring) any windows that have fully elapsed since the last call.
// A silent stretch longer than predMaxCatchUp windows is truncated — the
// estimator re-anchors instead of replaying unbounded history.
func (p *Predictor) Observe(now time.Time, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.windowEnd.IsZero() {
		p.windowEnd = now.Add(p.window)
		p.pending = float64(n)
		return
	}
	rolled := 0
	for !now.Before(p.windowEnd) {
		p.tick(p.pending)
		p.pending = 0
		p.windowEnd = p.windowEnd.Add(p.window)
		if rolled++; rolled >= predMaxCatchUp {
			p.windowEnd = now.Add(p.window)
			break
		}
	}
	p.pending += float64(n)
}

// Tick closes one full window carrying count arrivals — the test and
// simulation entry point, bypassing the wall clock.
func (p *Predictor) Tick(count int) {
	p.mu.Lock()
	p.tick(float64(count))
	p.mu.Unlock()
}

// tick folds one closed window into the estimator. Callers hold mu.
func (p *Predictor) tick(count float64) {
	p.windows++
	if !p.seeded {
		p.seeded = true
		p.offWindows = 1
		p.fast, p.slow = count, count
	} else {
		p.fast += predFastAlpha * (count - p.fast)
		if !p.burst {
			// The baseline only learns outside bursts: a long ON dwell
			// must not drag the threshold up under itself. Two further
			// guards keep it honest:
			//  - warming: for the first 1/predSlowAlpha windows the weight is
			//    1/n, so the baseline is the running mean and settles
			//    immediately instead of anchoring on the first window;
			//  - outlier damping: a window already over the up-threshold
			//    is probably an undeclared burst (detection lag), so it
			//    feeds the baseline at 1/8 weight rather than dragging
			//    the threshold up under the next dwell.
			p.offWindows++
			a := predSlowAlpha
			if w := 1 / float64(p.offWindows); w > a {
				a = w
			}
			// Outlier bound: a single Poisson(base) window has std
			// sqrt(base), so only counts beyond both the burst factor
			// and predNoiseSigmas single-sample deviations are damped —
			// ordinary high draws must keep feeding the baseline or a
			// stationary stream biases its own threshold down.
			guard := p.slow
			if guard < predMinRate {
				guard = predMinRate
			}
			cut := predOnFactor * guard
			if c := guard + predNoiseSigmas*math.Sqrt(guard); c > cut {
				cut = c
			}
			if count > cut {
				a = predSlowAlpha / 8
			}
			p.slow += a * (count - p.slow)
		}
	}
	base := p.slow
	if base < predMinRate {
		base = predMinRate
	}
	if !p.burst {
		// EWMA std under Poisson(base): sqrt(base * a/(2-a)).
		sigma := math.Sqrt(base * predFastAlpha / (2 - predFastAlpha))
		if p.fast >= predOnFactor*base && p.fast >= base+predNoiseSigmas*sigma {
			if p.upStreak++; p.upStreak >= predConfirm {
				p.burst = true
				p.transitions++
				p.upStreak, p.downHold = 0, 0
			}
		} else {
			p.upStreak = 0
		}
	} else {
		if p.fast <= predOffFactor*base {
			if p.downHold++; p.downHold >= predConfirm {
				p.burst = false
				p.transitions++
				p.upStreak, p.downHold = 0, 0
			}
		} else {
			p.downHold = 0
		}
	}
	// Per-state rate learning — the MMPP ON/OFF mean estimates.
	const stateAlpha = 0.1
	if p.burst {
		if !p.onSeen {
			p.onSeen, p.rateOn = true, count
		} else {
			p.rateOn += stateAlpha * (count - p.rateOn)
		}
	} else {
		if !p.offSeen {
			p.offSeen, p.rateOff = true, count
		} else {
			p.rateOff += stateAlpha * (count - p.rateOff)
		}
	}
}

// Burst reports whether the predictor currently declares an ON dwell.
func (p *Predictor) Burst() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.burst
}

// Rate returns the fast (near-term) arrival-rate estimate in blocks
// per second.
func (p *Predictor) Rate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fast / p.window.Seconds()
}

// PredictSnapshot is one cell predictor's exported state.
type PredictSnapshot struct {
	Cell int
	// Burst is the current state; Rate / RateOn / RateOff are the fast
	// estimate and the learned per-state means, in blocks per second.
	Burst                 bool
	Rate, RateOn, RateOff float64
	// Transitions counts state flips; Windows counts closed estimation
	// windows.
	Transitions, Windows uint64
}

// snapshot exports the predictor state for the metrics layer.
func (p *Predictor) snapshot(cell int) PredictSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	sec := p.window.Seconds()
	return PredictSnapshot{
		Cell:        cell,
		Burst:       p.burst,
		Rate:        p.fast / sec,
		RateOn:      p.rateOn / sec,
		RateOff:     p.rateOff / sec,
		Transitions: p.transitions,
		Windows:     p.windows,
	}
}
