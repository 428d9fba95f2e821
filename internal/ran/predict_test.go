package ran

import (
	"math/rand"
	"testing"
	"time"

	"vransim/internal/transport"
)

// TestPredictorConvergesOnBursty drives the estimator with a
// transport.BurstyProcess whose ON/OFF rates and dwells are known, and
// judges it against the process's own state ground truth:
//
//   - state agreement well above chance after warmup;
//   - every long ON dwell detected, within a bounded lag;
//   - the learned per-state rates separate toward the true means.
func TestPredictorConvergesOnBursty(t *testing.T) {
	const (
		burstMean = 8.0
		idleMean  = 1.0
		dwell     = 50.0
		ttis      = 4000
		warmup    = 200
		maxLag    = 10 // windows from true ON start to declared burst
	)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		proc := transport.NewBurstyProcess(burstMean, idleMean, dwell, dwell, rng)
		p := NewPredictor(PredictConfig{})

		agree, scored := 0, 0
		var onStart int // window index the current true ON dwell began
		detected := true
		longDwells, missed := 0, 0
		prevOn := proc.On()
		for i := 0; i < ttis; i++ {
			n := proc.Next()
			on := proc.On()
			if on && !prevOn {
				onStart, detected = i, false
			}
			if !on && prevOn {
				// Dwell ended: a dwell long enough to be detectable (the
				// confirm streak plus EWMA ramp) must have been flagged.
				// Dwells starting before warmup don't count — the process
				// opens mid-burst, and with no prior baseline a cold-start
				// burst is undetectable by construction.
				if i-onStart >= maxLag && onStart >= warmup {
					longDwells++
					if !detected {
						missed++
					}
				}
			}
			prevOn = on
			p.Tick(n)
			if p.Burst() {
				detected = true
			}
			if i >= warmup {
				scored++
				if p.Burst() == on {
					agree++
				}
			}
		}
		frac := float64(agree) / float64(scored)
		s := p.snapshot(0)
		t.Logf("seed %d: agreement %.1f%%, transitions %d, rateOn %.2f rateOff %.2f (true %v/%v per window: on %.1f off %.1f)",
			seed, 100*frac, s.Transitions, s.RateOn*time.Millisecond.Seconds(), s.RateOff*time.Millisecond.Seconds(),
			p.window, p.window, burstMean, idleMean)
		if frac < 0.75 {
			t.Errorf("seed %d: state agreement %.1f%% below 75%%", seed, 100*frac)
		}
		if s.Transitions == 0 {
			t.Errorf("seed %d: predictor never transitioned on MMPP input", seed)
		}
		if longDwells == 0 {
			t.Fatalf("seed %d: trace produced no long ON dwells (bad test setup)", seed)
		}
		if missed > 0 {
			t.Errorf("seed %d: %d of %d long ON dwells never detected", seed, missed, longDwells)
		}
		// Learned per-state rates (blocks per window) must separate
		// toward the generating means.
		rateOn := s.RateOn * p.window.Seconds()
		rateOff := s.RateOff * p.window.Seconds()
		if rateOn < burstMean/3 {
			t.Errorf("seed %d: learned ON rate %.2f, want >= %.1f (true %.1f)", seed, rateOn, burstMean/3, burstMean)
		}
		if rateOff > 2.5*idleMean {
			t.Errorf("seed %d: learned OFF rate %.2f, want <= %.1f (true %.1f)", seed, rateOff, 2.5*idleMean, idleMean)
		}
		if rateOn < 2*rateOff {
			t.Errorf("seed %d: learned rates do not separate: on %.2f vs off %.2f", seed, rateOn, rateOff)
		}
	}
}

// TestPredictorStillOnPoisson feeds stationary Poisson streams across a
// range of means — including the noise-sensitive regime near MinRate —
// and requires zero state transitions: the hysteresis (confirm streak +
// noise-sigma guard) must keep the estimator still when there is no
// modulation to detect.
func TestPredictorStillOnPoisson(t *testing.T) {
	for _, mean := range []float64{0.5, 1, 2, 4, 8} {
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			proc := transport.NewPoissonProcess(mean, rng)
			p := NewPredictor(PredictConfig{})
			for i := 0; i < 5000; i++ {
				p.Tick(proc.Next())
			}
			s := p.snapshot(0)
			if s.Transitions != 0 {
				t.Errorf("mean %.1f seed %d: %d transitions on stationary Poisson, want 0", mean, seed, s.Transitions)
			}
			if s.Burst {
				t.Errorf("mean %.1f seed %d: burst declared on stationary Poisson", mean, seed)
			}
			// The fast estimate tracks the true mean (blocks per window).
			// At small means the EWMA of an integer stream is noisy, so
			// the tolerance has an absolute floor of one block.
			fast := s.Rate * p.window.Seconds()
			tol := mean
			if tol < 1 {
				tol = 1
			}
			if fast < mean-tol || fast > mean+tol {
				t.Errorf("mean %.1f seed %d: rate estimate %.2f outside [%.2f, %.2f]", mean, seed, fast, mean-tol, mean+tol)
			}
		}
	}
}

// TestPredictorObserveWindows exercises the wall-clock entry: arrivals
// spread across real window boundaries close the right number of
// windows, and a long silence re-anchors instead of replaying
// unbounded history.
func TestPredictorObserveWindows(t *testing.T) {
	p := NewPredictor(PredictConfig{Window: time.Millisecond})
	base := time.Now()
	p.Observe(base, 3) // opens window [base, base+1ms)
	if w := p.snapshot(0).Windows; w != 0 {
		t.Fatalf("windows closed before any boundary: %d", w)
	}
	p.Observe(base.Add(time.Millisecond), 2) // closes one window (count 3)
	if w := p.snapshot(0).Windows; w != 1 {
		t.Fatalf("windows after one boundary = %d, want 1", w)
	}
	// A silence of 1000 windows is truncated at predMaxCatchUp.
	p.Observe(base.Add(1001*time.Millisecond), 1)
	if w := p.snapshot(0).Windows; w != 1+predMaxCatchUp {
		t.Errorf("windows after long silence = %d, want %d (predMaxCatchUp more)", w, 1+predMaxCatchUp)
	}
}

// TestPredictorDefaultsValidated: a zero or negative window resolves to
// one TTI, and the estimator's constants keep the invariants tick relies
// on — the clear threshold under the burst threshold and both over the
// baseline, EWMA weights in (0, 1] with the baseline the slower one.
func TestPredictorDefaultsValidated(t *testing.T) {
	for _, w := range []time.Duration{0, -time.Second} {
		if got := NewPredictor(PredictConfig{Window: w}).window; got != time.Millisecond {
			t.Errorf("window %v resolved to %v, want 1ms", w, got)
		}
	}
	if got := NewPredictor(PredictConfig{Window: 250 * time.Microsecond}).window; got != 250*time.Microsecond {
		t.Errorf("a set window was overridden: %v", got)
	}
	if !(1 < predOffFactor && predOffFactor < predOnFactor) {
		t.Errorf("hysteresis inverted: on %.2f off %.2f", predOnFactor, predOffFactor)
	}
	if !(0 < predSlowAlpha && predSlowAlpha < predFastAlpha && predFastAlpha <= 1) {
		t.Errorf("EWMA weights out of order: fast %.2f slow %.2f", predFastAlpha, predSlowAlpha)
	}
	if predConfirm < 1 || predMinRate <= 0 || predNoiseSigmas <= 0 || predMaxCatchUp < 1 {
		t.Error("a predictor constant is outside the range tick assumes")
	}
}
