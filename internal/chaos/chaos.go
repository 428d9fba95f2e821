// Package chaos is the fault-injection subsystem: seeded, deterministic
// fault points the serving runtime consults at the places real vRAN
// deployments actually fail — corrupted soft bits at the radio
// front-end, CRC failures after decode, stalled workers, ingress
// pressure, plan-cache eviction storms and compiler verification
// failures. Every site is driven by its own seeded generator, so the
// decision sequence at a site depends only on the seed and the call
// order at that site, never on interleaving across sites — the property
// the deterministic soak tests rest on.
//
// An Injector is nil-safe: every method on a nil *Injector is the
// no-fault fast path (returns the zero decision without locking), so
// production code threads the pointer through unconditionally and pays
// nothing when chaos is disabled.
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// Site enumerates the fault-injection points.
type Site int

// Fault sites, in pipeline order.
const (
	// SiteCorrupt perturbs LLR words at submit (noisy reception).
	SiteCorrupt Site = iota
	// SiteQueue fakes ingress queue-overflow pressure at admission.
	SiteQueue
	// SiteStall delays a worker before a batch decode.
	SiteStall
	// SiteCRC forces a CRC failure verdict after a decode.
	SiteCRC
	// SiteEvict triggers a plan-cache eviction storm in a worker.
	SiteEvict
	// SiteCompile fails program compile-verify, forcing the interpreter.
	SiteCompile
	// SiteLinkDrop loses a fronthaul user-plane frame in flight.
	SiteLinkDrop
	// SiteLinkDelay holds a fronthaul frame past its successor (a
	// one-frame reorder — the jitter a switched fronthaul introduces).
	SiteLinkDelay
	// SiteLinkPart opens a partition window during which every
	// user-plane frame on the link is lost.
	SiteLinkPart
	numSites
)

// String names the site (the telemetry label value).
func (s Site) String() string {
	switch s {
	case SiteCorrupt:
		return "corrupt"
	case SiteQueue:
		return "queue"
	case SiteStall:
		return "stall"
	case SiteCRC:
		return "crc"
	case SiteEvict:
		return "evict"
	case SiteCompile:
		return "compile"
	case SiteLinkDrop:
		return "linkdrop"
	case SiteLinkDelay:
		return "linkdelay"
	case SiteLinkPart:
		return "linkpart"
	}
	return "unknown"
}

// Config sets the per-site fault rates (each a probability in [0, 1];
// zero disables the site) and the fault shapes.
type Config struct {
	// Seed derives every site's private generator.
	Seed int64

	// CorruptRate is the probability a submitted word is received
	// noisily; CorruptAmp is the peak LLR perturbation (default 96) and
	// CorruptFrac the fraction of positions hit (default 0.25).
	CorruptRate float64
	CorruptAmp  int16
	CorruptFrac float64

	// QueueRate fakes a full ingress queue at admission.
	QueueRate float64

	// StallRate delays a worker by StallFor (default 500µs) before a
	// batch decode — the noisy-neighbor / page-fault latency spike.
	StallRate float64
	StallFor  time.Duration

	// CRCRate forces a decode's CRC check to fail.
	CRCRate float64

	// EvictRate flushes a worker's whole plan cache before a batch.
	EvictRate float64

	// CompileRate fails a program's compile-time verification.
	CompileRate float64

	// LinkDropRate loses a fronthaul user-plane frame in flight (the
	// control plane rides the reliable management plane and is never
	// faulted).
	LinkDropRate float64

	// LinkDelayRate reorders a fronthaul frame behind its successor.
	LinkDelayRate float64

	// LinkPartRate opens a LinkPartFor-long partition (default 5ms)
	// during which the link drops every user-plane frame.
	LinkPartRate float64
	LinkPartFor  time.Duration
}

// site is one fault point's seeded generator plus its counters.
type site struct {
	mu  sync.Mutex
	rng *rand.Rand

	trials atomic.Uint64
	fires  atomic.Uint64
}

// Injector is the set of armed fault points. Construct with New; a nil
// Injector injects nothing.
type Injector struct {
	cfg   Config
	sites [numSites]site
}

// New builds an injector with every site seeded from cfg.Seed. Shape
// defaults are filled in for zero values.
func New(cfg Config) *Injector {
	if cfg.CorruptAmp <= 0 {
		cfg.CorruptAmp = 96
	}
	if cfg.CorruptFrac <= 0 {
		cfg.CorruptFrac = 0.25
	}
	if cfg.StallFor <= 0 {
		cfg.StallFor = 500 * time.Microsecond
	}
	if cfg.LinkPartFor <= 0 {
		cfg.LinkPartFor = 5 * time.Millisecond
	}
	in := &Injector{cfg: cfg}
	for i := range in.sites {
		// Distinct deterministic streams per site: the multiplier keeps
		// neighboring seeds from producing correlated sequences.
		in.sites[i].rng = rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9E3779B9))
	}
	return in
}

// hit rolls site s against rate, counting the trial and any fire.
func (in *Injector) hit(s Site, rate float64) bool {
	if in == nil || rate <= 0 {
		return false
	}
	st := &in.sites[s]
	st.trials.Add(1)
	st.mu.Lock()
	fired := st.rng.Float64() < rate
	st.mu.Unlock()
	if fired {
		st.fires.Add(1)
	}
	return fired
}

// CorruptWord returns the word the runtime should treat as received: w
// itself on the no-fault path, or a perturbed private copy (the shared
// source word is never mutated). Perturbation adds uniform noise of up
// to ±CorruptAmp to ~CorruptFrac of the positions, clamped to the
// decoder's channel-LLR range — strong enough to defeat single decodes
// at times, weak enough that chase-combined retransmissions recover.
func (in *Injector) CorruptWord(w *turbo.LLRWord) *turbo.LLRWord {
	if in == nil || !in.hit(SiteCorrupt, in.cfg.CorruptRate) {
		return w
	}
	st := &in.sites[SiteCorrupt]
	c := w.Clone()
	st.mu.Lock()
	defer st.mu.Unlock()
	perturb := func(v []int16) {
		for i := range v {
			if st.rng.Float64() >= in.cfg.CorruptFrac {
				continue
			}
			n := int32(v[i]) + int32(st.rng.Intn(2*int(in.cfg.CorruptAmp)+1)) - int32(in.cfg.CorruptAmp)
			if n > turbo.LLRLimit-1 {
				n = turbo.LLRLimit - 1
			}
			if n < -(turbo.LLRLimit - 1) {
				n = -(turbo.LLRLimit - 1)
			}
			v[i] = int16(n)
		}
	}
	perturb(c.Sys)
	perturb(c.P1)
	perturb(c.P2)
	return c
}

// QueueOverflow reports whether admission should behave as if the cell
// queue were full.
func (in *Injector) QueueOverflow() bool {
	if in == nil {
		return false
	}
	return in.hit(SiteQueue, in.cfg.QueueRate)
}

// StallDuration returns how long a worker should stall before its next
// decode (0 on the no-fault path).
func (in *Injector) StallDuration() time.Duration {
	if in == nil {
		return 0
	}
	if in.hit(SiteStall, in.cfg.StallRate) {
		return in.cfg.StallFor
	}
	return 0
}

// ForceCRCFail reports whether a decode's CRC verdict should be forced
// to failure.
func (in *Injector) ForceCRCFail() bool {
	if in == nil {
		return false
	}
	return in.hit(SiteCRC, in.cfg.CRCRate)
}

// EvictPlans reports whether a worker should flush its plan cache.
func (in *Injector) EvictPlans() bool {
	if in == nil {
		return false
	}
	return in.hit(SiteEvict, in.cfg.EvictRate)
}

// FailCompile reports whether a program compilation should be rejected
// as if its verification had failed.
func (in *Injector) FailCompile() bool {
	if in == nil {
		return false
	}
	return in.hit(SiteCompile, in.cfg.CompileRate)
}

// DropFrame reports whether a fronthaul user-plane frame should be
// lost in flight.
func (in *Injector) DropFrame() bool {
	if in == nil {
		return false
	}
	return in.hit(SiteLinkDrop, in.cfg.LinkDropRate)
}

// DelayFrame reports whether a fronthaul frame should be held back past
// its successor (a one-frame reorder).
func (in *Injector) DelayFrame() bool {
	if in == nil {
		return false
	}
	return in.hit(SiteLinkDelay, in.cfg.LinkDelayRate)
}

// PartitionFor returns how long the link should black-hole user-plane
// frames (0 on the no-fault path).
func (in *Injector) PartitionFor() time.Duration {
	if in == nil {
		return 0
	}
	if in.hit(SiteLinkPart, in.cfg.LinkPartRate) {
		return in.cfg.LinkPartFor
	}
	return 0
}

// SiteCounters is one fault point's trial/fire view.
type SiteCounters struct {
	Site   string `json:"site"`
	Trials uint64 `json:"trials"`
	Fires  uint64 `json:"fires"`
}

// Counters snapshots every site's trial and fire counts.
func (in *Injector) Counters() []SiteCounters {
	if in == nil {
		return nil
	}
	out := make([]SiteCounters, 0, int(numSites))
	for s := Site(0); s < numSites; s++ {
		out = append(out, SiteCounters{
			Site:   s.String(),
			Trials: in.sites[s].trials.Load(),
			Fires:  in.sites[s].fires.Load(),
		})
	}
	return out
}

// Families renders the injector's fire counts as the
// vran_chaos_injected_total family (nil-safe: a nil injector exposes
// nothing). The trial counts stay on Counters, for the binaries' reports.
func (in *Injector) Families() []telemetry.Family {
	if in == nil {
		return nil
	}
	fires := telemetry.Family{Name: "vran_chaos_injected_total",
		Help: "Faults actually injected, by site.", Type: telemetry.Counter}
	for _, c := range in.Counters() {
		fires.Samples = append(fires.Samples, telemetry.Sample{
			Labels: []telemetry.Label{telemetry.L("site", c.Site)}, Value: float64(c.Fires)})
	}
	return []telemetry.Family{fires}
}
