package chaos

import (
	"testing"
	"time"

	"vransim/internal/turbo"
)

// TestNilInjectorIsNoFault: every method on a nil *Injector must be the
// zero decision — the contract that lets the runtime thread the pointer
// unconditionally.
func TestNilInjectorIsNoFault(t *testing.T) {
	var in *Injector
	w := turbo.NewLLRWord(8)
	w.Sys[0] = 42
	if got := in.CorruptWord(w); got != w {
		t.Error("nil CorruptWord must return the input word itself")
	}
	if in.QueueOverflow() {
		t.Error("nil QueueOverflow fired")
	}
	if in.StallDuration() != 0 {
		t.Error("nil StallDuration nonzero")
	}
	if in.ForceCRCFail() {
		t.Error("nil ForceCRCFail fired")
	}
	if in.EvictPlans() {
		t.Error("nil EvictPlans fired")
	}
	if in.Counters() != nil {
		t.Error("nil Counters must be nil")
	}
	if in.Families() != nil {
		t.Error("nil Families must be nil")
	}
}

// TestRateBounds: rate 0 never fires (and does not even count a trial);
// rate 1 always fires.
func TestRateBounds(t *testing.T) {
	in := New(Config{Seed: 7, CRCRate: 1.0})
	for i := 0; i < 100; i++ {
		if !in.ForceCRCFail() {
			t.Fatal("rate-1 site failed to fire")
		}
		if in.QueueOverflow() {
			t.Fatal("rate-0 site fired")
		}
	}
	cs := counters(in)
	if cs[SiteCRC].Trials != 100 || cs[SiteCRC].Fires != 100 {
		t.Errorf("crc counters = %d/%d, want 100/100", cs[SiteCRC].Fires, cs[SiteCRC].Trials)
	}
	if cs[SiteQueue].Trials != 0 {
		t.Errorf("disabled site counted %d trials, want 0", cs[SiteQueue].Trials)
	}
}

// TestDeterministicPerSeed: two injectors with the same seed produce the
// same decision sequence at every site, and corrupted words are
// identical sample for sample. A different seed diverges.
func TestDeterministicPerSeed(t *testing.T) {
	cfg := Config{
		Seed: 3, CorruptRate: 0.5, CRCRate: 0.3, StallRate: 0.2,
		QueueRate: 0.1, EvictRate: 0.4,
	}
	a, b := New(cfg), New(cfg)
	w := turbo.NewLLRWord(64)
	for i := range w.Sys {
		w.Sys[i] = 24
		w.P1[i] = -24
		w.P2[i] = 24
	}
	for i := 0; i < 200; i++ {
		wa, wb := a.CorruptWord(w), b.CorruptWord(w)
		if (wa == w) != (wb == w) {
			t.Fatalf("corrupt decision diverged at call %d", i)
		}
		if wa != w {
			for j := range wa.Sys {
				if wa.Sys[j] != wb.Sys[j] || wa.P1[j] != wb.P1[j] || wa.P2[j] != wb.P2[j] {
					t.Fatalf("corrupted samples diverged at call %d pos %d", i, j)
				}
			}
		}
		if a.ForceCRCFail() != b.ForceCRCFail() ||
			a.QueueOverflow() != b.QueueOverflow() ||
			a.StallDuration() != b.StallDuration() ||
			a.EvictPlans() != b.EvictPlans() {
			t.Fatalf("decision diverged at call %d", i)
		}
	}
	// Site independence: a site's sequence depends only on its own call
	// order, not on interleaving across sites.
	c := New(cfg)
	var crcC []bool
	for i := 0; i < 50; i++ {
		crcC = append(crcC, c.ForceCRCFail())
	}
	d := New(cfg)
	for i := 0; i < 50; i++ {
		d.QueueOverflow() // extra traffic at another site
		if d.ForceCRCFail() != crcC[i] {
			t.Fatalf("crc sequence perturbed by queue-site traffic at call %d", i)
		}
	}
	diff := New(Config{Seed: 4, CRCRate: 0.3})
	same := true
	for i := 0; i < 50; i++ {
		if diff.ForceCRCFail() != crcC[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical crc sequences")
	}
}

// TestCorruptWordShape: the source word is never mutated, the copy stays
// within the decoder's channel-LLR range, and some position actually
// moved.
func TestCorruptWordShape(t *testing.T) {
	in := New(Config{Seed: 9, CorruptRate: 1.0, CorruptAmp: 300, CorruptFrac: 1.0})
	w := turbo.NewLLRWord(128)
	for i := range w.Sys {
		w.Sys[i] = turbo.LLRLimit - 1
		w.P1[i] = -(turbo.LLRLimit - 1)
	}
	orig := w.Clone()
	c := in.CorruptWord(w)
	if c == w {
		t.Fatal("rate-1 corrupt returned the original word")
	}
	changed := false
	for i := range w.Sys {
		if w.Sys[i] != orig.Sys[i] || w.P1[i] != orig.P1[i] || w.P2[i] != orig.P2[i] {
			t.Fatal("source word mutated")
		}
		if c.Sys[i] != orig.Sys[i] {
			changed = true
		}
		for _, v := range []int16{c.Sys[i], c.P1[i], c.P2[i]} {
			if v > turbo.LLRLimit-1 || v < -(turbo.LLRLimit-1) {
				t.Fatalf("corrupted sample %d out of LLR range", v)
			}
		}
	}
	if !changed {
		t.Error("full-rate full-frac corruption changed nothing")
	}
}

// TestShapeDefaults: zero config fields take documented defaults.
func TestShapeDefaults(t *testing.T) {
	in := New(Config{Seed: 1, StallRate: 1.0})
	if d := in.StallDuration(); d != 500*time.Microsecond {
		t.Errorf("default stall = %v, want 500µs", d)
	}
	if in.cfg.CorruptAmp != 96 || in.cfg.CorruptFrac != 0.25 {
		t.Errorf("corrupt defaults = %d/%.2f, want 96/0.25", in.cfg.CorruptAmp, in.cfg.CorruptFrac)
	}
}

// TestFamilies: the exposition carries the injected family with one
// sample per live site — none for the retired index — and values mirror
// Counters.
func TestFamilies(t *testing.T) {
	in := New(Config{Seed: 5, CRCRate: 1.0})
	for i := 0; i < 10; i++ {
		in.ForceCRCFail()
	}
	fams := in.Families()
	if len(fams) != 1 || fams[0].Name != "vran_chaos_injected_total" {
		t.Fatalf("got families %+v, want vran_chaos_injected_total alone", fams)
	}
	if len(fams[0].Samples) != int(numSites)-1 {
		t.Errorf("family has %d samples, want %d", len(fams[0].Samples), numSites-1)
	}
	for _, s := range fams[0].Samples {
		if s.Labels[0].Value == "crc" && s.Value != 10 {
			t.Errorf("crc injected sample = %v, want 10", s.Value)
		}
		if s.Labels[0].Value == "unknown" {
			t.Error("the retired site index has a sample")
		}
	}
}

// TestNilInjectorLinkSites: the fronthaul link methods follow the same
// nil-safe contract as the original six sites.
func TestNilInjectorLinkSites(t *testing.T) {
	var in *Injector
	if in.DropFrame() {
		t.Error("nil DropFrame fired")
	}
	if in.DelayFrame() {
		t.Error("nil DelayFrame fired")
	}
	if in.PartitionFor() != 0 {
		t.Error("nil PartitionFor nonzero")
	}
}

// TestLinkSites: rate-1 link sites always fire, counters track them, and
// PartitionFor returns the configured (or default) window.
func TestLinkSites(t *testing.T) {
	in := New(Config{Seed: 11, LinkDropRate: 1.0, LinkDelayRate: 1.0, LinkPartRate: 1.0})
	for i := 0; i < 25; i++ {
		if !in.DropFrame() {
			t.Fatal("rate-1 DropFrame did not fire")
		}
		if !in.DelayFrame() {
			t.Fatal("rate-1 DelayFrame did not fire")
		}
		if d := in.PartitionFor(); d != 5*time.Millisecond {
			t.Fatalf("PartitionFor = %v, want default 5ms", d)
		}
	}
	cs := counters(in)
	for _, s := range []Site{SiteLinkDrop, SiteLinkDelay, SiteLinkPart} {
		if cs[s].Trials != 25 || cs[s].Fires != 25 {
			t.Errorf("%s counters = %d/%d, want 25/25", s, cs[s].Fires, cs[s].Trials)
		}
	}
	custom := New(Config{Seed: 11, LinkPartRate: 1.0, LinkPartFor: 250 * time.Microsecond})
	if d := custom.PartitionFor(); d != 250*time.Microsecond {
		t.Errorf("custom PartitionFor = %v, want 250µs", d)
	}
	off := New(Config{Seed: 11})
	if off.DropFrame() || off.DelayFrame() || off.PartitionFor() != 0 {
		t.Error("rate-0 link site fired")
	}
	if c := counters(off); c[SiteLinkDrop].Trials != 0 {
		t.Errorf("disabled link site counted %d trials, want 0", c[SiteLinkDrop].Trials)
	}
}

// TestLinkSitesDeterministic: same seed, same link decision sequence.
func TestLinkSitesDeterministic(t *testing.T) {
	cfg := Config{Seed: 21, LinkDropRate: 0.4, LinkDelayRate: 0.3, LinkPartRate: 0.1}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 200; i++ {
		if a.DropFrame() != b.DropFrame() ||
			a.DelayFrame() != b.DelayFrame() ||
			a.PartitionFor() != b.PartitionFor() {
			t.Fatalf("link decision diverged at call %d", i)
		}
	}
}

// counters indexes the Counters slice by site.
func counters(in *Injector) map[Site]SiteCounters {
	out := map[Site]SiteCounters{}
	for _, c := range in.Counters() {
		for s := Site(0); s < numSites; s++ {
			if s.String() == c.Site {
				out[s] = c
			}
		}
	}
	return out
}

// TestSiteSeedsSurviveRetiredSite pins the first draws of every live
// site's generator at seed 1, as they were while index 5 was still a live
// site: retiring a site must not re-seed the sites after it, or every
// seeded soak would change its fault sequence.
func TestSiteSeedsSurviveRetiredSite(t *testing.T) {
	want := map[Site][4]uint64{
		SiteCorrupt:   {0x4d65822107fcfd52, 0x78629a0f5f3f164f, 0x55104dc76695721d, 0x380704bb7b4d7c03},
		SiteQueue:     {0x3c95b5df87d9e58a, 0x128086f0b7c1a1aa, 0x7e73245ec1969205, 0x46a7bb6b66f9c2fc},
		SiteStall:     {0x3b377196b1789638, 0x2c60bc337e40925c, 0x49e598d5c5e81350, 0x54a8f0180099aa11},
		SiteCRC:       {0x3b5a1159639585f0, 0x42ffb98c345efc37, 0x73a6507526517377, 0x6304a4f8c38e00e7},
		SiteEvict:     {0x2d3b31da29b2be1a, 0x5ce04e4c5b3fe6e2, 0x3b1e25ed789674c0, 0x6fca4facadffe76d},
		SiteLinkDrop:  {0x2c0ba853c76d0300, 0x11dfd26d99fb42e0, 0x10388e13dc6d1673, 0x4c6b843988238137},
		SiteLinkDelay: {0x2ba1fc01303a3323, 0x2b7fdbcf18dbb3ba, 0x39e51afab6c2669a, 0x56cc73da0b2f684d},
		SiteLinkPart:  {0x19cf19c7eac72bda, 0x456dbd17df3a9e64, 0x015e21affd6807e2, 0x64ef79aea80bbea6},
	}
	in := New(Config{Seed: 1})
	if n := len(in.Counters()); n != len(want) {
		t.Errorf("%d live sites, want %d", n, len(want))
	}
	for s, w := range want {
		var got [4]uint64
		for i := range got {
			got[i] = uint64(in.sites[s].rng.Int63())
		}
		if got != w {
			t.Errorf("%s: first draws %#x, want %#x", s, got, w)
		}
	}
}
