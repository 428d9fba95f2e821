package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
	"vransim/internal/uarch"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig13", "fig14", "fig15", "fig16",
		"abl-variants", "abl-ports", "abl-rearrange", "abl-cache",
		"decode-alloc"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestKernelIPCOrdering(t *testing.T) {
	// The Figure 7 hierarchy: scalar > padds/psubs > pmax > pextrw.
	p := uarch.WimpyPlatform()
	// L1-resident working set so port structure (not cache misses)
	// decides the ordering, as on the paper's beefy node.
	ipc := func(k KernelKind) float64 {
		return SimKernel(BuildKernel(k, simd.W128, 3000, 32<<10), p).IPC()
	}
	scalar := ipc(KernelScalarOFDM)
	adds := ipc(KernelPAdds)
	max := ipc(KernelPMax)
	extract := ipc(KernelPExtract)
	if !(scalar > adds && adds > max && max > extract) {
		t.Errorf("IPC ordering violated: scalar=%.2f adds=%.2f max=%.2f extract=%.2f",
			scalar, adds, max, extract)
	}
	if scalar < 3.3 {
		t.Errorf("scalar IPC %.2f, want near 4", scalar)
	}
	if extract > 2.0 {
		t.Errorf("extract IPC %.2f, want below the movement-port ceiling 2", extract)
	}
}

func TestArrangeWorkloadHeadline(t *testing.T) {
	// The headline claims at kernel level, every width: IPC up, backend
	// bound down, bandwidth up by >= 3x.
	p := uarch.WimpyPlatform()
	for _, w := range simd.Widths {
		o := SimKernel(ArrangeWorkload(core.StrategyExtract, w, 4096), p)
		a := SimKernel(ArrangeWorkload(core.StrategyAPCM, w, 4096), p)
		if a.IPC() < 2.5*o.IPC() {
			t.Errorf("%v: IPC gain %.2f -> %.2f below 2.5x", w, o.IPC(), a.IPC())
		}
		if a.TopDown.BackendBound > 0.25 || o.TopDown.BackendBound < 0.4 {
			t.Errorf("%v: backend bound %.2f -> %.2f, want high -> low",
				w, o.TopDown.BackendBound, a.TopDown.BackendBound)
		}
		gain := a.StoreBitsPerCycle() / o.StoreBitsPerCycle()
		if gain < 3 {
			t.Errorf("%v: bandwidth gain %.1fx, want >= 3x", w, gain)
		}
	}
}

func TestBandwidthGainGrowsWithWidth(t *testing.T) {
	// The 4X-16X claim: wider registers widen the gap.
	p := uarch.WimpyPlatform()
	gain := func(w simd.Width) float64 {
		o := SimKernel(ArrangeWorkload(core.StrategyExtract, w, 4096), p)
		a := SimKernel(ArrangeWorkload(core.StrategyAPCM, w, 4096), p)
		return a.StoreBitsPerCycle() / o.StoreBitsPerCycle()
	}
	g128, g256, g512 := gain(simd.W128), gain(simd.W256), gain(simd.W512)
	if !(g128 < g256 && g256 < g512) {
		t.Errorf("bandwidth gains not monotone with width: %.1f, %.1f, %.1f", g128, g256, g512)
	}
	if g512 < 8 {
		t.Errorf("AVX512 bandwidth gain %.1fx, want large (paper: ~16x)", g512)
	}
}

func TestDecodePhasesShares(t *testing.T) {
	// Arrangement share of decode: substantial under the original
	// mechanism, small under APCM (the Figure 9 contrast), at every width.
	// As the calculation phases speed up with width, the original share
	// grows, while APCM's does not.
	so, sa := make([]float64, len(simd.Widths)), make([]float64, len(simd.Widths))
	for i, w := range simd.Widths {
		po, err := DecodePhases(core.StrategyExtract, w, 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := DecodePhases(core.StrategyAPCM, w, 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		so[i] = po.Us("arrangement") / po.TotalUs()
		sa[i] = pa.Us("arrangement") / pa.TotalUs()
		if so[i] < 0.05 {
			t.Errorf("%v: original arrangement share %.1f%%, want substantial", w, 100*so[i])
		}
		if sa[i] > so[i]/2 {
			t.Errorf("%v: APCM arrangement share %.1f%% not well below original %.1f%%", w, 100*sa[i], 100*so[i])
		}
	}
	for i := 1; i < len(so); i++ {
		if so[i] <= so[i-1] {
			t.Errorf("original arrangement share does not grow with width: %.1f%% at %v, %.1f%% at %v",
				100*so[i-1], simd.Widths[i-1], 100*so[i], simd.Widths[i])
		}
		if sa[i] > sa[0]+0.0025 {
			t.Errorf("%v: APCM arrangement share %.2f%% grew past its %v value %.2f%% by more than 0.25 points",
				simd.Widths[i], 100*sa[i], simd.Widths[0], 100*sa[0])
		}
	}
}

func TestQuickExperimentsRun(t *testing.T) {
	// Smoke: the cheap experiments run end to end and emit tables.
	for _, id := range []string{"table1", "fig8", "fig15", "abl-variants", "abl-ports", "abl-cache"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var buf bytes.Buffer
		if err := RunOne(&buf, e, Options{Quick: true}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "==") || buf.Len() < 100 {
			t.Errorf("%s: implausibly small output", id)
		}
	}
}

func TestFig13Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline sweep")
	}
	e, _ := ByID("fig13")
	var buf bytes.Buffer
	if err := RunOne(&buf, e, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reduction") {
		t.Error("fig13 output missing reduction column")
	}
}

// TestDecodeBenchQuick: the machine-readable decode benchmark produces a
// complete, self-consistent report in quick mode — every (mode, width, K)
// cell present, steady-state allocations within the CI budget, and the
// JSON round-trips.
func TestDecodeBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark cells")
	}
	var buf bytes.Buffer
	if err := WriteDecodeBenchJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	var rep DecodeBenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	modes := 3 // packed, interpreted, and the adopt row
	if rep.Kernel != "go" {
		modes++ // the portable row, where the host has a native kernel
	}
	// A cold row is there for every cell nothing earlier in this test
	// binary had compiled.
	cold := 0
	for _, r := range rep.Rows {
		if r.Mode == "cold" {
			cold++
		}
	}
	want := modes*3*2 + 2 // modes x widths x quick Ks, and W512's extract rows
	if len(rep.Rows)-cold != want || cold > 3*2 {
		t.Fatalf("report has %d rows (%d cold), want %d and at most %d cold", len(rep.Rows), cold, want, 3*2)
	}
	if rep.Kernel != program.Kernel() {
		t.Errorf("report kernel %q, this host runs %q", rep.Kernel, program.Kernel())
	}
	perOp := map[string]float64{} // mode/width/K -> ns/op
	for _, r := range rep.Rows {
		if r.NsPerOp <= 0 || r.Iterations <= 0 || r.GoodputMbps <= 0 {
			t.Errorf("%s/%s/K=%d: degenerate row %+v", r.Mode, r.Width, r.K, r)
		}
		// A cold start happens once a process; an adopt row is the median
		// of adoptSamples fresh decoders.
		if r.Mode == "cold" && r.Iterations != 1 || r.Mode == "adopt" && r.Iterations != adoptSamples || r.NsPerOpIQR < 0 {
			t.Errorf("%s/%s/K=%d: %d samples, IQR %.0f ns", r.Mode, r.Width, r.K, r.Iterations, r.NsPerOpIQR)
		}
		if steady := r.Mode != "cold" && r.Mode != "adopt"; steady && r.AllocsOp > 8 {
			t.Errorf("%s/K=%d %s: %d allocs/op over budget 8", r.Width, r.K, r.Mode, r.AllocsOp)
		}
		perOp[fmt.Sprintf("%s/%s/%d", r.Mode, r.Width, r.K)] = r.NsPerOp
		// The segment timings: on the W512 packed and extract rows only,
		// each with its quartile spread; APCM's prefix (about a twentieth
		// of an iteration's ops) below the iteration. Extract's prefix
		// costs about an iteration, so it is not compared.
		w512 := (r.Mode == "packed" || r.Mode == "extract") && r.Width == "AVX512"
		if w512 != (r.PrefixNs > 0) || w512 != (r.IterationNs > 0) || r.PrefixNsIQR < 0 || r.IterationNsIQR < 0 {
			t.Errorf("%s/%s/K=%d: prefix %.0f ns, iteration %.0f ns", r.Mode, r.Width, r.K, r.PrefixNs, r.IterationNs)
		} else if w512 && r.Mode == "packed" && r.PrefixNs >= r.IterationNs {
			t.Errorf("%s/K=%d: the prefix (%.0f ns) costs no less than an iteration (%.0f ns)", r.Width, r.K, r.PrefixNs, r.IterationNs)
		}
	}
	// Adopting a compiled program is building a state: far below compiling
	// one (CI holds the W512 K=512 pair to a fifth, on a quieter host).
	for key, c := range perOp {
		if w, ok := strings.CutPrefix(key, "cold/"); ok && perOp["adopt/"+w] >= c {
			t.Errorf("%s: adopt %.0f ns not below cold %.0f ns", w, perOp["adopt/"+w], c)
		}
	}
	// The compiled replay must beat the interpreter on every cell large
	// enough for the measurement to be stable (the quick pass includes
	// K=512 at every width).
	if perOp["extract/AVX512/512"] == 0 {
		t.Errorf("no extract row at W512 K=512 (rows: %v)", perOp)
	}
	for _, w := range []string{"SSE128", "AVX256", "AVX512"} {
		c, s := perOp["packed/"+w+"/512"], perOp["interpreted/"+w+"/512"]
		if c == 0 || s == 0 {
			t.Fatalf("missing packed/interpreted K=512 rows for %s (rows: %v)", w, perOp)
		}
		if c >= s {
			t.Errorf("%s K=512: compiled %.0f ns/op not faster than interpreted %.0f", w, c, s)
		}
	}
}
