package uarch

import (
	"testing"

	"vransim/internal/cache"
	"vransim/internal/trace"
)

// cleanConfig returns the paper's port model with the stochastic noise
// sources (frontend stalls, branch misprediction) disabled so tests can
// assert exact steady-state behaviour.
func cleanConfig() Config {
	cfg := SkylakeServer()
	cfg.FrontendStallFrac = 0
	cfg.BranchMispredictRate = 0
	return cfg
}

func repeat(in trace.Inst, n int) []trace.Inst {
	out := make([]trace.Inst, n)
	for i := range out {
		out[i] = in
		out[i].Deps = trace.Deps3()
	}
	return out
}

func TestScalarStreamReachesIssueWidth(t *testing.T) {
	insts := repeat(trace.Inst{Class: trace.ScalarALU, Mnemonic: "add"}, 4000)
	res := NewSimulator(cleanConfig(), nil).Run(insts)
	if ipc := res.IPC(); ipc < 3.8 || ipc > 4.01 {
		t.Errorf("scalar IPC = %.2f, want ~4 (issue-width limited)", ipc)
	}
	if res.TopDown.Retiring < 0.95 {
		t.Errorf("retiring = %.2f, want ~1", res.TopDown.Retiring)
	}
}

func TestVecALUStreamPortLimitedAt3(t *testing.T) {
	insts := repeat(trace.Inst{Class: trace.VecALU, Mnemonic: "padds"}, 6000)
	res := NewSimulator(cleanConfig(), nil).Run(insts)
	if ipc := res.IPC(); ipc < 2.9 || ipc > 3.05 {
		t.Errorf("vec ALU IPC = %.2f, want ~3 (ports 0-2)", ipc)
	}
	// The stall must be core bound, not memory bound.
	if res.TopDown.CoreBound < 0.15 {
		t.Errorf("core bound = %.2f, want noticeable", res.TopDown.CoreBound)
	}
	if res.TopDown.MemoryBound > 0.01 {
		t.Errorf("memory bound = %.2f, want ~0", res.TopDown.MemoryBound)
	}
}

func TestLoadStreamPortLimitedAt2(t *testing.T) {
	insts := repeat(trace.Inst{Class: trace.Load, Mnemonic: "mov", Bytes: 8}, 6000)
	res := NewSimulator(cleanConfig(), nil).Run(insts)
	if ipc := res.IPC(); ipc < 1.9 || ipc > 2.05 {
		t.Errorf("load IPC = %.2f, want ~2 (ports 4-5)", ipc)
	}
}

func TestStoreStreamCommitLimitedAt1(t *testing.T) {
	insts := repeat(trace.Inst{Class: trace.Store, Mnemonic: "pextrw", Bytes: 2}, 6000)
	res := NewSimulator(cleanConfig(), nil).Run(insts)
	if ipc := res.IPC(); ipc < 0.9 || ipc > 1.1 {
		t.Errorf("store IPC = %.2f, want ~1 (L1 commit limited)", ipc)
	}
	if res.TopDown.BackendBound < 0.5 {
		t.Errorf("backend bound = %.2f, want dominant", res.TopDown.BackendBound)
	}
	if res.StoreBytes != 12000 {
		t.Errorf("store bytes = %d, want 12000", res.StoreBytes)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	n := 2000
	insts := make([]trace.Inst, n)
	for i := range insts {
		prev := i - 1
		insts[i] = trace.Inst{Class: trace.ScalarALU, Mnemonic: "add", Deps: trace.Deps3(prev)}
	}
	res := NewSimulator(cleanConfig(), nil).Run(insts)
	if ipc := res.IPC(); ipc > 1.05 {
		t.Errorf("chained IPC = %.2f, want <=1", ipc)
	}
}

func TestTopDownSumsToOne(t *testing.T) {
	cfg := SkylakeServer() // with FE + branch noise enabled
	insts := make([]trace.Inst, 0, 5000)
	for i := 0; i < 1000; i++ {
		insts = append(insts,
			trace.Inst{Class: trace.VecALU, Mnemonic: "padds", Deps: trace.Deps3()},
			trace.Inst{Class: trace.Load, Mnemonic: "mov", Bytes: 16, Deps: trace.Deps3()},
			trace.Inst{Class: trace.Store, Mnemonic: "mov", Bytes: 16, Deps: trace.Deps3()},
			trace.Inst{Class: trace.Branch, Mnemonic: "jnz", Deps: trace.Deps3()},
		)
	}
	res := NewSimulator(cfg, nil).Run(insts)
	td := res.TopDown
	sum := td.Retiring + td.FrontendBound + td.BadSpec + td.BackendBound
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("top-down sum = %f, want 1", sum)
	}
	if be := td.CoreBound + td.MemoryBound; be < td.BackendBound-0.001 || be > td.BackendBound+0.001 {
		t.Errorf("core+mem = %f, backend = %f", be, td.BackendBound)
	}
	if td.BadSpec <= 0 {
		t.Error("expected nonzero bad speculation with branches present")
	}
	if td.FrontendBound <= 0 {
		t.Error("expected nonzero frontend bound with FE stalls enabled")
	}
}

func TestCacheMissesBecomeMemoryBound(t *testing.T) {
	// Dependent loads striding far beyond every cache level.
	n := 3000
	insts := make([]trace.Inst, n)
	for i := range insts {
		prev := i - 1
		insts[i] = trace.Inst{
			Class: trace.Load, Mnemonic: "mov", Bytes: 8,
			Addr: int64(i) * 4096 * 17,
			Deps: trace.Deps3(prev),
		}
	}
	h := cache.NewHierarchy(cache.Config{
		Name:   "tiny",
		L1Size: 4 << 10, L1Assoc: 2,
		L2Size: 32 << 10, L2Assoc: 4,
		L3Size: 256 << 10, L3Assoc: 8,
		LineSize:  64,
		L1Latency: 4, L2Latency: 12, L3Latency: 40, MemLatency: 200,
	})
	res := NewSimulator(cleanConfig(), h).Run(insts)
	if res.TopDown.MemoryBound < 0.5 {
		t.Errorf("memory bound = %.2f, want dominant for a miss-every-load chain", res.TopDown.MemoryBound)
	}
	if res.L1Misses == 0 {
		t.Error("expected L1 misses")
	}
}

func TestWarmCacheFasterThanCold(t *testing.T) {
	n := 2000
	insts := make([]trace.Inst, n)
	for i := range insts {
		prev := i - 1
		insts[i] = trace.Inst{
			Class: trace.Load, Mnemonic: "mov", Bytes: 8,
			Addr: int64(i%64) * 64,
			Deps: trace.Deps3(prev),
		}
	}
	h := cache.NewHierarchy(cache.WimpyNode)
	cold := NewSimulator(cleanConfig(), h).Run(insts)
	warm := NewSimulator(cleanConfig(), h).Run(insts)
	if warm.Cycles >= cold.Cycles {
		t.Errorf("warm run (%d cycles) should beat cold run (%d cycles)", warm.Cycles, cold.Cycles)
	}
}

func TestIdealIPCByClass(t *testing.T) {
	cfg := SkylakeServer()
	if got := cfg.IdealIPC(trace.ScalarALU); got != 4 {
		t.Errorf("scalar ideal IPC = %d, want 4", got)
	}
	if got := cfg.IdealIPC(trace.VecALU); got != 3 {
		t.Errorf("vec ideal IPC = %d, want 3", got)
	}
	if got := cfg.IdealIPC(trace.Load); got != 2 {
		t.Errorf("load ideal IPC = %d, want 2", got)
	}
	if got := cfg.IdealIPC(trace.Store); got != 2 {
		t.Errorf("store ideal IPC = %d, want 2", got)
	}
}

func TestWithPortsAblation(t *testing.T) {
	cfg := cleanConfig().WithPorts(trace.VecALU, []int{0})
	insts := repeat(trace.Inst{Class: trace.VecALU, Mnemonic: "padds"}, 3000)
	res := NewSimulator(cfg, nil).Run(insts)
	if ipc := res.IPC(); ipc > 1.05 {
		t.Errorf("single-port vec IPC = %.2f, want ~1", ipc)
	}
}

func TestStoreBandwidthAccounting(t *testing.T) {
	// Full-width 64B stores at 1/cycle commit: ~512 bits/cycle.
	insts := repeat(trace.Inst{Class: trace.Store, Mnemonic: "vmovdqu", Bytes: 64}, 4000)
	res := NewSimulator(cleanConfig(), nil).Run(insts)
	if bw := res.StoreBitsPerCycle(); bw < 450 || bw > 530 {
		t.Errorf("store bandwidth = %.1f bits/cycle, want ~512", bw)
	}
	if u := res.BandwidthUtilization(512); u < 0.88 || u > 1.05 {
		t.Errorf("bandwidth utilization = %.2f, want ~1", u)
	}
}

func TestSecondsConversion(t *testing.T) {
	res := Result{Cycles: 3_200_000, FrequencyGHz: 3.2}
	if got := res.Seconds(); got < 0.00099 || got > 0.00101 {
		t.Errorf("seconds = %g, want 1ms", got)
	}
	if got := res.Microseconds(); got < 999 || got > 1001 {
		t.Errorf("microseconds = %g, want 1000", got)
	}
}

func TestEmptyTrace(t *testing.T) {
	res := NewSimulator(cleanConfig(), nil).Run(nil)
	if res.Cycles != 0 || res.Insts != 0 {
		t.Errorf("empty trace: cycles=%d insts=%d", res.Cycles, res.Insts)
	}
}

func TestNopConsumesSlotNotPort(t *testing.T) {
	insts := repeat(trace.Inst{Class: trace.Nop, Mnemonic: "nop"}, 1000)
	res := NewSimulator(cleanConfig(), nil).Run(insts)
	for p := 0; p < NumPorts; p++ {
		if res.PortBusy[p] != 0 {
			t.Errorf("port %d busy %d cycles for nops", p, res.PortBusy[p])
		}
	}
	if ipc := res.IPC(); ipc < 3.5 {
		t.Errorf("nop IPC = %.2f, want ~4", ipc)
	}
}

func TestStoreToLoadOrdering(t *testing.T) {
	// load depending on a store must not complete before it.
	insts := []trace.Inst{
		{Class: trace.Store, Mnemonic: "mov", Bytes: 8, Addr: 0, Deps: trace.Deps3()},
		{Class: trace.Load, Mnemonic: "mov", Bytes: 8, Addr: 0, Deps: trace.Deps3(0)},
	}
	res := NewSimulator(cleanConfig(), nil).Run(insts)
	if res.Cycles < 2 {
		t.Errorf("store->load pair completed in %d cycles, want >=2", res.Cycles)
	}
}

func TestMSHRLimitsMLP(t *testing.T) {
	// Independent L3-latency loads: with unlimited MSHRs the window
	// hides the latency; with few MSHRs throughput collapses toward
	// latency/MSHRs per load.
	n := 4000
	insts := make([]trace.Inst, n)
	for i := range insts {
		insts[i] = trace.Inst{
			Class: trace.Load, Mnemonic: "mov", Bytes: 8,
			Addr: int64(i) * 4096 * 31, // distinct sets, misses L1/L2
			Deps: trace.Deps3(),
		}
	}
	cfgTight := cleanConfig()
	cfgTight.MSHRs = 2
	cfgLoose := cleanConfig()
	cfgLoose.MSHRs = 0 // unlimited
	h := func() *cache.Hierarchy {
		return cache.NewHierarchy(cache.Config{
			Name:   "t",
			L1Size: 4 << 10, L1Assoc: 2,
			L2Size: 32 << 10, L2Assoc: 4,
			L3Size: 64 << 20, L3Assoc: 16,
			LineSize:  64,
			L1Latency: 4, L2Latency: 12, L3Latency: 40, MemLatency: 200,
			PrefetchDegree: 0,
		})
	}
	// Warm so every access is an L3 hit (40 cycles).
	simT := NewSimulator(cfgTight, h())
	simT.Run(insts)
	tight := simT.Run(insts)
	simL := NewSimulator(cfgLoose, h())
	simL.Run(insts)
	loose := simL.Run(insts)
	if tight.Cycles < 3*loose.Cycles {
		t.Errorf("2 MSHRs (%d cycles) should be far slower than unlimited (%d)", tight.Cycles, loose.Cycles)
	}
	if tight.TopDown.MemoryBound < 0.5 {
		t.Errorf("MSHR-bound run shows memory bound %.2f, want dominant", tight.TopDown.MemoryBound)
	}
}

func TestPlatformConstructors(t *testing.T) {
	w, b := WimpyPlatform(), BeefyPlatform()
	if w.Caches.Name != "wimpy" || b.Caches.Name != "beefy" {
		t.Error("platform cache configs mislabeled")
	}
	if w.Core.FrequencyGHz <= b.Core.FrequencyGHz {
		t.Error("wimpy desktop core should clock higher than beefy xeon")
	}
}

// TestSlotAttributionSaturatedSchedWindow pins the top-down accounting
// invariant at the boundary the scheduler window creates: with
// SchedWindow far smaller than the ready-queue depth the window fills,
// mispredicts cut issue cycles short, and the trace tail issues
// mid-cycle — and still every issue slot of every accounting cycle
// must land in exactly one category. Three checkable consequences:
// Slots is a whole number of issue cycles, the category fractions sum
// to one, and Retiring*Slots equals the µop count (each µop issues
// exactly once).
func TestSlotAttributionSaturatedSchedWindow(t *testing.T) {
	mkTrace := func(n int, chained bool, branchEvery int) []trace.Inst {
		insts := make([]trace.Inst, n)
		for i := range insts {
			in := trace.Inst{Class: trace.VecALU, Mnemonic: "padds", Deps: trace.Deps3()}
			if chained && i > 0 {
				in.Deps = trace.Deps3(i - 1)
			}
			if branchEvery > 0 && i%branchEvery == branchEvery-1 {
				in = trace.Inst{Class: trace.Branch, Mnemonic: "jnz", Deps: trace.Deps3()}
			}
			insts[i] = in
		}
		return insts
	}
	cases := []struct {
		name  string
		cfg   func() Config
		insts []trace.Inst
	}{
		{"window-1-wide", func() Config {
			cfg := cleanConfig()
			cfg.SchedWindow = 1
			return cfg
		}, mkTrace(4003, false, 0)},
		{"window-1-chained", func() Config {
			cfg := cleanConfig()
			cfg.SchedWindow = 1
			return cfg
		}, mkTrace(2001, true, 0)},
		{"window-2-mispredicts", func() Config {
			cfg := SkylakeServer()
			cfg.SchedWindow = 2
			cfg.BranchMispredictRate = 0.5
			return cfg
		}, mkTrace(3007, false, 3)},
		{"fe-noise-tail", func() Config {
			cfg := SkylakeServer()
			cfg.SchedWindow = 1
			cfg.FrontendStallFrac = 0.13
			return cfg
		}, mkTrace(5, false, 0)},
		{"mispredict-on-tail", func() Config {
			cfg := cleanConfig()
			cfg.SchedWindow = 1
			cfg.BranchMispredictRate = 1
			return cfg
		}, mkTrace(9, false, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			res := NewSimulator(cfg, nil).Run(tc.insts)
			if res.Slots <= 0 {
				t.Fatalf("Slots = %d, want > 0", res.Slots)
			}
			if res.Slots%int64(cfg.IssueWidth) != 0 {
				t.Errorf("Slots = %d not a multiple of issue width %d: some cycle was partially attributed",
					res.Slots, cfg.IssueWidth)
			}
			td := res.TopDown
			sum := td.Retiring + td.FrontendBound + td.BadSpec + td.BackendBound
			if sum < 1-1e-9 || sum > 1+1e-9 {
				t.Errorf("top-down sum = %.12f, want exactly 1", sum)
			}
			got := td.Retiring * float64(res.Slots)
			if want := float64(len(tc.insts)); got < want-1e-6 || got > want+1e-6 {
				t.Errorf("Retiring*Slots = %.6f, want %v (every µop issues exactly once)", got, want)
			}
		})
	}
}
