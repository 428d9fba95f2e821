//go:build linux

package turbo

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
)

// coldCompileChild is the argument that makes TestCompiledPlanFootprint,
// run in a subprocess of its own test binary, cold-compile the grid sizes
// and print its peak resident set.
const coldCompileChild = "cold-compile-grid"

// peakRSS reads the peak resident set of this process's address space,
// in MiB, from /proc/self/status. Not getrusage: os/exec starts a child
// sharing its parent's address space until exec, and exec folds that
// space's high-water mark into the child's ru_maxrss, so a child's
// ru_maxrss is never below its parent's peak.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.Atoi(f[1])
			return float64(kb) / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// liveHeap is the heap in use after a full collection: the bytes
// something still references.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCompiledPlanFootprint pins what a compiled plan costs to keep and to
// make on every host: a program holds its descriptor streams, its runs
// written as sweeps and loop records, and one copy of each distinct table,
// one iteration of them. Kept: the live heap one cold W512/APCM compile adds to the process,
// the whole cache entry, is at most 0.45 MB at K=6144 and 0.06 MB at K=512
// (0.39 and 0.04–0.05 measured; 1.85 and 0.17 while the streams held a
// record or a step per trellis step and group, 3.43 and 0.29 while the
// pool held a table per reference); a program that kept an intermediate
// form of its records, a plan that kept interpreter tables, or a stream that
// stopped rolling is over. Made: the bytes one cold K=6144 compile
// allocates are at most 3.1 MB (2.7–2.8 MB measured; 15.0 MB while the
// emitter held each segment unrolled and each gather table per
// reference, 62 MB recording it), and a process that cold-compiles the
// four sizes of the benchmark's grid peaks at most 10.7 MB resident
// (8.7–9.3 MB measured; 20.9–21.5 MB unrolled, 56–58 MB recorded). The
// budgets are the measured values and 15 %. The resident-set half is
// skipped under the race detector.
func TestCompiledPlanFootprint(t *testing.T) {
	grid := []int{40, 512, 2048, 6144}
	if flag.Arg(0) == coldCompileChild {
		if err := Precompile(simd.W512, core.StrategyAPCM, grid...); err != nil {
			t.Fatal(err)
		}
		rss, err := peakRSS()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("peak RSS %.1f MB\n", rss)
		return
	}
	for _, c := range []struct {
		k      int
		budget float64 // MB
	}{{512, 0.06}, {6144, 0.45}} {
		resetPlanCache()
		before := liveHeap()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if err := Precompile(simd.W512, core.StrategyAPCM, c.k); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		mb := (float64(liveHeap()) - float64(before)) / 1e6
		t.Logf("K=%d: one cold compile adds %.2f MB of live heap (budget %.2f)", c.k, mb, c.budget)
		if mb > c.budget {
			t.Errorf("K=%d: a compiled plan holds %.2f MB, over its %.2f MB budget", c.k, mb, c.budget)
		}
		if c.k == 6144 {
			const allocBudget = 3.1
			alloc := float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
			t.Logf("K=%d: one cold compile allocates %.1f MB (budget %.1f)", c.k, alloc, allocBudget)
			if alloc > allocBudget {
				t.Errorf("K=%d: one cold compile allocates %.1f MB, over the %.1f MB budget", c.k, alloc, allocBudget)
			}
		}
	}
	resetPlanCache()

	if raceEnabled {
		t.Log("race detector on: the cold-compile peak RSS is not measured")
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestCompiledPlanFootprint$", coldCompileChild).CombinedOutput()
	if err != nil {
		t.Fatalf("cold-compile subprocess: %v\n%s", err, out)
	}
	var rss float64
	if _, err := fmt.Sscanf(string(out), "peak RSS %f MB", &rss); err != nil {
		t.Fatalf("cold-compile subprocess printed no peak: %v\n%s", err, out)
	}
	const budget = 10.7
	t.Logf("cold compile of K=%v: peak RSS %.1f MB (budget %.1f)", grid, rss, budget)
	if rss > budget {
		t.Errorf("cold-compiling K=%v peaks at %.1f MB resident, over the %.1f MB budget", grid, rss, budget)
	}
}
