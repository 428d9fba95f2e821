package vransim_test

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/ran"
	"vransim/internal/simd"
	"vransim/internal/turbo"
)

// TestOneCompilePerProcess is the fleet shape in one process: two serving
// runtimes of two workers each, the benchmark's four grid sizes drained
// through both, one runtime after the other and then both at once. Four
// decoders decode each size and the process compiles it once; every block
// decodes to its payload through the shared program and no live batch
// sees the interpreter.
func TestOneCompilePerProcess(t *testing.T) {
	sizes := []int{40, 512, 2048, 6144}
	const perSize = 16 // four full W512 batches, enough to reach both workers
	before := turbo.PlanCacheStats()

	var wrong atomic.Uint64
	pools := make(map[int]*ran.WordPool)
	for _, k := range sizes {
		p, err := ran.NewWordPool(k, perSize, rand.New(rand.NewSource(int64(k))))
		if err != nil {
			t.Fatal(err)
		}
		pools[k] = p
	}
	newRuntime := func() *ran.Runtime {
		cfg := ran.DefaultConfig(simd.W512, core.StrategyAPCM)
		cfg.Cells, cfg.Workers, cfg.QueueDepth = 2, 2, 4*perSize
		cfg.Deadline = time.Minute
		cfg.OnDecoded = func(b *ran.Block, bits []byte) {
			// drain submits pool word i as UE i.
			if _, want := pools[b.K].Get(b.UE); !bytes.Equal(want, bits) {
				wrong.Add(1)
			}
		}
		rt, err := ran.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	drain := func(rts ...*ran.Runtime) {
		t.Helper()
		for _, k := range sizes {
			for i := 0; i < perSize; i++ {
				w, _ := pools[k].Get(i)
				for _, rt := range rts {
					if a := rt.Submit(i%2, i, k, w); a != ran.Admitted {
						t.Fatalf("K=%d block %d: %v", k, i, a)
					}
				}
			}
		}
	}
	a, b := newRuntime(), newRuntime()
	drain(a)
	drain(b)
	drain(a, b)
	sa, sb := a.Stop(), b.Stop()

	for name, s := range map[string]*ran.Snapshot{"first": sa, "second": sb} {
		if want := uint64(2 * len(sizes) * perSize); s.Delivered != want {
			t.Errorf("%s runtime delivered %d of %d", name, s.Delivered, want)
		}
		if s.ProgramMisses != 0 {
			t.Errorf("%s runtime: %d batches decoded by the interpreter (latest K=%d)", name, s.ProgramMisses, s.ProgramMissK)
		}
	}
	if wrong.Load() != 0 {
		t.Errorf("%d blocks decoded to the wrong payload", wrong.Load())
	}
	after := turbo.PlanCacheStats()
	if d := after.Compiles - before.Compiles; d != uint64(len(sizes)) {
		t.Errorf("two runtimes, four decoders, %d block sizes: %d compiles, want %d", len(sizes), d, len(sizes))
	}
	if after.Failures != before.Failures {
		t.Errorf("%d block sizes failed to compile", after.Failures-before.Failures)
	}
	if sb.ProgramCompiles != after.Compiles || sa.Process != sb.Process {
		t.Errorf("snapshots disagree about the process: compiles %d vs %d, process %x vs %x",
			sb.ProgramCompiles, after.Compiles, sa.Process, sb.Process)
	}
}
