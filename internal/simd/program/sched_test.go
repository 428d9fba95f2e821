package program

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"vransim/internal/simd"
	"vransim/internal/uarch"
)

// recordAndCompileOpts is recordAndCompile with scheduling options.
func recordAndCompileOpts(t *testing.T, w simd.Width, memBytes, iters int, opts CompileOptions) (*Program, *simd.Memory, *synthKernel) {
	t.Helper()
	mem := simd.NewMemory(memBytes)
	e := simd.NewEngine(w, mem, nil)
	k := newSynthKernel(w, mem)
	k.seed(mem)
	k.iters = iters
	b := NewBuilder()
	e.SetProgSink(b)
	k.run(e)
	e.SetProgSink(nil)
	p, err := b.CompileOpts(w, opts)
	if err != nil {
		t.Fatalf("%v: compile: %v", w, err)
	}
	return p, mem, k
}

// replayBytes replays p over a freshly seeded arena laid out like k's
// and returns the arena bytes. With rng set the replay is poisoned (see
// runPoisoned).
func replayBytes(t *testing.T, p *Program, k *synthKernel, memBytes, iters int, rng *rand.Rand) []byte {
	t.Helper()
	mem := simd.NewMemory(memBytes)
	newSynthKernel(k.w, mem)
	k.seed(mem)
	run := p.Run
	if rng != nil {
		run = func(mem *simd.Memory, seg int) { p.runPoisoned(mem, seg, rng) }
	}
	run(mem, SegFirst)
	for it := 1; it < iters; it++ {
		run(mem, SegSteady)
	}
	return mem.Bytes(0, mem.Size())
}

// TestScheduledReplayMatchesInterpreter: the scheduling pass may only
// reorder, never change results — a scheduled program replayed over a
// fresh arena must be byte-identical to the interpreted run, across
// widths and heuristics.
func TestScheduledReplayMatchesInterpreter(t *testing.T) {
	const iters = 5
	for _, w := range simd.Widths {
		p, interpMem, k := recordAndCompileOpts(t, w, 1<<14, iters,
			CompileOptions{Schedule: true})
		info := p.Sched()
		if !info.Enabled {
			t.Fatalf("%v: scheduling pass did not run", w)
		}
		if info.Candidates < 2 {
			t.Errorf("%v: only %d candidate orderings simulated", w, info.Candidates)
		}
		for seg := range p.segs {
			if info.IPCAfter[seg] < info.IPCBefore[seg] {
				t.Errorf("%v: seg %d simulated IPC regressed: %.3f -> %.3f",
					w, seg, info.IPCBefore[seg], info.IPCAfter[seg])
			}
		}
		got := replayBytes(t, p, k, 1<<14, iters, nil)
		if !bytes.Equal(interpMem.Bytes(0, interpMem.Size()), got) {
			t.Errorf("%v: scheduled replay diverged from interpreter (heur=%v moved=%v)",
				w, info.Heuristic, info.Moved)
		}
	}
}

// TestScheduleActuallyReorders: on the synthetic kernel at least one
// segment must end up reordered with a strictly better simulated IPC —
// otherwise the pass is a no-op and the ISSUE's perf claim is vacuous.
func TestScheduleActuallyReorders(t *testing.T) {
	p, _, _ := recordAndCompileOpts(t, simd.W512, 1<<14, 5,
		CompileOptions{Schedule: true})
	info := p.Sched()
	if !info.Scheduled {
		t.Fatalf("no segment was reordered: %+v", info)
	}
	improved := false
	for seg := range p.segs {
		if info.IPCAfter[seg] > info.IPCBefore[seg] {
			improved = true
		}
	}
	if !improved {
		t.Errorf("no segment improved simulated IPC: before=%v after=%v",
			info.IPCBefore, info.IPCAfter)
	}
	if p.Scheduled() != info.Scheduled {
		t.Errorf("Scheduled() disagrees with Sched().Scheduled")
	}
}

// TestSingleHeuristicSelection: restricting the candidate set must
// restrict the winner, and each heuristic alone must still be
// bit-exact.
func TestSingleHeuristicSelection(t *testing.T) {
	for _, h := range AllHeuristics() {
		p, interpMem, k := recordAndCompileOpts(t, simd.W256, 1<<14, 4,
			CompileOptions{Schedule: true, Heuristics: []Heuristic{h}})
		info := p.Sched()
		for seg := range p.segs {
			if got := info.Heuristic[seg]; got != "original" && got != h.String() {
				t.Errorf("%v: seg %d won by %q, candidate set was only %q", h, seg, got, h)
			}
		}
		if got := replayBytes(t, p, k, 1<<14, 4, nil); !bytes.Equal(interpMem.Bytes(0, interpMem.Size()), got) {
			t.Errorf("%v: replay diverged", h)
		}
	}
}

// TestReorderRandomBitExact: ANY legal topological order of the DAG
// replays identically — the property the turbo fuzz target leans on,
// pinned here across seeds on both segments. The program has already run
// when it is reordered, and the replays are poisoned, so live masks left
// over from the previous order would fail here rather than in a decode.
func TestReorderRandomBitExact(t *testing.T) { eachKernel(t, testReorderRandomBitExact) }

func testReorderRandomBitExact(t *testing.T) {
	const iters = 4
	p, interpMem, k := recordAndCompile(t, simd.W512, 1<<14, iters)
	want := interpMem.Bytes(0, interpMem.Size())
	rng := rand.New(rand.NewSource(1))
	if got := replayBytes(t, p, k, 1<<14, iters, nil); !bytes.Equal(want, got) {
		t.Fatal("replay diverged before any reorder")
	}
	for seed := int64(1); seed <= 8; seed++ {
		for seg := range p.segs {
			if err := p.ReorderRandom(seg, seed*17+int64(seg)); err != nil {
				t.Fatalf("seed %d seg %d: %v", seed, seg, err)
			}
		}
		if got := replayBytes(t, p, k, 1<<14, iters, rng); !bytes.Equal(want, got) {
			t.Fatalf("seed %d: random legal reorder changed replay output", seed)
		}
	}
}

// TestDAGLegalOrder sanity-checks the DAG machinery itself: program
// order is legal, a reversed order of a multi-op segment is not (the
// segment has at least one true dependency), and listSchedule's output
// is legal for every heuristic.
func TestDAGLegalOrder(t *testing.T) {
	p, _, _ := recordAndCompile(t, simd.W512, 1<<14, 4)
	core := uarch.SkylakeServer()
	for seg := range p.segs {
		mops := p.segs[seg]
		d, err := p.buildDAG(mops)
		if err != nil {
			t.Fatalf("seg %d: buildDAG: %v", seg, err)
		}
		n := len(mops)
		ident := make([]int32, n)
		rev := make([]int32, n)
		hasEdge := false
		for i := 0; i < n; i++ {
			ident[i] = int32(i)
			rev[i] = int32(n - 1 - i)
			hasEdge = hasEdge || len(d.preds[i]) > 0
		}
		if !d.legalOrder(ident) {
			t.Errorf("seg %d: program order not legal", seg)
		}
		if !hasEdge {
			t.Fatalf("seg %d: DAG has no edges at all", seg)
		}
		if n > 1 && d.legalOrder(rev) {
			t.Errorf("seg %d: full reversal considered legal", seg)
		}
		specs := make([]uarch.MopSpec, n)
		for i := range mops {
			p.mopSpec(&mops[i], &specs[i])
		}
		for _, h := range AllHeuristics() {
			order := listSchedule(specs, d, h, &core)
			if !d.legalOrder(order) {
				t.Errorf("seg %d: %v produced an illegal order", seg, h)
			}
		}
	}
}

// TestSerializationRoundtrip: marshal -> unmarshal -> replay must be
// byte-identical, and the metadata (width, op counts, sched info) must
// survive the trip. The live masks are not on the wire; the poisoned
// replay checks the loaded program derived its own.
func TestSerializationRoundtrip(t *testing.T) { eachKernel(t, testSerializationRoundtrip) }

func testSerializationRoundtrip(t *testing.T) {
	const iters = 4
	p, interpMem, k := recordAndCompileOpts(t, simd.W512, 1<<14, iters,
		CompileOptions{Schedule: true})
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	q, err := UnmarshalProgram(blob, 1<<14)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.Width() != p.Width() || q.RawOps != p.RawOps || q.FusedOps != p.FusedOps {
		t.Fatalf("metadata lost: %v %v %v vs %v %v %v",
			q.Width(), q.RawOps, q.FusedOps, p.Width(), p.RawOps, p.FusedOps)
	}
	if q.Sched() != p.Sched() {
		t.Errorf("sched info lost: %+v vs %+v", q.Sched(), p.Sched())
	}
	want := interpMem.Bytes(0, interpMem.Size())
	if got := replayBytes(t, q, k, 1<<14, iters, rand.New(rand.NewSource(1))); !bytes.Equal(want, got) {
		t.Fatalf("deserialized program replay diverged")
	}
}

// TestSerializationRejectsBadBytes: garbage, truncation, and plans
// whose memory footprint exceeds the target arena must all be refused.
func TestSerializationRejectsBadBytes(t *testing.T) {
	p, _, _ := recordAndCompile(t, simd.W256, 1<<14, 4)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if _, err := UnmarshalProgram([]byte("not a program"), 0); err == nil {
		t.Error("garbage bytes accepted")
	}
	if _, err := UnmarshalProgram(blob[:len(blob)/2], 0); err == nil {
		t.Error("truncated blob accepted")
	}
	// The program touches addresses well past 256 bytes: a smaller
	// arena than it was recorded against must be rejected, not
	// replayed out of bounds.
	if _, err := UnmarshalProgram(blob, 256); err == nil {
		t.Error("plan accepted against an arena smaller than its footprint")
	} else if !strings.Contains(err.Error(), "outside arena") {
		t.Errorf("wrong rejection: %v", err)
	}
	// Full-size arena still accepts.
	if _, err := UnmarshalProgram(blob, 1<<14); err != nil {
		t.Errorf("valid blob rejected: %v", err)
	}
}
