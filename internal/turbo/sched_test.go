package turbo

import (
	"math/rand"
	"testing"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// newSchedDecoder builds a BatchDecoder with the scheduling pass on.
func newSchedDecoder(w simd.Width, packed bool, maxIters int) *BatchDecoder {
	bd := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
	bd.MaxIters = maxIters
	bd.Packed = packed
	bd.Schedule = true
	return bd
}

// TestScheduledMatchesAllPaths is the satellite differential property:
// scheduled replay vs unscheduled replay vs the interpreter vs the
// scalar reference, bit- and iteration-identical across widths × K ×
// batch fill × packed/per-block. The scheduler may only reorder mops
// inside dependency constraints, so all four must agree exactly.
func TestScheduledMatchesAllPaths(t *testing.T) { eachKernel(t, testScheduledMatchesAllPaths) }

func testScheduledMatchesAllPaths(t *testing.T) {
	const maxIters = 4
	for _, w := range simd.Widths {
		for _, k := range []int{40, 104, 512} {
			c, err := NewCode(k)
			if err != nil {
				t.Fatal(err)
			}
			nb := BlocksPerRegister(w)
			for _, packed := range []bool{true, false} {
				for _, fill := range []int{1, nb} {
					label := w.String() + "/K" + itoa(k) + "/packed=" + itoa(boolInt(packed)) + "/fill" + itoa(fill)
					words, _ := buildWords(t, c, fill, int64(k)+int64(fill), false)

					sched := newSchedDecoder(w, packed, maxIters)
					if _, _, err := sched.Decode(k, words); err != nil {
						t.Fatalf("%s: scheduled warm-up: %v", label, err)
					}
					got, gotIters, err := sched.Decode(k, words)
					if err != nil {
						t.Fatalf("%s: scheduled: %v", label, err)
					}
					st := sched.ProgramStats()
					if st.CompiledPlans != 1 {
						t.Fatalf("%s: scheduled decoder did not compile", label)
					}

					plain := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
					plain.MaxIters = maxIters
					plain.Packed = packed
					if _, _, err := plain.Decode(k, words); err != nil {
						t.Fatalf("%s: unscheduled warm-up: %v", label, err)
					}
					unsched, unschedIters, err := plain.Decode(k, words)
					if err != nil {
						t.Fatalf("%s: unscheduled: %v", label, err)
					}

					interp := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
					interp.MaxIters = maxIters
					interp.Packed = packed
					interp.Compile = false
					want, wantIters, err := interp.Decode(k, words)
					if err != nil {
						t.Fatalf("%s: interpreted: %v", label, err)
					}

					if gotIters != wantIters || unschedIters != wantIters {
						t.Errorf("%s: iterations diverged: scheduled=%d unscheduled=%d interpreted=%d",
							label, gotIters, unschedIters, wantIters)
					}
					for b := range words {
						if !equalBits(got[b], want[b]) {
							t.Errorf("%s block %d: scheduled and interpreted decisions differ", label, b)
						}
						if !equalBits(got[b], unsched[b]) {
							t.Errorf("%s block %d: scheduled and unscheduled decisions differ", label, b)
						}
					}
					// Scalar reference on the first block only (the
					// three-way per-block comparison lives in
					// TestCompiledMatchesInterpretedAndScalar).
					sc := NewDecoder(c)
					sc.MaxIters = maxIters
					scalarBits, _, err := sc.Decode(words[0])
					if err != nil {
						t.Fatalf("%s: scalar: %v", label, err)
					}
					if !equalBits(got[0], scalarBits) {
						t.Errorf("%s: scheduled and scalar decisions differ", label)
					}
				}
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestScheduledStatsAndHits pins the new counters: scheduled decodes
// count as SchedHits, the plan shows up in ScheduledPlans, and the
// steady-segment simulated IPC is reported improved (the packed W512
// steady segment has enough independent work that the pass must find a
// better order — the ISSUE's perf gate in miniature).
func TestScheduledStatsAndHits(t *testing.T) {
	const k = 512
	bd := newSchedDecoder(simd.W512, true, 4)
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	words, _ := buildWords(t, c, bd.Lanes(), 7, false)
	for i := 0; i < 3; i++ {
		if _, _, err := bd.Decode(k, words); err != nil {
			t.Fatal(err)
		}
	}
	s := bd.ProgramStats()
	if s.CompiledPlans != 1 || s.ScheduledPlans != 1 {
		t.Fatalf("plans: %+v", s)
	}
	if s.SchedHits != 2 || s.Hits != 2 {
		t.Fatalf("hits: %+v", s)
	}
	if s.SimIPCAfter <= s.SimIPCBefore {
		t.Errorf("steady-segment simulated IPC did not improve: %.3f -> %.3f",
			s.SimIPCBefore, s.SimIPCAfter)
	}
	p := bd.PlanProgram(k, true)
	if p == nil || !p.Scheduled() {
		t.Fatalf("plan program missing or unscheduled")
	}
}

// TestInstallPlanWarmStart: serialize a tuned plan out of one decoder
// and install it into a fresh one — the fresh decoder must serve every
// decode from the warm program (zero compiles, zero misses) with
// bit-identical output.
func TestInstallPlanWarmStart(t *testing.T) {
	const k = 104
	words := func(t *testing.T, bd *BatchDecoder, fill int) []*LLRWord {
		c, err := bd.Code(k)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := buildWords(t, c, fill, 5, false)
		return w
	}

	tuner := newSchedDecoder(simd.W512, true, 4)
	ws := words(t, tuner, tuner.Lanes())
	if _, _, err := tuner.Decode(k, ws); err != nil {
		t.Fatal(err)
	}
	prog := tuner.PlanProgram(k, true)
	if prog == nil {
		t.Fatal("tuner decoder did not compile")
	}
	blob, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	arena := tuner.ArenaOffset()

	fresh := newSchedDecoder(simd.W512, true, 4)
	if err := fresh.InstallPlan(k, true, blob, arena); err != nil {
		t.Fatalf("install: %v", err)
	}
	got, gotIters, err := fresh.Decode(k, ws)
	if err != nil {
		t.Fatal(err)
	}
	s := fresh.ProgramStats()
	if s.Compiles != 0 || s.Misses != 0 || s.Hits != 1 || s.WarmPlans != 1 {
		t.Fatalf("warm decoder did not skip compile+search: %+v", s)
	}

	interp := NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
	interp.MaxIters = 4
	interp.Compile = false
	want, wantIters, err := interp.Decode(k, ws)
	if err != nil {
		t.Fatal(err)
	}
	if gotIters != wantIters {
		t.Errorf("warm %d iters, interpreted %d", gotIters, wantIters)
	}
	for b := range ws {
		if !equalBits(got[b], want[b]) {
			t.Errorf("block %d: warm-started and interpreted decisions differ", b)
		}
	}
}

// TestInstallPlanRejectsMismatch: a wrong arena cursor and a wrong
// width must both refuse installation and leave the plan uncompiled.
func TestInstallPlanRejectsMismatch(t *testing.T) {
	const k = 104
	tuner := newSchedDecoder(simd.W512, true, 4)
	c, err := tuner.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := buildWords(t, c, tuner.Lanes(), 5, false)
	if _, _, err := tuner.Decode(k, ws); err != nil {
		t.Fatal(err)
	}
	blob, err := tuner.PlanProgram(k, true).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	arena := tuner.ArenaOffset()

	// Arena cursor mismatch.
	fresh := newSchedDecoder(simd.W512, true, 4)
	if err := fresh.InstallPlan(k, true, blob, arena+64); err == nil {
		t.Error("cursor mismatch accepted")
	}
	if fresh.PlanProgram(k, true) != nil {
		t.Error("rejected install left a program behind")
	}
	// The plan still decodes (in-process compile path intact).
	if _, _, err := fresh.Decode(k, ws); err != nil {
		t.Errorf("decode after rejected install: %v", err)
	}

	// Width mismatch: install a W512 plan into a W256 decoder at that
	// decoder's true post-build cursor, so the width check is what
	// fires.
	narrow := newSchedDecoder(simd.W256, true, 4)
	narrow.Compile = false
	wsN, _ := buildWords(t, c, narrow.Lanes(), 5, false)
	if _, _, err := narrow.Decode(k, wsN); err != nil {
		t.Fatal(err)
	}
	if err := narrow.InstallPlan(k, true, blob, narrow.ArenaOffset()); err == nil {
		t.Error("width mismatch accepted")
	}

	// Corrupt bytes at the right cursor.
	fresh2 := newSchedDecoder(simd.W512, true, 4)
	if err := fresh2.InstallPlan(k, true, blob[:len(blob)/3], arena); err == nil {
		t.Error("truncated plan accepted")
	}
}

// FuzzTopoReorder is the satellite fuzz target: take a real compiled
// decode plan, permute both of its segments into a random legal
// topological order of their dependency DAGs, and assert the replay
// still matches the interpreter bit for bit on random inputs. Any
// legal reorder of a fused program must replay identically.
func FuzzTopoReorder(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1), true)
	f.Add(int64(2), uint8(1), uint8(1), uint8(2), false)
	f.Add(int64(3), uint8(2), uint8(2), uint8(255), true)
	ks := []int{40, 104, 512}
	f.Fuzz(func(t *testing.T, seed int64, wIdx, kIdx, fill uint8, packed bool) {
		eachKernel(t, func(t *testing.T) {
			w := simd.Widths[int(wIdx)%len(simd.Widths)]
			k := ks[int(kIdx)%len(ks)]
			rng := rand.New(rand.NewSource(seed))
			nb := BlocksPerRegister(w)
			n := 1 + int(fill)%nb
			words := make([]*LLRWord, n)
			for b := range words {
				words[b] = randomWord(rng, k)
			}

			comp := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
			comp.MaxIters = 4
			comp.Packed = packed
			if _, _, err := comp.Decode(k, words); err != nil {
				t.Fatal(err)
			}
			prog := comp.PlanProgram(k, packed)
			if prog == nil {
				t.Fatal("first decode did not compile")
			}
			// Replay once before reordering: the program's derived state
			// (live masks, register file) is then that of the old order, and
			// must not leak into the new one.
			if _, _, err := comp.Decode(k, words); err != nil {
				t.Fatal(err)
			}
			for seg := range [2]int{program.SegFirst, program.SegSteady} {
				if err := prog.ReorderRandom(seg, seed^int64(seg)<<7); err != nil {
					t.Fatalf("seg %d: %v", seg, err)
				}
			}
			got, gotIters, err := comp.Decode(k, words)
			if err != nil {
				t.Fatal(err)
			}

			interp := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
			interp.Compile = false
			interp.MaxIters = 4
			interp.Packed = packed
			want, wantIters, err := interp.Decode(k, words)
			if err != nil {
				t.Fatal(err)
			}
			if gotIters != wantIters {
				t.Errorf("reordered replay %d iters, interpreted %d", gotIters, wantIters)
			}
			for b := range words {
				if !equalBits(got[b], want[b]) {
					t.Errorf("block %d: reordered replay and interpreter decisions differ", b)
				}
			}
		})
	})
}
