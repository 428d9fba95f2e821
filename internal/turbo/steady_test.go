package turbo

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
)

// TestBatchDecoderSteadyStateBitExact drives one pooled decoder through
// an interleaved mixed-K, mixed-fill sequence and checks every batch
// against a fresh decoder built for that batch alone: plan reuse,
// scratch rewind and arena sharing must be invisible in the output.
func TestBatchDecoderSteadyStateBitExact(t *testing.T) {
	for _, w := range []simd.Width{simd.W128, simd.W256, simd.W512} {
		pooled := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
		pooled.MaxIters = 4
		seq := []struct {
			k    int
			fill int
		}{
			{40, pooled.Lanes()}, {104, 1}, {40, 1}, {208, pooled.Lanes()},
			{104, pooled.Lanes()}, {40, pooled.Lanes()}, {208, 1},
		}
		for round, s := range seq {
			c, err := pooled.Code(s.k)
			if err != nil {
				t.Fatal(err)
			}
			words, truth := buildWords(t, c, s.fill, int64(100+round), true)
			got, _, err := pooled.Decode(s.k, words)
			if err != nil {
				t.Fatalf("%v round %d: %v", w, round, err)
			}

			fresh := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
			fresh.MaxIters = 4
			want, _, err := fresh.Decode(s.k, words)
			if err != nil {
				t.Fatalf("%v round %d fresh: %v", w, round, err)
			}
			for b := range words {
				if !equalBits(got[b], want[b]) {
					t.Errorf("%v round %d (K=%d fill=%d) block %d: pooled decode differs from fresh",
						w, round, s.k, s.fill, b)
				}
				if !equalBits(got[b], truth[b]) {
					t.Errorf("%v round %d (K=%d fill=%d) block %d: wrong bits",
						w, round, s.k, s.fill, b)
				}
			}
		}
	}
}

// TestBatchDecoderSteadyStateAllocs is the tentpole's acceptance gate:
// after warm-up, a full-batch decode on a pooled decoder allocates only
// the caller-owned output copies (the slice of results and their one
// backing array), for every width. The pre-refactor decoder allocated
// hundreds of objects per batch here.
func TestBatchDecoderSteadyStateAllocs(t *testing.T) {
	const k = 104
	for _, w := range []simd.Width{simd.W128, simd.W256, simd.W512} {
		bd := NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
		bd.MaxIters = 4
		c, err := bd.Code(k)
		if err != nil {
			t.Fatal(err)
		}
		words, _ := buildWords(t, c, bd.Lanes(), 7, true)
		if _, _, err := bd.Decode(k, words); err != nil { // warm-up: build the plan
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, _, err := bd.Decode(k, words); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 2
		if avg > budget {
			t.Errorf("%v: steady-state Decode allocates %.1f objects/op, budget %d", w, avg, budget)
		}
		if avg > 8 {
			t.Errorf("%v: steady-state Decode allocates %.1f objects/op, ISSUE budget 8", w, avg)
		}
		// The second stop test set, as a serving worker sets it: asked of
		// every block at every iteration from the second (full-range
		// words' decisions keep moving, and it passes none), it adds no
		// allocation.
		asked := 0
		bd.Accept = func(_ int, bits []byte) bool { asked++; return noneOf(bits) }
		words = fullRangeWords(rand.New(rand.NewSource(3)), k, bd.Lanes())
		if _, _, err := bd.Decode(k, words); err != nil {
			t.Fatal(err)
		}
		avg = testing.AllocsPerRun(10, func() {
			if _, _, err := bd.Decode(k, words); err != nil {
				t.Fatal(err)
			}
		})
		if avg > budget || asked == 0 {
			t.Errorf("%v: with a stop test asked %d times, steady-state Decode allocates %.1f objects/op, budget %d", w, asked, avg, budget)
		}
	}
}

// noneOf is a stop test that reads every decision, as a CRC does, and
// passes none.
func noneOf(bits []byte) bool {
	var or byte
	for _, b := range bits {
		or |= b
	}
	return or > 1
}

// TestBatchDecoderPlanEviction forces the budget-full path with a tiny
// budget: cycling through more block sizes than it holds must evict and
// rebuild — and stay bit-correct throughout.
func TestBatchDecoderPlanEviction(t *testing.T) {
	bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 2<<20)
	bd.MaxIters = 4
	ks := []int{6144, 5056, 6144, 4096, 5056, 6144}
	for round, k := range ks {
		c, err := bd.Code(k)
		if err != nil {
			t.Fatal(err)
		}
		words, truth := buildWords(t, c, bd.Lanes(), int64(300+round), true)
		bits, _, err := bd.Decode(k, words)
		if err != nil {
			t.Fatalf("round %d (K=%d): %v", round, k, err)
		}
		for b := range words {
			if !equalBits(bits[b], truth[b]) {
				t.Errorf("round %d (K=%d) block %d: wrong bits after eviction", round, k, b)
			}
		}
	}
	if bd.Evictions == 0 {
		t.Error("a 2 MiB budget fit three K=4096..6144 W512 plans without evicting — the budget check is dead")
	}
}

// TestBatchDecoderConcurrentWorkers runs two workers with separate
// pooled decoders under -race: per-worker decoders must share no
// scratch (the package-level tables they do share are read-only).
func TestBatchDecoderConcurrentWorkers(t *testing.T) {
	const k = 104
	var wg sync.WaitGroup
	for wkr := 0; wkr < 2; wkr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
			bd.MaxIters = 4
			c, err := bd.Code(k)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 8; round++ {
				words, truth := buildWords(t, c, bd.Lanes(), seed+int64(round), true)
				bits, _, err := bd.Decode(k, words)
				if err != nil {
					t.Error(err)
					return
				}
				for b := range words {
					if !equalBits(bits[b], truth[b]) {
						t.Errorf("worker seed %d round %d block %d: wrong bits", seed, round, b)
					}
				}
			}
		}(int64(1000 * (wkr + 1)))
	}
	wg.Wait()
}

// TestBatchDecoderOutputStable: returned bit slices must be caller-owned
// — a later Decode on the same decoder must not mutate them.
func TestBatchDecoderOutputStable(t *testing.T) {
	const k = 40
	bd := NewBatchDecoder(simd.W256, core.StrategyAPCM, 32<<20)
	bd.MaxIters = 4
	c, err := bd.Code(k)
	if err != nil {
		t.Fatal(err)
	}
	w1, truth1 := buildWords(t, c, bd.Lanes(), 41, true)
	first, _, err := bd.Decode(k, w1)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := buildWords(t, c, bd.Lanes(), 42, true)
	if _, _, err := bd.Decode(k, w2); err != nil {
		t.Fatal(err)
	}
	for b := range w1 {
		if !equalBits(first[b], truth1[b]) {
			t.Errorf("block %d: first batch's result mutated by second decode", b)
		}
	}
}

// BenchmarkBatchDecodeSteadyState is the decoder's headline benchmark:
// full-batch pooled decode, per width and per execution mode, at a fixed
// mid-size K plus the largest LTE K at W512. "packed" is the serving
// path — the cross-block SoA-packed stream compiled to a fused replay
// program; "interpreted" is the same stream with Compile=false, what a
// plan that failed to compile costs. "portable" is
// "packed" with the replay program run by the Go executor, so one
// binary on an AVX-512BW host reads both executors; where the Go one is
// the only one it would repeat "packed" and is left out. "accept" (W512
// K=512) is "packed" with the second stop test set, as a serving worker
// sets it, on full-range words, so every block is asked at every
// iteration from the second. Run with
// -benchmem; CI gates allocs/op on it.
func BenchmarkBatchDecodeSteadyState(b *testing.B) {
	cases := []struct {
		w simd.Width
		k int
	}{
		{simd.W128, 512}, {simd.W256, 512}, {simd.W512, 104}, {simd.W512, 512}, {simd.W512, 6144},
	}
	modes := []string{"packed", "interpreted"}
	if program.Kernel() != "go" {
		modes = append(modes, "portable")
	}
	for _, tc := range cases {
		modes := modes
		if tc.w == simd.W512 && tc.k == 512 {
			modes = append(modes[:len(modes):len(modes)], "accept")
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%v/K%d/%s", tc.w, tc.k, mode), func(b *testing.B) {
				if mode == "portable" {
					defer program.UseNativeKernel(program.UseNativeKernel(false))
				}
				bd := NewBatchDecoder(tc.w, core.StrategyAPCM, 32<<20)
				bd.Compile = mode != "interpreted"
				c, err := bd.Code(tc.k)
				if err != nil {
					b.Fatal(err)
				}
				words, _ := buildWords(b, c, bd.Lanes(), 7, true)
				if mode == "accept" {
					bd.Accept = func(_ int, bits []byte) bool { return noneOf(bits) }
					words = fullRangeWords(rand.New(rand.NewSource(3)), tc.k, bd.Lanes())
				}
				// Two warm-ups: the first builds the state (and, the first time
				// the binary meets the size, compiles its program); the second
				// confirms the steady path is reached before the clock starts.
				for i := 0; i < 2; i++ {
					if _, _, err := bd.Decode(tc.k, words); err != nil {
						b.Fatal(err)
					}
				}
				if bd.Compile && bd.ProgramStats().CompiledPlans == 0 {
					b.Fatal("warm-up did not compile a replay program")
				}
				b.SetBytes(int64(tc.k * bd.Lanes()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := bd.Decode(tc.k, words); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLoneDecodeAfterIdle times a batch of one clean block at W512
// and K = 40 and 512, as a lightly loaded runtime decodes one, after each
// of four waits: none (back to back); a 2 ms raw nanosleep, which is how
// the end-to-end benchmark's open-loop generator waits for its next
// arrival; the same sleep followed by another decoder's K=104 decode,
// which runs the same kernel over other data; and 2 ms spinning on the
// clock, which keeps the processor busy but runs no vector code. ns/op is
// the decodes' mean, the waits left out, and p50-ns and p99-ns their
// quantiles: what a decode pays for the idle time before it, and how much
// of that another decode just before it pays instead.
func BenchmarkLoneDecodeAfterIdle(b *testing.B) {
	const idle = 2 * time.Millisecond
	sleep := func() {
		ts := syscall.NsecToTimespec(int64(idle))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens the wait
	}
	other := NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
	c104, err := other.Code(104)
	if err != nil {
		b.Fatal(err)
	}
	words104, _ := buildWords(b, c104, 1, 5, true)
	waits := []struct {
		name string
		wait func()
	}{
		{"back-to-back", func() {}},
		{"sleep", sleep},
		{"sleep+other", func() {
			sleep()
			if _, _, err := other.Decode(104, words104); err != nil {
				b.Fatal(err)
			}
		}},
		{"spin", func() {
			for t0 := time.Now(); time.Since(t0) < idle; {
			}
		}},
	}
	for _, k := range []int{40, 512} {
		for _, w := range waits {
			b.Run(fmt.Sprintf("K%d/%s", k, w.name), func(b *testing.B) {
				bd := NewBatchDecoder(simd.W512, core.StrategyAPCM, 32<<20)
				c, err := bd.Code(k)
				if err != nil {
					b.Fatal(err)
				}
				words, _ := buildWords(b, c, 1, 7, true)
				for i := 0; i < 2; i++ {
					w.wait()
					if _, _, err := bd.Decode(k, words); err != nil {
						b.Fatal(err)
					}
				}
				took := make([]time.Duration, b.N)
				var sum time.Duration
				b.ResetTimer()
				for i := range took {
					w.wait()
					t0 := time.Now()
					if _, _, err := bd.Decode(k, words); err != nil {
						b.Fatal(err)
					}
					took[i] = time.Since(t0)
					sum += took[i]
				}
				slices.Sort(took)
				b.ReportMetric(float64(sum.Nanoseconds())/float64(b.N), "ns/op")
				b.ReportMetric(float64(took[b.N/2].Nanoseconds()), "p50-ns")
				b.ReportMetric(float64(took[b.N*99/100].Nanoseconds()), "p99-ns")
			})
		}
	}
}
