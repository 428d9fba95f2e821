package ran

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// BenchmarkServeThroughput is the serving-layer perf baseline: goodput
// (Mbps of delivered information bits) and p99 latency versus worker
// count under a saturating flood. Future PRs regress against these
// numbers; the 1-vs-8 ratio is the scalability acceptance check.
func BenchmarkServeThroughput(b *testing.B) {
	pool, err := NewWordPool(104, 64, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
			cfg.Cells = 4
			cfg.Workers = workers
			cfg.QueueDepth = 512
			cfg.MaxIters = 2
			cfg.Deadline = time.Hour // throughput, not shedding
			rt, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				w, _ := pool.Get(i)
				for rt.Submit(i%cfg.Cells, i, pool.K, w) == RejectedBacklog {
					runtime.Gosched()
				}
			}
			s := rt.Stop()
			elapsed := time.Since(start)
			b.StopTimer()
			if s.Delivered != uint64(b.N) {
				b.Fatalf("delivered %d of %d", s.Delivered, b.N)
			}
			mbps := float64(s.Delivered) * float64(pool.K) / float64(elapsed.Microseconds())
			b.ReportMetric(mbps, "Mbps")
			b.ReportMetric(float64(s.LatencyP99.Microseconds()), "p99-µs")
			b.ReportMetric(s.LaneOccupancy*100, "lane-%")
		})
	}
}

// BenchmarkServeLoneBlock is the worker-wake probe of a lightly loaded
// runtime: one submitter offers one K=40 block at a time to an idle
// 2-worker runtime, 500 µs apart, and the benchmark reports the process
// CPU each block costs (getrusage, every thread, the Go runtime's sysmon
// included), the blocks' p50 and p99 latency, and the mean time Submit
// takes to return: the woken worker decodes on the submitter's
// processor, so the submitter waits for a thread meanwhile. sleep=syscall
// waits in a raw nanosleep, as the end-to-end benchmark's open-loop
// generator does, so the submitter's thread blocks outside Go's
// scheduler; sleep=go parks in time.Sleep.
func BenchmarkServeLoneBlock(b *testing.B) {
	pool, err := NewWordPool(40, 64, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	const gap = 500 * time.Microsecond
	for _, mode := range []struct {
		name  string
		sleep func()
	}{
		{"sleep=syscall", func() {
			ts := syscall.NsecToTimespec(int64(gap))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens the gap
		}},
		{"sleep=go", func() { time.Sleep(gap) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
			cfg.Cells = 1
			cfg.Workers = 2
			cfg.Deadline = time.Hour
			if err := turbo.Precompile(cfg.Width, cfg.Strategy, pool.K); err != nil {
				b.Fatal(err)
			}
			rt, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			cpu0 := processCPU(b)
			var submit time.Duration
			for i := 0; i < b.N; i++ {
				w, _ := pool.Get(i)
				t0 := time.Now()
				if a := rt.Submit(0, i, pool.K, w); a != Admitted {
					b.Fatalf("block %d: %v", i, a)
				}
				submit += time.Since(t0)
				mode.sleep()
			}
			s := rt.Stop()
			cpu := processCPU(b) - cpu0
			b.StopTimer()
			if s.Delivered != uint64(b.N) {
				b.Fatalf("delivered %d of %d", s.Delivered, b.N)
			}
			b.ReportMetric(float64(cpu.Nanoseconds())/1e3/float64(b.N), "cpu-µs/block")
			b.ReportMetric(float64(s.LatencyP50.Nanoseconds())/1e3, "p50-µs")
			b.ReportMetric(float64(s.LatencyP99.Nanoseconds())/1e3, "p99-µs")
			b.ReportMetric(float64(submit.Nanoseconds())/1e3/float64(b.N), "submit-µs/block")
		})
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkServeTracingOverhead measures the span tracer's cost on the
// saturated serving path: the same flood with tracing off and on. The
// telemetry acceptance bar is <5% goodput loss with the tracer mounted
// (ring 512, slowest-16 — the vranserve -admin defaults).
func BenchmarkServeTracingOverhead(b *testing.B) {
	pool, err := NewWordPool(104, 64, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		name := "trace=off"
		if traced {
			name = "trace=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(simd.W512, core.StrategyAPCM)
			cfg.Cells = 4
			cfg.Workers = 4
			cfg.QueueDepth = 512
			cfg.MaxIters = 2
			cfg.Deadline = time.Hour
			if traced {
				cfg.Tracer = telemetry.NewTracer(512, 16)
			}
			rt, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				w, _ := pool.Get(i)
				for rt.Submit(i%cfg.Cells, i, pool.K, w) == RejectedBacklog {
					runtime.Gosched()
				}
			}
			s := rt.Stop()
			elapsed := time.Since(start)
			b.StopTimer()
			if s.Delivered != uint64(b.N) {
				b.Fatalf("delivered %d of %d", s.Delivered, b.N)
			}
			if traced && cfg.Tracer.SpanCount() != uint64(b.N) {
				b.Fatalf("tracer recorded %d spans of %d", cfg.Tracer.SpanCount(), b.N)
			}
			mbps := float64(s.Delivered) * float64(pool.K) / float64(elapsed.Microseconds())
			b.ReportMetric(mbps, "Mbps")
		})
	}
}
