package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"vransim/internal/core"
	"vransim/internal/fronthaul"
	"vransim/internal/pipeline"
	"vransim/internal/simd"
	"vransim/internal/transport"
	"vransim/internal/turbo"
)

// probeBudget bounds one probe: it stops at the first of the two. The
// issue's 2 s or 200 calls is shrunk with the run (and further by
// -quick); medians of a few dozen calls of a deterministic kernel
// already repeat.
type probeBudget struct {
	dur   time.Duration
	calls int
	// packetBytes sizes the simulated uplink packet of paperPath; 0
	// skips it.
	packetBytes int
}

var (
	fullProbes  = probeBudget{dur: 250 * time.Millisecond, calls: 200, packetBytes: 1500}
	quickProbes = probeBudget{dur: 20 * time.Millisecond, calls: 5, packetBytes: 100}
)

// timeCalls calls f from this goroutine until the budget is spent and
// returns the median duration of one call in nanoseconds.
func timeCalls(b probeBudget, f func()) float64 {
	var ns []float64
	for start := time.Now(); len(ns) < b.calls && (len(ns) < 3 || time.Since(start) < b.dur); {
		t := time.Now()
		f()
		ns = append(ns, float64(time.Since(t)))
	}
	sort.Float64s(ns)
	return percentile(ns, 0.5)
}

// allocsPer reports heap objects allocated per call of f.
func allocsPer(calls int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(calls)
}

// probes are the direct, single-goroutine measurements of the layers
// under the runtime. batchUs is kept per block size (and for the noisy
// K=512 pool under key -512) to reconcile the runtime's decode spans.
type probes struct {
	metrics []metric
	batchUs map[int]float64
}

func (pr *probes) add(name, unit string, v float64, note string) {
	pr.metrics = append(pr.metrics, metric{name, unit, v, note})
}

// batches returns a function that decodes the next n-word batch of the
// pool on bd each time it is called.
func batches(bd *turbo.BatchDecoder, p *pool, n int, sink *error) func() {
	next := 0
	words := make([]*turbo.LLRWord, n)
	return func() {
		for i := range words {
			words[i] = p.words[next%len(p.words)]
			next++
		}
		if _, _, err := bd.Decode(p.k, words); err != nil {
			*sink = err
		}
	}
}

func runProbes(ps *pools, b probeBudget) (*probes, error) {
	pr := &probes{batchUs: make(map[int]float64)}
	var err error
	if err = pr.turbo(ps, b); err == nil {
		if err = pr.fronthaul(ps, b); err == nil {
			err = pr.paperPath(b.packetBytes)
		}
	}
	return pr, err
}

// turbo times turbo.BatchDecoder.Decode directly: the decode kernel with
// no queue, batcher or worker around it.
func (pr *probes) turbo(ps *pools, b probeBudget) error {
	var derr error
	bd := newDecoder()
	cold := map[int]float64{}
	// K=512 first, on the fresh decoder, so its compile is the only one
	// the program counters have seen.
	for _, k := range []int{512, 40, 2048, 6144} {
		dec := batches(bd, ps.hi[k], lanes, &derr)
		t := time.Now()
		dec()
		cold[k] = float64(time.Since(t)) / 1e6
		if k == 512 {
			st := bd.ProgramStats()
			if st.Compiles == 0 {
				return fmt.Errorf("probe: first K=512 decode compiled no program")
			}
			pr.add("program.compile_ms_k512", "ms", float64(st.CompileTime)/1e6/float64(st.Compiles), "ProgramStats.CompileTime / Compiles")
		}
		pr.batchUs[k] = timeCalls(b, dec) / 1e3
	}
	for _, k := range gridSizes {
		pr.add(fmt.Sprintf("turbo.us_per_block_k%d", k), "us", pr.batchUs[k]/float64(lanes), "median full-lane Decode / lanes")
	}

	lo := batches(bd, ps.lo, lanes, &derr)
	iters, blocks := 0, 0
	pr.batchUs[-ps.lo.k] = timeCalls(b, func() {
		lo()
		for _, it := range bd.BlockIters() {
			iters += it
			blocks++
		}
	}) / 1e3
	pr.add("turbo.us_per_block_k512_losnr", "us", pr.batchUs[-ps.lo.k]/float64(lanes), "noisy pool, full lanes")
	pr.add("turbo.iters_mean_losnr", "iters", float64(iters)/float64(max(blocks, 1)), "per-block early-exit iteration")

	one := timeCalls(b, batches(bd, ps.hi[512], 1, &derr)) / 1e3
	pr.add("turbo.fill1_cost_ratio_k512", "ratio", one/pr.batchUs[512], "1-block batch time / 4-block batch time")
	pr.add("turbo.allocs_per_decode_k512", "count", allocsPer(32, batches(bd, ps.hi[512], lanes, &derr)), "heap objects per warm Decode")

	interp := newDecoder()
	interp.Compile = false
	idec := batches(interp, ps.hi[512], lanes, &derr)
	idec()
	interpUs := timeCalls(b, idec) / 1e3
	pr.add("turbo.interp_us_per_block_k512", "us", interpUs/float64(lanes), "Compile=false")
	pr.add("program.replay_speedup_k512", "ratio", interpUs/pr.batchUs[512], "interpreted / compiled replay")
	pr.add("turbo.cold_ms_k512", "ms", cold[512], "first Decode of K=512: plan build + recording + compile")
	pr.add("turbo.cold_ms_k2048", "ms", cold[2048], "first Decode of K=2048")
	pr.add("turbo.plan_evictions", "count", float64(bd.Evictions), "arena flushes with all four sizes cached")
	return derr
}

// fronthaul times the frame codec and the in-process link directly.
func (pr *probes) fronthaul(ps *pools, b probeBudget) error {
	var ferr error
	for _, k := range []int{40, 512} {
		w := ps.hi[k].words[0]
		var wire []byte
		enc := func() {
			wire = fronthaul.AppendFrame(wire[:0], fronthaul.DataFrame(1, 7, 3, k, w, uint64(blockDeadline)))
		}
		pr.add(fmt.Sprintf("fronthaul.encode_ns_k%d", k), "ns", timeCalls(b, enc), "DataFrame + AppendFrame")
		dec := func() {
			f, err := fronthaul.DecodeFrame(wire[4:])
			if err == nil {
				_, err = f.DataWord()
			}
			if err != nil {
				ferr = err
			}
		}
		pr.add(fmt.Sprintf("fronthaul.decode_ns_k%d", k), "ns", timeCalls(b, dec), "DecodeFrame + DataWord")
		if k == 512 {
			pr.add("fronthaul.frame_bytes_k512", "bytes", float64(len(wire)), "length prefix + header + int8 word")
			pr.add("fronthaul.allocs_per_frame", "count", allocsPer(64, func() { enc(); dec() }), "encode + decode of one K=512 frame")
		}
	}
	a, z := fronthaul.Pipe()
	tx, rx := fronthaul.NewLink(a, nil), fronthaul.NewLink(z, nil)
	frame := fronthaul.DataFrame(1, 7, 3, 512, ps.hi[512].words[0], uint64(blockDeadline))
	hop := func() {
		if err := tx.WriteFrame(frame); err != nil {
			ferr = err
			return
		}
		if _, err := rx.ReadFrame(); err != nil {
			ferr = err
		}
	}
	pr.add("fronthaul.pipe_us_per_frame_k512", "us", timeCalls(b, hop)/1e3, "WriteFrame -> ReadFrame across Pipe")
	a.Close()
	z.Close()
	return ferr
}

// paperPath runs the paper's own experiment: one UDP uplink packet
// (1500 bytes in a full run) through the traced interpreter and the port
// simulator, with the original arrangement and with APCM. The simulated
// times (unit sim_us: microseconds of the modelled core, not of this
// host) repeat exactly; a difference means the emitted instruction
// stream changed. The wall time is the other use of simd.Engine, watched
// so a replay-side rewrite that slows it is seen. It takes 5-17 s on the
// calibration host, so only serve_sat runs it; with packetBytes 0 every
// metric reads 0.
func (pr *probes) paperPath(packetBytes int) error {
	start := time.Now()
	var us, arrange [2]float64
	var cycles int64
	strategies := []core.Strategy{core.StrategyExtract, core.StrategyAPCM}
	if packetBytes == 0 {
		strategies = nil
	}
	for i, s := range strategies {
		res, err := pipeline.RunUplink(pipeline.DefaultConfig(simd.W512, s, transport.UDP, packetBytes))
		if err != nil {
			return err
		}
		if !res.CRCOK || !res.PayloadOK {
			return fmt.Errorf("probe: uplink packet (%v) did not survive: crc %v payload %v", s, res.CRCOK, res.PayloadOK)
		}
		us[i], arrange[i], cycles = res.TotalUs, res.StageUs("arrangement"), res.Total.Cycles
	}
	wall := 0.0
	if packetBytes != 0 {
		wall = time.Since(start).Seconds()
	}
	pr.add("uarch.uplink_us_original", "sim_us", us[0], fmt.Sprintf("simulated, W512 UDP %d B", packetBytes))
	pr.add("uarch.uplink_us_apcm", "sim_us", us[1], "simulated")
	pr.add("uarch.arrange_us_original", "sim_us", arrange[0], "simulated arrangement stage")
	pr.add("uarch.arrange_us_apcm", "sim_us", arrange[1], "simulated arrangement stage")
	pr.add("uarch.uplink_cycles_apcm", "cycles", float64(cycles), "simulated")
	pr.add("simd.sim_wall_s", "s", wall, "wall time of the two simulated packets")
	return nil
}
