// Machine-readable steady-state decode benchmark: the harness behind
// cmd/vranbench -decodejson and the committed BENCH_decode.json. It
// drives testing.Benchmark over the serving decode path — packed
// (compiled replay), interpreted (the same stream with the interpreter
// pinned) and, on a host with the native kernel, portable (the same
// compiled program run by the Go executor) — for every width × a spread of K, reporting
// ns/op, B/op, allocs/op and emulated goodput per row. The
// interpreted/packed pairs are the replay compiler's speedup evidence
// and the portable/packed pairs the native kernel's (CI gates both
// ratios at W512 K=512). Two more rows per (width, K) time first
// decodes, not benchmarks: "cold", the first decode of the block size in
// the process, which compiles its program, and "adopt", the first decode
// of it on a fresh decoder, which finds the program in the process-wide
// cache and builds only its own state — the cost a second worker or a
// worker after an eviction pays (CI gates adopt <= cold / 5). At W512 an
// "extract" row beside each packed one runs the paper's original
// arrangement the same way, and both time hot Runs of each program
// segment: the prefix (the arrangement stage, once a decode) and one
// iteration, each as a median with its quartile spread.
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"vransim/internal/core"
	"vransim/internal/simd"
	"vransim/internal/simd/program"
	"vransim/internal/turbo"
)

// benchFlagsOnce registers the testing package's flags exactly once so
// testing.Benchmark honours -test.benchtime in a non-test binary
// (vranbench). Safe in test binaries too: Init is idempotent there and
// Set works after Parse.
var benchFlagsOnce sync.Once

func flagSet(name, value string) error {
	benchFlagsOnce.Do(func() {
		if flag.Lookup("test.benchtime") == nil {
			testing.Init()
		}
	})
	return flag.Set(name, value)
}

// DecodeBenchRow is one (mode, width, K) measurement.
type DecodeBenchRow struct {
	// Mode is "packed" (the serving path: the cross-block SoA stream
	// replayed as one compiled program per iteration), "interpreted"
	// (the same stream with the interpreter pinned via Compile=false) or
	// "portable" ("packed" with the program's streams run by the Go
	// executor; only on a host that has the native one), "extract" (W512
	// only: "packed" under the paper's original arrangement, pextrw
	// stores, in place of APCM); or one of the first-decode rows, whose
	// NsPerOp is a first decode's wall-clock time and whose bytes and
	// allocs are what it left allocated. "cold" is the process's first
	// decode of this width and K (plan build, compile, state, decode;
	// absent when something earlier in the process had compiled it): it
	// happens once a process, so it is one sample and Iterations is 1.
	// "adopt" is a fresh decoder's first decode (state and decode), the
	// median of adoptSamples decoders with NsPerOpIQR beside it, and
	// Iterations is adoptSamples.
	Mode     string  `json:"mode"`
	Width    string  `json:"width"`
	K        int     `json:"k"`
	Lanes    int     `json:"lanes"` // blocks per decode
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"bytes_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	// GoodputMbps is decoded information bits over wall-clock time
	// (emulated decode — the number compares modes, not hardware).
	GoodputMbps float64 `json:"goodput_mbps"`
	Iterations  int     `json:"benchmark_iterations"`
	// NsPerOpIQR is the spread between the first and third quartiles of
	// the adopt row's samples; the other rows have none.
	NsPerOpIQR float64 `json:"ns_per_op_iqr,omitempty"`
	// PrefixNs and IterationNs are a hot Run of the row's program
	// segments: SegFirst, the prefix a decode runs once (arrangement,
	// systematic interleave, la1 clear), and SegSteady, one iteration —
	// each the median of segmentSamples timings (timeSegment), with the
	// spread between their first and third quartiles beside it. W512
	// packed and extract rows only.
	PrefixNs       float64 `json:"prefix_ns,omitempty"`
	PrefixNsIQR    float64 `json:"prefix_ns_iqr,omitempty"`
	IterationNs    float64 `json:"iteration_ns,omitempty"`
	IterationNsIQR float64 `json:"iteration_ns_iqr,omitempty"`
}

// DecodeBenchReport is the BENCH_decode.json shape.
type DecodeBenchReport struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS say which host the rows came from: the
	// decode itself is single-goroutine, but a one-core host shares that
	// core with the GC and the benchmark harness.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Kernel is program.Kernel() on this host: what every compiled row
	// but "portable" replayed the packed trellis ops with.
	Kernel    string `json:"kernel"`
	MaxIters  int    `json:"turbo_max_iters"`
	BenchTime string `json:"bench_time"`
	// PrecompileLTEMs is what compiling the program of every LTE block size
	// at W512/APCM costs this host on one core: turbo.Precompile of all 188
	// under GOMAXPROCS 1, after the rows, plus what the W512 cold rows'
	// compiles of the sizes they had cached took. The full report only.
	PrecompileLTEMs float64          `json:"precompile_lte_ms,omitempty"`
	Rows            []DecodeBenchRow `json:"rows"`
}

// decodeBenchKs is the block-size spread of the JSON artifact: the
// smallest LTE size, the small-K band where cross-block packing pays
// (104, 208, 512), a mid size and the largest.
var decodeBenchKs = []int{40, 104, 208, 512, 2048, 6144}

const decodeBenchIters = 4

// benchWords builds nb noiseless full-amplitude words for code c.
func benchWords(c *turbo.Code, nb int, seed int64) ([]*turbo.LLRWord, error) {
	rng := rand.New(rand.NewSource(seed))
	words := make([]*turbo.LLRWord, nb)
	for b := 0; b < nb; b++ {
		bits := make([]byte, c.K)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		cw, err := c.Encode(bits)
		if err != nil {
			return nil, err
		}
		w := turbo.NewLLRWord(c.K)
		w.FromHard(cw, 32)
		words[b] = w
	}
	return words, nil
}

// RunDecodeBench measures every (mode, width, K) cell. quick shrinks
// the K spread and the per-cell bench time for CI.
func RunDecodeBench(quick bool) (*DecodeBenchReport, error) {
	ks := decodeBenchKs
	benchtime := "200ms"
	if quick {
		ks = []int{104, 512}
		benchtime = "50ms"
	}
	rep := &DecodeBenchReport{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     program.Kernel(),
		MaxIters:   decodeBenchIters,
		BenchTime:  benchtime,
	}
	if err := flagSet("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	// "portable" is "packed" on the Go executor; on a host whose only
	// executor that is, it would repeat the packed row.
	modes := []string{"packed", "interpreted"}
	if rep.Kernel != "go" {
		modes = append(modes, "portable")
	}
	var cached time.Duration // W512 compiles the cold rows made
	for _, w := range []simd.Width{simd.W128, simd.W256, simd.W512} {
		for _, k := range ks {
			c, err := turbo.NewCode(k)
			if err != nil {
				return nil, err
			}
			words, err := benchWords(c, turbo.BlocksPerRegister(w), 7)
			if err != nil {
				return nil, err
			}
			first, compileTime, err := runFirstDecodes(w, k, words)
			if err != nil {
				return nil, err
			}
			if w == simd.W512 {
				cached += compileTime
			}
			rep.Rows = append(rep.Rows, first...)
			cells := modes
			if w == simd.W512 {
				cells = append(cells[:len(cells):len(cells)], "extract")
			}
			for _, mode := range cells {
				row, err := runDecodeCell(mode, w, k, words)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	if !quick {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		start := time.Now()
		if err := turbo.Precompile(simd.W512, core.StrategyAPCM, turbo.BlockSizes...); err != nil {
			return nil, err
		}
		rep.PrecompileLTEMs = float64(time.Since(start)+cached) / 1e6
	}
	return rep, nil
}

// adoptSamples is how many fresh decoders the "adopt" row is the median
// of: one first decode is one reading of a shared host's clock, and two
// such readings of the same build can lie several times apart.
const adoptSamples = 9

// firstDecode is one timed first decode of (w, k) on a fresh decoder.
type firstDecode struct {
	ns, bytes, allocs float64
	compiled          bool // the decode compiled the program for the process
	compileTime       time.Duration
}

func timeFirstDecode(w simd.Width, k int, words []*turbo.LLRWord) (firstDecode, error) {
	bd := turbo.NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
	bd.MaxIters = decodeBenchIters
	compiles := turbo.PlanCacheStats().Compiles
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	_, _, err := bd.Decode(k, words)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return firstDecode{
		ns:          float64(elapsed.Nanoseconds()),
		bytes:       float64(m1.TotalAlloc - m0.TotalAlloc),
		allocs:      float64(m1.Mallocs - m0.Mallocs),
		compiled:    turbo.PlanCacheStats().Compiles != compiles,
		compileTime: bd.ProgramStats().CompileTime,
	}, err
}

// runFirstDecodes times the first decode of (w, k) on fresh decoders: the
// "cold" row, one decoder, if it compiled the program for the process,
// and the "adopt" row, the median of adoptSamples more, none of which may
// compile. It also reports what that compile took (zero when there was
// none).
func runFirstDecodes(w simd.Width, k int, words []*turbo.LLRWord) (rows []DecodeBenchRow, compileTime time.Duration, err error) {
	nb := len(words)
	row := func(mode string, ns, iqr, bytes, allocs float64, n int) DecodeBenchRow {
		return DecodeBenchRow{
			Mode: mode, Width: w.String(), K: k, Lanes: nb,
			NsPerOp: ns, NsPerOpIQR: iqr,
			BPerOp: int64(bytes), AllocsOp: int64(allocs),
			GoodputMbps: float64(k*nb) / (ns / 1e3),
			Iterations:  n,
		}
	}
	cold, err := timeFirstDecode(w, k, words)
	if err != nil {
		return nil, 0, err
	}
	if cold.compiled { // else compiled earlier in this process: not a cold start
		rows = append(rows, row("cold", cold.ns, 0, cold.bytes, cold.allocs, 1))
		compileTime = cold.compileTime
	}
	var ns, bytes, allocs [adoptSamples]float64
	for i := range ns {
		d, err := timeFirstDecode(w, k, words)
		if err != nil {
			return nil, 0, err
		}
		if d.compiled {
			return nil, 0, fmt.Errorf("bench: a second decoder compiled K=%d at %v again", k, w)
		}
		ns[i], bytes[i], allocs[i] = d.ns, d.bytes, d.allocs
	}
	med, iqr := medianIQR(ns[:])
	b, _ := medianIQR(bytes[:])
	a, _ := medianIQR(allocs[:])
	return append(rows, row("adopt", med, iqr, b, a, adoptSamples)), compileTime, nil
}

// runDecodeCell benchmarks one (mode, width, K) combination over a full
// batch of words.
func runDecodeCell(mode string, w simd.Width, k int, words []*turbo.LLRWord) (DecodeBenchRow, error) {
	nb := len(words)
	if mode == "portable" {
		defer program.UseNativeKernel(program.UseNativeKernel(false))
	}
	s := core.StrategyAPCM
	if mode == "extract" {
		s = core.StrategyExtract
	}
	bd := turbo.NewBatchDecoder(w, s, 32<<20)
	bd.MaxIters = decodeBenchIters
	bd.Compile = mode != "interpreted"
	// Two warm-ups: the state build, then a decode over the built state;
	// the measured loop starts on the hot path.
	for i := 0; i < 2; i++ {
		if _, _, err := bd.Decode(k, words); err != nil {
			return DecodeBenchRow{}, err
		}
	}
	if bd.Compile && bd.ProgramStats().CompiledPlans == 0 {
		return DecodeBenchRow{}, fmt.Errorf("bench: warm-up did not compile a program for K=%d at %v", k, w)
	}
	var inner error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := bd.Decode(k, words); err != nil {
				inner = err
				b.Fatal(err)
			}
		}
	})
	if inner != nil {
		return DecodeBenchRow{}, inner
	}
	row := DecodeBenchRow{
		Mode: mode, Width: w.String(), K: k, Lanes: nb,
		NsPerOp:    float64(res.T.Nanoseconds()) / float64(res.N),
		BPerOp:     res.AllocedBytesPerOp(),
		AllocsOp:   res.AllocsPerOp(),
		Iterations: res.N,
	}
	if row.NsPerOp > 0 {
		// Mb of decoded information bits per second of wall-clock.
		row.GoodputMbps = float64(k*nb) / (row.NsPerOp / 1e3)
	}
	if (mode == "packed" || mode == "extract") && w == simd.W512 {
		prog := bd.PlanProgram(k)
		row.PrefixNs, row.PrefixNsIQR = timeSegment(prog, program.SegFirst)
		row.IterationNs, row.IterationNsIQR = timeSegment(prog, program.SegSteady)
	}
	return row, nil
}

// segmentSamples is how many timings a segment's time is the median of.
// One timing of one process reads 10-20 % apart from the next process's
// on a shared host; the quartile spread says how far the samples of this
// one were.
const segmentSamples = 21

// timeSegment times hot Runs of segment seg of prog over a region of its
// own and returns the median of segmentSamples samples and the spread
// between their first and third quartiles. A sample is the mean Run of a
// batch that lasts at least 0.1 ms, so the clock's granularity is no part
// of it. A segment does the same work whatever its region holds, so the
// region is left as it is.
func timeSegment(prog *program.Program, seg int) (median, iqr float64) {
	x := prog.NewExec(simd.NewMemory(int(prog.Extent())+1), 0)
	batch := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			prog.Run(x, seg)
		}
		return time.Since(start)
	}
	n := 1
	for batch(n) < 100*time.Microsecond {
		n *= 2
	}
	samples := make([]float64, segmentSamples)
	for i := range samples {
		samples[i] = float64(batch(n).Nanoseconds()) / float64(n)
	}
	return medianIQR(samples)
}

// medianIQR sorts samples and returns their median and the spread
// between their first and third quartiles.
func medianIQR(samples []float64) (median, iqr float64) {
	slices.Sort(samples)
	at := func(q float64) float64 { return samples[int(q*float64(len(samples)-1))] }
	return at(0.5), at(0.75) - at(0.25)
}

// WriteDecodeBenchJSON runs the decode benchmark and writes the report.
func WriteDecodeBenchJSON(w io.Writer, quick bool) error {
	rep, err := RunDecodeBench(quick)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func init() {
	register(Experiment{
		ID:    "decode-alloc",
		Title: "Steady-state decode: compiled replay vs interpreter, per kernel (ns/op, allocs/op)",
		Run: func(w io.Writer, o Options) error {
			rep, err := RunDecodeBench(o.Quick)
			if err != nil {
				return err
			}
			t := newTable("mode", "width", "K", "ns/op", "B/op", "allocs/op", "goodput Mb/s")
			for _, r := range rep.Rows {
				t.addf("%s|%s|%d|%.0f|%d|%d|%.2f",
					r.Mode, r.Width, r.K, r.NsPerOp, r.BPerOp, r.AllocsOp, r.GoodputMbps)
			}
			t.write(w)
			return nil
		},
	})
}
