// Machine-readable steady-state decode benchmark: the harness behind
// cmd/vranbench -decodejson and the committed BENCH_decode.json. It
// drives testing.Benchmark over the serving decode path — packed
// (compiled replay), interpreted (the same stream with the interpreter
// pinned) and, on a host with the native kernel, portable (compiled
// replay on the Go kernel) — for every width × a spread of K, reporting
// ns/op, B/op, allocs/op and emulated goodput per row. The
// interpreted/packed pairs are the replay compiler's speedup evidence
// and the portable/packed pairs the native kernel's (CI gates both
// ratios at W512 K=512). Two more rows per (width, K) are single decodes,
// not benchmarks: "cold", the first decode of the block size in the
// process, which compiles its program, and "adopt", the first decode of it
// on a second decoder, which finds the program in the process-wide cache
// and builds only its own state — the cost a second worker or a worker
// after an eviction pays (CI gates adopt <= cold / 5).
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"runtime"
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
	// "portable" ("packed" with the replay forced onto its Go kernel;
	// only on a host that has the native one); or one of the single-decode
	// rows, "cold" (the process's first decode of this width and K: plan
	// build, recording, compile, state, decode; absent when something
	// earlier in the process had compiled it) and "adopt" (a second
	// decoder's first: state and decode), whose NsPerOp is that one
	// decode's wall-clock time and whose bytes and allocs are what it left
	// allocated.
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
	Kernel    string           `json:"kernel"`
	MaxIters  int              `json:"turbo_max_iters"`
	BenchTime string           `json:"bench_time"`
	Rows      []DecodeBenchRow `json:"rows"`
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
	// "portable" is "packed" on the Go replay kernel; on a host whose only
	// kernel that is, it would repeat the packed row.
	modes := []string{"packed", "interpreted"}
	if rep.Kernel != "go" {
		modes = append(modes, "portable")
	}
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
			first, err := runFirstDecodes(w, k, words)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, first...)
			for _, mode := range modes {
				row, err := runDecodeCell(mode, w, k, words)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}

// runFirstDecodes times the first decode of (w, k) on two fresh decoders
// in turn: the "cold" row if the first one compiled the program for the
// process, and the "adopt" row.
func runFirstDecodes(w simd.Width, k int, words []*turbo.LLRWord) ([]DecodeBenchRow, error) {
	nb := len(words)
	var rows []DecodeBenchRow
	for _, mode := range []string{"cold", "adopt"} {
		bd := turbo.NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
		bd.MaxIters = decodeBenchIters
		compiles := turbo.PlanCacheStats().Compiles
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		_, _, err := bd.Decode(k, words)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		compiled := turbo.PlanCacheStats().Compiles != compiles
		if mode == "adopt" && compiled {
			return nil, fmt.Errorf("bench: a second decoder compiled K=%d at %v again", k, w)
		}
		if mode == "cold" && !compiled {
			continue // compiled earlier in this process: not a cold start
		}
		rows = append(rows, DecodeBenchRow{
			Mode: mode, Width: w.String(), K: k, Lanes: nb,
			NsPerOp:     float64(elapsed.Nanoseconds()),
			BPerOp:      int64(m1.TotalAlloc - m0.TotalAlloc),
			AllocsOp:    int64(m1.Mallocs - m0.Mallocs),
			GoodputMbps: float64(k*nb) / (float64(elapsed.Nanoseconds()) / 1e3),
			Iterations:  1,
		})
	}
	return rows, nil
}

// runDecodeCell benchmarks one (mode, width, K) combination over a full
// batch of words.
func runDecodeCell(mode string, w simd.Width, k int, words []*turbo.LLRWord) (DecodeBenchRow, error) {
	nb := len(words)
	if mode == "portable" {
		defer program.UseNativeKernel(program.UseNativeKernel(false))
	}
	bd := turbo.NewBatchDecoder(w, core.StrategyAPCM, 32<<20)
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
	return row, nil
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
