// Command benchmark is the repository's one benchmark: four named
// workloads over the serving stack, end-to-end metrics a user of the
// stack would see, and under them a per-layer ledger measured from
// outside, by timing calls into each layer's public functions and by
// switching on the tracing the program ships. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// options are one invocation's arguments. The driver passes workload,
// seed, seconds and trace; the rest is for people.
type options struct {
	workload string
	all      bool
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	spanDir  string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve_sat, serve_sat_losnr, serve_paced or fleet_paced")
	flag.BoolVar(&o.all, "all", false, "run every workload in turn, untraced then traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the pools and the arrival schedule")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured span")
	flag.IntVar(&o.trace, "trace", 0, "0: tracing off, end-to-end metrics; 1: tracing on, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "5 s measured, one set-up, short probes; the output is not comparable")
	flag.StringVar(&o.spanDir, "spans", ".bench_build", "directory the traced pass writes its spans to")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	if o.quick {
		o.seconds = quickSeconds
		fmt.Fprintln(out, "# -quick: NOT COMPARABLE with a full run")
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	fmt.Fprintf(out, "# host: NumCPU %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if !o.all {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		_, err = runWorkload(w, o, o.trace == 1, out)
		return err
	}
	for _, w := range workloads {
		plain, err := runWorkload(w, o, false, out)
		if err != nil {
			return err
		}
		traced, err := runWorkload(w, o, true, out)
		if err != nil {
			return err
		}
		a, b := plain.Metrics["goodput_mbps"].Value, traced.Metrics["telemetry.traced_goodput_mbps"].Value
		fmt.Fprintf(out, "# %s telemetry.trace_overhead_pct %.3f %% (untraced %.6g, traced %.6g Mbps)\n", w.name, 100*(a-b)/a, a, b)
	}
	return nil
}

// runWorkload makes one pass over a workload, gates it on correctness,
// prints every metric by name with its unit, and ends with the result
// object on a line of its own.
func runWorkload(w workload, o options, traced bool, out io.Writer) (*result, error) {
	repeats, budget := setupRepeats, fullProbes
	if o.quick {
		repeats, budget = 1, quickProbes
	}
	if traced {
		repeats = 1 // setup_s is an end-to-end metric; the traced pass does not report it
	}
	if !w.paperPath {
		budget.packetBytes = 0
	}
	fmt.Fprintf(out, "# workload %s seed %d seconds %g trace %v\n", w.name, o.seed, o.seconds, traced)
	p, err := runPass(w, o.seed, o.seconds, traced, repeats)
	if err != nil {
		return nil, err
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	s := p.summarise()
	var metrics []metric
	if traced {
		pr, err := runProbes(p.rec.pools, budget)
		if err != nil {
			return nil, err
		}
		metrics = p.perLayer(s, pr)
		path, err := p.writeSpans(o.spanDir)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", path)
	} else {
		metrics = p.endToEnd(s)
		// The tail is shown but not bounded: on the paced pair it is the
		// decode time of the largest blocks on a mostly idle host, which
		// the calibration host moved by a quarter between runs.
		fmt.Fprintf(out, "# latency_p99_ms %.6g ms (%s); informational, see CALIBRATION.md\n", s.p99Ms.thirdBest, s.p99Ms.note())
	}
	res := &result{Correct: true, Attempted: s.attempted, Failed: s.attempted - s.verified, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		fmt.Fprintf(out, "%-34s %14.6g %-10s %s\n", m.name, m.value, m.unit, m.note)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}
