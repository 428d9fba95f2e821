package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"vransim/internal/fronthaul"
	"vransim/internal/ran"
)

func TestScheduleAndPoolsFollowSeed(t *testing.T) {
	classes := workloads[2].classes().Classes
	span, stratum := 2*time.Second, 500*time.Millisecond
	a, b := buildSchedule(7, span, stratum, classes), buildSchedule(7, span, stratum, classes)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d and %d arrivals)", len(a), len(b))
	}
	if c := buildSchedule(8, span, stratum, classes); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	want := int((urllcBlocksPerSec + embbBlocksPerSec) * span.Seconds())
	if len(a) != want {
		t.Fatalf("schedule offers %d blocks in %v, want %d", len(a), span, want)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}

	p1, err := buildPools(7)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := buildPools(7)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := buildPools(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed gave different pools")
	}
	if reflect.DeepEqual(p1.hi[512].words[0], p3.hi[512].words[0]) {
		t.Fatal("seeds 7 and 8 gave the same first K=512 word")
	}
}

func TestPercentileAndSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// Disturbed sub-windows move the maximum and, once they are half of
	// the run, the median; the third best stays with the quiet ones.
	if got, want := spreadOf([]float64{24, 230, 254, 310, 22, 25, 26}, false), (spread{thirdBest: 25, median: 26, min: 22, max: 310}); got != want {
		t.Errorf("spreadOf(lower is better) = %+v, want %+v", got, want)
	}
	if got, want := spreadOf([]float64{0.9, 0.7, 0.95, 0.2, 0.3}, true), (spread{thirdBest: 0.7, median: 0.7, min: 0.2, max: 0.95}); got != want {
		t.Errorf("spreadOf(higher is better) = %+v, want %+v", got, want)
	}
	if got := spreadOf([]float64{2, 1}, false).thirdBest; got != 2 {
		t.Errorf("third best of two = %g, want the worse of them, 2", got)
	}
	if got := spreadOf([]float64{4, 1, 3, 2}, false).median; got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := spreadOf([]float64{7}, true); got != (spread{7, 7, 7, 7}) {
		t.Errorf("spreadOf one value = %+v", got)
	}
	for _, c := range []struct {
		due  int64
		want int
	}{{99, -1}, {100, 0}, {119, 0}, {120, 1}, {199, 4}, {200, -1}} {
		if got := windowOf(c.due, 100, 20, 5); got != c.want {
			t.Errorf("windowOf(%d) = %d, want %d", c.due, got, c.want)
		}
	}
}

func TestNoisyPoolReplacesFailingWords(t *testing.T) {
	bd := newDecoder()
	// At this noise level some K=40 words do not decode to their payload
	// within the iteration budget; the pool must draw those again.
	p, err := buildPool(40, 64, 26, rand.New(rand.NewSource(1)), bd)
	if err != nil {
		t.Fatal(err)
	}
	if p.replaced == 0 {
		t.Fatal("no word was replaced: the noise level no longer exercises replacement")
	}
	all := make([]int, len(p.words))
	for i := range all {
		all[i] = i
	}
	bad, err := p.failing(bd, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("%d pool words still fail after replacement", len(bad))
	}
	// A corrupted word is found by the same check.
	for i := range p.words[3].Sys {
		p.words[3].Sys[i] = -p.words[3].Sys[i]
		p.words[3].P1[i] = -p.words[3].P1[i]
		p.words[3].P2[i] = -p.words[3].P2[i]
	}
	if bad, err = p.failing(bd, all); err != nil || !reflect.DeepEqual(bad, []int{3}) {
		t.Fatalf("failing after corrupting word 3 = %v, %v", bad, err)
	}
}

// The sequence number that matches a callback to its block rides in the
// frame header's UE field; it must come out of the wire format unchanged
// for every value a run can reach.
func TestSequenceSurvivesFronthaul(t *testing.T) {
	ps, err := buildPools(1)
	if err != nil {
		t.Fatal(err)
	}
	w := ps.hi[40].words[0]
	for _, seq := range []int{0, 1, 65535, 65536, maxClosedBlocksPerSec * 66} {
		wire := fronthaul.AppendFrame(nil, fronthaul.DataFrame(3, seq, seq%8, 40, w, uint64(blockDeadline)))
		f, err := fronthaul.DecodeFrame(wire[4:])
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.DataWord()
		if err != nil {
			t.Fatal(err)
		}
		if int(f.UE) != seq || int(f.Cell) != 3 || int(f.Proc) != seq%8 || !reflect.DeepEqual(got, w) {
			t.Fatalf("seq %d came back as cell %d ue %d proc %d", seq, f.Cell, f.UE, f.Proc)
		}
	}
}

// A callback with wrong bits, and a callback that matches no block, each
// fail the gate.
func TestGateCatchesWrongAndStrayCallbacks(t *testing.T) {
	ps, err := buildPools(1)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(ps, false, 4)
	rec.ev[0] = event{k: 40, word: 5}
	rec.onDecoded(&ran.Block{UE: 0, K: 40}, ps.hi[40].truth[5])
	if rec.mismatches.Load() != 0 || rec.strays.Load() != 0 || rec.callbacks.Load() != 1 {
		t.Fatal("a correct callback was not accepted")
	}
	rec.onDecoded(&ran.Block{UE: 0, K: 40}, ps.hi[40].truth[5]) // answered already
	rec.onDecoded(&ran.Block{UE: 9, K: 40}, ps.hi[40].truth[5]) // never offered
	if rec.strays.Load() != 2 {
		t.Fatalf("strays = %d, want 2", rec.strays.Load())
	}
	rec.ev[1] = event{k: 40, word: 6}
	rec.onDecoded(&ran.Block{UE: 1, K: 40}, ps.hi[40].truth[5])
	if rec.mismatches.Load() != 1 {
		t.Fatal("wrong bits were not caught")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests hold the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload BENCHMARK.json gives the driver is one of the program's,
// described the same way. fleet_paced is the program's alone: see
// CALIBRATION.md.
func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json names %d workloads", len(spec.Workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Error(err)
		} else if w.why != sw.Why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the program %q", sw.Name, sw.Why, w.why)
		}
	}
}

// Runs all four workloads end to end with -quick, untraced and traced,
// and checks what they print against BENCHMARK.json.
func TestQuickAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	spec := readSpec(t)
	var out bytes.Buffer
	o := options{all: true, seed: 3, quick: true, spanDir: t.TempDir()}
	if err := run(o, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	results := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		results++
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("result %d: %+v", results, r)
		}
		// Untraced and traced results alternate.
		want := spec.EndToEnd
		if results%2 == 0 {
			want = spec.PerLayer
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("result %d has %d metrics, BENCHMARK.json names %d", results, len(r.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("result %d: metric %s (%s) is missing or has unit %q", results, m.Name, m.Unit, got.Unit)
			}
			if results%2 == 1 && got.Value <= 0 {
				t.Errorf("result %d: end-to-end metric %s = %g", results, m.Name, got.Value)
			}
		}
	}
	if results != 2*len(workloads) {
		t.Fatalf("%d result lines, want %d\n%s", results, 2*len(workloads), out.String())
	}
	if !strings.Contains(out.String(), "NOT COMPARABLE") {
		t.Error("-quick output is not marked as non-comparable")
	}
}
