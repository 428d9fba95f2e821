package telemetry

import (
	"sync"
	"testing"
	"time"
)

func span(cell int, q, b, d time.Duration, outcome string) Span {
	sp := Span{Cell: cell, K: 40, Outcome: outcome}
	sp.Stages[SpanQueue] = q
	sp.Stages[SpanBatch] = b
	sp.Stages[SpanDecode] = d
	return sp
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(span(0, 1, 2, 3, "delivered"))
	if tr.SpanCount() != 0 || tr.Recent() != nil ||
		tr.Slowest(SpanQueue) != nil || tr.Summaries() != nil || tr.Families() != nil {
		t.Error("nil tracer must be inert")
	}
}

func TestTracerStageNames(t *testing.T) {
	want := []string{
		"route", "encode-wire", "park", "link", "ingest",
		"queue", "batch", "decode", "compile",
		"harq-retry", "drain", "install",
	}
	for i, n := range want {
		if Stage(i).Name() != n {
			t.Errorf("stage %d named %q, want %q", i, Stage(i).Name(), n)
		}
	}
	if Stage(99).Name() != "unknown" {
		t.Error("out-of-range stage should name as unknown")
	}
	if len(want) != int(NumStages) {
		t.Errorf("%d stage names, want %d", len(want), NumStages)
	}
}

func TestTracerRingAndSummaries(t *testing.T) {
	tr := NewTracer(4, 2)
	for i := 1; i <= 6; i++ {
		tr.Record(span(i, time.Duration(i)*time.Millisecond, time.Millisecond, 2*time.Millisecond, "delivered"))
	}
	if tr.SpanCount() != 6 {
		t.Errorf("span count %d, want 6", tr.SpanCount())
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	// Oldest-first: spans 3,4,5,6 survive.
	for i, sp := range recent {
		if sp.Cell != i+3 {
			t.Errorf("ring[%d].Cell = %d, want %d", i, sp.Cell, i+3)
		}
	}
	sums := tr.Summaries()
	if len(sums) != int(NumStages) {
		t.Fatalf("summaries %d, want %d", len(sums), NumStages)
	}
	if sums[SpanQueue].Count != 6 || sums[SpanDecode].Count != 6 {
		t.Error("summary counts wrong")
	}
	if sums[SpanQueue].Stage != StageQueue {
		t.Errorf("summary stage %q, want %q", sums[SpanQueue].Stage, StageQueue)
	}
	if sums[SpanQueue].P99 < sums[SpanQueue].P50 {
		t.Error("p99 < p50")
	}
	total := span(0, time.Millisecond, time.Millisecond, time.Millisecond, "x").Total()
	if total != 3*time.Millisecond {
		t.Errorf("span total %v, want 3ms", total)
	}
}

// TestTracerSlowestExemplars: the per-stage reservoir must keep exactly
// the slowest-N spans for that stage, slowest first.
func TestTracerSlowestExemplars(t *testing.T) {
	tr := NewTracer(16, 3)
	// Queue waits 1..8 ms in shuffled order.
	for _, ms := range []int{4, 1, 8, 3, 7, 2, 6, 5} {
		tr.Record(span(ms, time.Duration(ms)*time.Millisecond, 0, time.Millisecond, "delivered"))
	}
	slow := tr.Slowest(SpanQueue)
	if len(slow) != 3 {
		t.Fatalf("kept %d exemplars, want 3", len(slow))
	}
	for i, want := range []int{8, 7, 6} {
		if slow[i].Cell != want {
			t.Errorf("slowest[%d] is cell %d, want %d", i, slow[i].Cell, want)
		}
	}
	// Batch stage saw only zero dwell → no exemplars.
	if got := tr.Slowest(SpanBatch); len(got) != 0 {
		t.Errorf("batch stage kept %d exemplars of zero dwell", len(got))
	}
	if tr.Slowest(Stage(99)) != nil {
		t.Error("out-of-range stage should return nil")
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(span(g, time.Duration(i)*time.Microsecond, time.Microsecond, time.Microsecond, "delivered"))
				if i%50 == 0 {
					tr.Recent()
					tr.Summaries()
					tr.Slowest(SpanQueue)
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.SpanCount() != 4000 {
		t.Errorf("span count %d, want 4000", tr.SpanCount())
	}
	if len(tr.Recent()) != 64 {
		t.Errorf("ring %d, want 64", len(tr.Recent()))
	}
}
