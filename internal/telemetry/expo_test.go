package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestWriteProm(t *testing.T) {
	fams := []Family{
		F("vran_up", "Uptime.", Gauge, 12.5),
		{Name: "vran_blocks_total", Help: "Blocks.", Type: Counter, Samples: []Sample{
			{Labels: []Label{L("cell", "0"), L("cause", "backlog")}, Value: 3},
			{Labels: []Label{L("cell", "1"), L("cause", `we"ird`)}, Value: 4},
		}},
		{Name: "vran_empty", Type: Gauge}, // no samples → omitted entirely
	}
	var sb strings.Builder
	if err := WriteProm(&sb, fams); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP vran_up Uptime.",
		"# TYPE vran_up gauge",
		"vran_up 12.5",
		"# TYPE vran_blocks_total counter",
		`vran_blocks_total{cell="0",cause="backlog"} 3`,
		`vran_blocks_total{cell="1",cause="we\"ird"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "vran_empty") {
		t.Error("family with no samples must not be rendered")
	}
	// Integer-valued floats render without a decimal point.
	if strings.Contains(out, "3.000") {
		t.Error("integer value rendered with decimals")
	}
}

func TestWritePromNaN(t *testing.T) {
	var sb strings.Builder
	if err := WriteProm(&sb, []Family{F("vran_x", "", Gauge, math.NaN())}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "vran_x 0") {
		t.Errorf("NaN should render as 0, got %q", sb.String())
	}
}

func TestWriteJSON(t *testing.T) {
	fams := []Family{
		{Name: "vran_drops_total", Help: "Drops.", Type: Counter, Samples: []Sample{
			{Labels: []Label{L("cause", "late")}, Value: 7},
		}},
	}
	var sb strings.Builder
	if err := WriteJSON(&sb, fams); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Name    string `json:"name"`
		Type    string `json:"type"`
		Samples []struct {
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
		} `json:"samples"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(got) != 1 || got[0].Name != "vran_drops_total" || got[0].Type != "counter" {
		t.Fatalf("unexpected families: %+v", got)
	}
	if got[0].Samples[0].Labels["cause"] != "late" || got[0].Samples[0].Value != 7 {
		t.Errorf("sample mangled: %+v", got[0].Samples[0])
	}
}

func TestTracerFamilies(t *testing.T) {
	tr := NewTracer(8, 2)
	sp := Span{Outcome: "delivered"}
	sp.Stages[SpanQueue] = 2 * time.Millisecond
	sp.Stages[SpanDecode] = time.Millisecond
	tr.Record(sp)
	fams := tr.Families()
	if len(fams) != 1 {
		t.Fatalf("tracer families %d, want 1", len(fams))
	}
	var sb strings.Builder
	if err := WriteProm(&sb, fams); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`vran_stage_latency_seconds{stage="queue",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
