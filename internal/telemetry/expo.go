package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// MetricType distinguishes Prometheus metric kinds.
type MetricType int

// Supported kinds (summaries are rendered as gauges with a "quantile"
// label, the conventional client-side encoding).
const (
	Counter MetricType = iota
	Gauge
)

func (t MetricType) String() string {
	if t == Counter {
		return "counter"
	}
	return "gauge"
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// Sample is one time-series point of a family.
type Sample struct {
	Labels []Label
	Value  float64
}

// Family is one named metric with help text and samples. The exposition
// model is deliberately tiny — enough to render valid Prometheus text
// format and a JSON mirror without a third-party client library.
type Family struct {
	Name    string
	Help    string
	Type    MetricType
	Samples []Sample
}

// L is shorthand for building a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// F is shorthand for building a single-sample family.
func F(name, help string, t MetricType, v float64, labels ...Label) Family {
	return Family{Name: name, Help: help, Type: t,
		Samples: []Sample{{Labels: labels, Value: v}}}
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WriteProm renders the families in Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers followed by one line per
// sample. Families are rendered in the order given; samples likewise.
func WriteProm(w io.Writer, fams []Family) error {
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			v := s.Value
			if math.IsNaN(v) {
				v = 0
			}
			if len(s.Labels) == 0 {
				if _, err := fmt.Fprintf(w, "%s %s\n", f.Name, formatValue(v)); err != nil {
					return err
				}
				continue
			}
			parts := make([]string, len(s.Labels))
			for i, l := range s.Labels {
				parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
			}
			if _, err := fmt.Fprintf(w, "%s{%s} %s\n", f.Name, strings.Join(parts, ","), formatValue(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// jsonSample mirrors Sample with map labels for readable JSON.
type jsonSample struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// jsonFamily mirrors Family for the JSON exposition.
type jsonFamily struct {
	Name    string       `json:"name"`
	Help    string       `json:"help,omitempty"`
	Type    string       `json:"type"`
	Samples []jsonSample `json:"samples"`
}

// WriteJSON renders the same families as a JSON array, for consumers
// that prefer structure over scrape format.
func WriteJSON(w io.Writer, fams []Family) error {
	out := make([]jsonFamily, 0, len(fams))
	for _, f := range fams {
		jf := jsonFamily{Name: f.Name, Help: f.Help, Type: f.Type.String()}
		for _, s := range f.Samples {
			js := jsonSample{Value: s.Value}
			if len(s.Labels) > 0 {
				js.Labels = make(map[string]string, len(s.Labels))
				for _, l := range s.Labels {
					js.Labels[l.Name] = l.Value
				}
			}
			jf.Samples = append(jf.Samples, js)
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Families renders the tracer's per-stage aggregates as exposition
// families: latency quantile gauges per stage, in seconds (Prometheus
// base unit).
func (t *Tracer) Families() []Family {
	if t == nil {
		return nil
	}
	lat := Family{Name: "vran_stage_latency_seconds", Help: "Per-stage dwell time quantiles (queue wait, batch wait, decode).", Type: Gauge}
	for st := Stage(0); st < NumStages; st++ {
		h := &t.hists[st]
		name := st.Name()
		for _, q := range []struct {
			q float64
			s string
		}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}} {
			lat.Samples = append(lat.Samples, Sample{
				Labels: []Label{L("stage", name), L("quantile", q.s)},
				Value:  h.Percentile(q.q).Seconds(),
			})
		}
	}
	return []Family{lat}
}
