package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4): enough of the format
// for histograms, counters, and gauges, written with no dependencies. The
// service-level exporter (hotprefetch.MetricsHandler) composes these
// writers with its own Stats-derived series.

// labelEscaper escapes a label value per the exposition format. It is built
// once: a Replacer builds its byte table on first use, and a scrape escapes
// every labeled sample.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// promEscape escapes a label value per the exposition format. A value with
// nothing to escape comes back as is, without allocating.
func promEscape(s string) string { return labelEscaper.Replace(s) }

// WriteCounter writes one counter sample, with optional label pairs given
// as alternating name, value strings.
func WriteCounter(w io.Writer, name, help string, value uint64, labels ...string) {
	writeHeader(w, name, help, "counter")
	writeSample(w, name, "", labels, fmt.Sprintf("%d", value))
}

// WriteGauge writes one gauge sample, with optional label pairs given as
// alternating name, value strings.
func WriteGauge(w io.Writer, name, help string, value float64, labels ...string) {
	writeHeader(w, name, help, "gauge")
	writeSample(w, name, "", labels, formatFloat(value))
}

// WriteCounterVec writes one counter family with a sample per label value:
// values maps the label's value to the sample. Samples are emitted in
// sorted label order so output is deterministic.
func WriteCounterVec(w io.Writer, name, help, label string, values map[string]uint64) {
	writeHeader(w, name, help, "counter")
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeSample(w, name, "", []string{label, k}, fmt.Sprintf("%d", values[k]))
	}
}

// WriteGaugeVec writes one gauge family with a sample per label value:
// values maps the label's value to the sample. Samples are emitted in
// sorted label order so output is deterministic.
func WriteGaugeVec(w io.Writer, name, help, label string, values map[string]float64) {
	writeHeader(w, name, help, "gauge")
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeSample(w, name, "", []string{label, k}, formatFloat(values[k]))
	}
}

// WritePrometheus writes h as a Prometheus histogram family: cumulative
// le-labeled buckets in the exported unit, then _sum and _count.
func (h *Histogram) WritePrometheus(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.upper) {
			le = formatFloat(float64(h.upper[i]) / h.perUnit)
		}
		writeSample(w, h.name, "_bucket", []string{"le", le}, fmt.Sprintf("%d", cum))
	}
	writeSample(w, h.name, "_sum", nil, formatFloat(float64(h.sum.Load())/h.perUnit))
	writeSample(w, h.name, "_count", nil, fmt.Sprintf("%d", h.count.Load()))
}

// WritePrometheus writes the observer's own series: the latency and ratio
// histograms and the per-kind phase event counters.
func (o *Observer) WritePrometheus(w io.Writer) {
	o.AnalysisLatency.WritePrometheus(w)
	o.IngestStall.WritePrometheus(w)
	o.FlushLatency.WritePrometheus(w)
	o.AccuracyWindow.WritePrometheus(w)
	o.CompressLatency.WritePrometheus(w)
	o.BurstDuty.WritePrometheus(w)
	o.PrepassCollapse.WritePrometheus(w)
	events := make(map[string]uint64, NumKinds)
	for k := Kind(1); k < kindCount; k++ {
		events[k.String()] = o.counts[k].Load()
	}
	WriteCounterVec(w, "hotprefetch_phase_events_total",
		"Structured phase events emitted, by kind.", "kind", events)
}

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// writeSample writes one sample line: name+suffix{labels} value.
func writeSample(w io.Writer, name, suffix string, labels []string, value string) {
	if len(labels) == 0 {
		fmt.Fprintf(w, "%s%s %s\n", name, suffix, value)
		return
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(suffix)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(promEscape(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	fmt.Fprintf(w, "%s %s\n", b.String(), value)
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// representation that round-trips, no exponent for typical magnitudes.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
