// Prometheus text-format exposition (version 0.0.4) for a Registry. The
// format is hand-rendered — the registry is dependency-free by design —
// and covers exactly the series types the registry supports.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in Prometheus text
// format, grouped by family with one HELP/TYPE header each, families in
// lexical order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, s := range r.snapshot() {
		if s.name != lastFamily {
			lastFamily = s.name
			if s.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, s.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, typeName(s.kind))
		}
		switch s.kind {
		case kindCounter:
			writeSample(&b, s.name, s.labels, "", float64(s.counter.Value()))
		case kindCounterFunc, kindGaugeFunc:
			writeSample(&b, s.name, s.labels, "", s.fn())
		case kindHistogram:
			writeHistogram(&b, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// typeName maps a metric kind to the exposition TYPE keyword.
func typeName(k metricKind) string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// writeSample emits one `name{labels} value` line. extra is an additional
// pre-rendered label (the histogram `le` bound) appended to the fixed set.
func writeSample(b *strings.Builder, name, labels, extra string, v float64) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// formatValue renders a sample value: integral values without an exponent,
// everything else in Go's shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram emits the cumulative _bucket series plus _sum and _count.
func writeHistogram(b *strings.Builder, s *series) {
	snap := s.hist.Snapshot()
	for i, bound := range snap.Bounds {
		le := `le="` + strconv.FormatFloat(bound, 'g', -1, 64) + `"`
		writeSample(b, s.name+"_bucket", s.labels, le, float64(snap.Cumulative[i]))
	}
	writeSample(b, s.name+"_bucket", s.labels, `le="+Inf"`, float64(snap.Count))
	writeSample(b, s.name+"_sum", s.labels, "", snap.Sum)
	writeSample(b, s.name+"_count", s.labels, "", float64(snap.Count))
}
