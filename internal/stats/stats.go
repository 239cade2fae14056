// Package stats provides small numeric and formatting helpers: summary
// statistics over samples (telemetry's histogram summaries, loadgen's SLO
// table) and the fixed-width tables that napletctl, loadgen, the examples
// and the experiment tests print.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary holds order statistics over a sample set.
type Summary struct {
	N            int
	Mean, Stddev float64
	Min, P50     float64
	P95, P99     float64
	Max          float64
}

// QuantileOf returns the summary's precomputed value for q. Only the
// retained quantiles (0, 0.5, 0.95, 0.99, 1) are available; q picks the
// nearest of those, so SLO definitions stay honest about what was kept.
func (s Summary) QuantileOf(q float64) float64 {
	switch {
	case q <= 0.25:
		return s.Min
	case q <= 0.725:
		return s.P50
	case q <= 0.97:
		return s.P95
	case q <= 0.995:
		return s.P99
	default:
		return s.Max
	}
}

// Summarize computes a Summary; an empty input yields the zero Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum, sq float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	for _, v := range s {
		sq += (v - mean) * (v - mean)
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		Stddev: math.Sqrt(sq / float64(len(s))),
		Min:    s[0],
		P50:    Quantile(s, 0.50),
		P95:    Quantile(s, 0.95),
		P99:    Quantile(s, 0.99),
		Max:    s[len(s)-1],
	}
}

// Quantile interpolates the q-quantile of sorted samples.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Durations converts a duration slice to float seconds for Summarize.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Bytes renders a byte count in human units (KiB/MiB with one decimal).
func Bytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Table renders aligned fixed-width rows. Build it with a header, add rows,
// and write it out.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b)
	return b.String()
}
