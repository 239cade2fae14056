package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestQuantileInterpolation pins the interpolation semantics the
// benchmark harness reports and telemetry's estimator tests compare
// against: position q·(n-1), linear between the neighbouring samples.
func TestQuantileInterpolation(t *testing.T) {
	uniform := make([]float64, 1000)
	for i := range uniform {
		uniform[i] = float64(i) // 0..999
	}
	for _, tc := range []struct {
		name    string
		sorted  []float64
		q, want float64
	}{
		{"pair p50", []float64{0, 10}, 0.50, 5},
		{"pair p95", []float64{0, 10}, 0.95, 9.5},
		{"singleton", []float64{7}, 0.95, 7},
		{"uniform p0", uniform, 0, 0},
		{"uniform p50", uniform, 0.50, 499.5},
		{"uniform p95", uniform, 0.95, 949.05},
		{"uniform p99", uniform, 0.99, 989.01},
		{"uniform max", uniform, 1, 999},
	} {
		if got := Quantile(tc.sorted, tc.q); math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		2048:      "2.0KiB",
		3 << 20:   "3.0MiB",
		1536:      "1.5KiB",
		1<<20 + 1: "1.0MiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("short", 1)
	tb.AddRow("a-much-longer-name", 2.5)
	tb.AddRow("dur", 1500*time.Microsecond)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator: %q", lines[1])
	}
	if !strings.Contains(out, "2.50") {
		t.Fatal("float formatting")
	}
	if !strings.Contains(out, "1.5ms") {
		t.Fatal("duration formatting")
	}
	// Columns align: "value" column starts at the same offset everywhere.
	col := strings.Index(lines[0], "value")
	if lines[2][col-1] != ' ' && lines[2][col] == ' ' {
		t.Fatalf("misaligned row: %q", lines[2])
	}
}
