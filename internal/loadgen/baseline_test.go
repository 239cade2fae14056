package loadgen

import (
	"strings"
	"testing"
)

func TestRegressedToleranceMath(t *testing.T) {
	cases := []struct {
		name          string
		got, base     float64
		tol           float64
		higherIsWorse bool
		want          bool
	}{
		{"exactly-at-limit-passes", 110, 100, 0.10, true, false},
		{"just-over-limit-fails", 110.01, 100, 0.10, true, true},
		{"improvement-passes", 50, 100, 0.10, true, false},
		{"zero-base-zero-got", 0, 0, 0.10, true, false},
		{"zero-base-any-alloc-fails", 1, 0, 0.10, true, true},
		{"lower-worse-at-limit-passes", 90, 100, 0.10, false, false},
		{"lower-worse-below-limit-fails", 89.99, 100, 0.10, false, true},
		{"lower-worse-improvement-passes", 200, 100, 0.10, false, false},
		{"lower-worse-zero-base-passes", 0, 0, 0.10, false, false},
		{"tight-tolerance", 101, 100, 0.005, true, true},
	}
	for _, tc := range cases {
		if got := regressed(tc.got, tc.base, tc.tol, tc.higherIsWorse); got != tc.want {
			t.Errorf("%s: regressed(%v, %v, %v, %v) = %v, want %v",
				tc.name, tc.got, tc.base, tc.tol, tc.higherIsWorse, got, tc.want)
		}
	}
}

func TestCompareValues(t *testing.T) {
	baseline := []Value{
		{Name: "bytes_cnmp", Value: 1000, HigherIsWorse: true, Gate: true},
		{Name: "byte_ratio", Value: 8.0, HigherIsWorse: false, Gate: true},
		{Name: "hop_p99_ms", Value: 3.0, HigherIsWorse: true}, // ungated context
	}

	t.Run("within-tolerance-passes", func(t *testing.T) {
		got := map[string]float64{"bytes_cnmp": 1050, "byte_ratio": 7.5}
		if f := compareValues(baseline, got); len(f) != 0 {
			t.Fatalf("unexpected failures: %v", f)
		}
	})
	t.Run("byte-growth-fails", func(t *testing.T) {
		got := map[string]float64{"bytes_cnmp": 1200, "byte_ratio": 8.0}
		f := compareValues(baseline, got)
		if len(f) != 1 || !strings.Contains(f[0], "bytes_cnmp") {
			t.Fatalf("failures = %v", f)
		}
	})
	t.Run("ratio-shrink-fails", func(t *testing.T) {
		got := map[string]float64{"bytes_cnmp": 1000, "byte_ratio": 5.0}
		f := compareValues(baseline, got)
		if len(f) != 1 || !strings.Contains(f[0], "byte_ratio") {
			t.Fatalf("failures = %v", f)
		}
	})
	t.Run("gated-key-missing-from-run-fails", func(t *testing.T) {
		got := map[string]float64{"byte_ratio": 8.0}
		f := compareValues(baseline, got)
		if len(f) != 1 || !strings.Contains(f[0], "missing from this run") {
			t.Fatalf("failures = %v", f)
		}
	})
	t.Run("ungated-key-drift-ignored", func(t *testing.T) {
		got := map[string]float64{"bytes_cnmp": 1000, "byte_ratio": 8.0, "hop_p99_ms": 300}
		if f := compareValues(baseline, got); len(f) != 0 {
			t.Fatalf("ungated value should not gate: %v", f)
		}
	})
}
