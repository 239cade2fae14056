package navigator

import (
	"fmt"
	"testing"
	"time"
)

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	pol := Backoff{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{0, 10 * time.Millisecond},
		{1, 20 * time.Millisecond},
		{2, 40 * time.Millisecond},
		{3, 80 * time.Millisecond}, // reaches the cap
		{4, 80 * time.Millisecond}, // stays at the cap
		{10, 80 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("attempt%d", tc.attempt), func(t *testing.T) {
			if got := pol.Delay(tc.attempt); got != tc.want {
				t.Fatalf("Delay(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
		})
	}
}

func TestBackoffDefaults(t *testing.T) {
	var pol Backoff
	if got := pol.Delay(0); got != DefaultBackoffInitial {
		t.Fatalf("zero-value Delay(0) = %v, want %v", got, DefaultBackoffInitial)
	}
	if got := pol.Delay(20); got != DefaultBackoffMax {
		t.Fatalf("zero-value Delay(20) = %v, want the %v cap", got, DefaultBackoffMax)
	}
	// A Max below Initial is lifted to Initial, never inverted.
	inverted := Backoff{Initial: time.Second, Max: time.Millisecond}
	if got := inverted.Delay(5); got != time.Second {
		t.Fatalf("inverted Max: Delay = %v, want %v", got, time.Second)
	}
}

func TestIsPermanent(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"landing-denied", fmt.Errorf("wrap: %w", ErrLandingDenied), true},
		{"launch-denied", fmt.Errorf("wrap: %w", ErrLaunchDenied), true},
		{"rejected", fmt.Errorf("wrap: %w", ErrRejected), true},
		{"transient", fmt.Errorf("connection refused"), false},
		{"nil", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsPermanent(tc.err); got != tc.want {
				t.Fatalf("IsPermanent = %v, want %v", got, tc.want)
			}
		})
	}
}
