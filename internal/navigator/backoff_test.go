package navigator

import (
	"fmt"
	"testing"
)

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
