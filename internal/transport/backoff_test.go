package transport

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/overload"
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

// TestRetry pins the one retry loop: where it stops, what it charges the
// retry budget, what it returns, and the delays it reports to wait.
func TestRetry(t *testing.T) {
	errA, errB, errC := errors.New("a"), errors.New("b"), errors.New("c")
	quick := Backoff{Initial: time.Microsecond, Max: 4 * time.Microsecond, Retries: 4}
	long := Backoff{Initial: time.Hour, Retries: 4}
	// drained returns a budget holding tokens, after spending the rest
	// of a 3-token burst; each operation earns half a token.
	drained := func(tokens int) *overload.RetryBudget {
		rb := overload.NewRetryBudget(overload.RetryBudgetConfig{Ratio: 0.5, Burst: 3})
		for i := tokens; i < 3; i++ {
			rb.AllowRetry()
		}
		return rb
	}
	cases := []struct {
		name   string
		pol    Backoff
		budget *overload.RetryBudget
		tries  []error // each try's error; the last one repeats
		final  error   // an error try calls final
		// halt, when set, ends the loop from inside the wait: "ctx"
		// cancels the context, "stop" closes stop.
		halt       string
		wantTries  int
		wantWaits  []time.Duration
		wantErr    []error // errors.Is targets; none means success
		wantTokens float64
	}{
		{name: "success first", pol: quick, tries: []error{nil}, wantTries: 1},
		{name: "success after failures", pol: quick, tries: []error{errA, errB, nil},
			wantTries: 3, wantWaits: []time.Duration{time.Microsecond, 2 * time.Microsecond}},
		{name: "final verdict", pol: quick, tries: []error{errA, errB}, final: errB,
			wantTries: 2, wantWaits: []time.Duration{time.Microsecond}, wantErr: []error{errB}},
		{name: "retries spent", pol: quick, tries: []error{errA, errB, errC},
			wantTries: 5, wantWaits: []time.Duration{1 * time.Microsecond, 2 * time.Microsecond, 4 * time.Microsecond, 4 * time.Microsecond},
			wantErr: []error{errC}},
		{name: "no retries", pol: Backoff{}, tries: []error{errA}, wantTries: 1, wantErr: []error{errA}},
		{name: "ctx ends the wait", pol: long, tries: []error{errA, errB}, halt: "ctx",
			wantTries: 1, wantWaits: []time.Duration{time.Hour}, wantErr: []error{errA}},
		{name: "stop ends the wait", pol: long, tries: []error{errA, errB}, halt: "stop",
			wantTries: 1, wantWaits: []time.Duration{time.Hour}, wantErr: []error{errA}},
		{name: "budget pays retries", pol: quick, budget: drained(1), tries: []error{errA, nil},
			wantTries: 2, wantWaits: []time.Duration{time.Microsecond}, wantTokens: 0.5},
		{name: "budget exhaustion wraps the last error", pol: quick, budget: drained(1), tries: []error{errA, errB},
			wantTries: 2, wantWaits: []time.Duration{time.Microsecond},
			wantErr: []error{overload.ErrRetryBudgetExhausted, errB}, wantTokens: 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stop := make(chan struct{})
			tries := 0
			var waits []time.Duration
			err := tc.pol.Retry(ctx, tc.budget, stop, func(d time.Duration) {
				waits = append(waits, d)
				switch tc.halt {
				case "ctx":
					cancel()
				case "stop":
					close(stop)
				}
			}, func() (bool, error) {
				err := tc.tries[min(tries, len(tc.tries)-1)]
				tries++
				return err != nil && err == tc.final, err
			})
			if tries != tc.wantTries {
				t.Errorf("tries = %d, want %d", tries, tc.wantTries)
			}
			if !slices.Equal(waits, tc.wantWaits) {
				t.Errorf("waits = %v, want %v", waits, tc.wantWaits)
			}
			if len(tc.wantErr) == 0 && err != nil {
				t.Errorf("err = %v, want success", err)
			}
			for _, want := range tc.wantErr {
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want it to wrap %v", err, want)
				}
			}
			if tc.budget != nil {
				if got := tc.budget.Tokens(); got != tc.wantTokens {
					t.Errorf("tokens = %v, want %v", got, tc.wantTokens)
				}
			}
		})
	}
}
