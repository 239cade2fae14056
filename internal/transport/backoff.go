package transport

import (
	"context"
	"fmt"
	"time"

	"repro/internal/overload"
)

// Backoff is a retry policy: the delay doubles from Initial up to Max,
// over a budget of Retries re-attempts. The zero value selects the
// defaults below.
type Backoff struct {
	// Initial is the delay before the first retry (default 25ms).
	Initial time.Duration
	// Max caps the grown delay (default 2s).
	Max time.Duration
	// Retries is the retry budget beyond the first attempt; 0 means no
	// retries (negative values are treated as 0).
	Retries int
}

// Backoff defaults.
const (
	DefaultBackoffInitial = 25 * time.Millisecond
	DefaultBackoffMax     = 2 * time.Second
)

// withDefaults fills unset fields.
func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = DefaultBackoffInitial
	}
	if b.Max <= 0 {
		b.Max = DefaultBackoffMax
	}
	if b.Max < b.Initial {
		b.Max = b.Initial
	}
	return b
}

// Delay returns the backoff before retry number attempt (0-based: the
// delay between the first failure and the first retry is Delay(0)):
// min(Max, Initial*2^attempt).
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	d := b.Initial
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	return min(d, b.Max)
}

// Retry is the one retry loop. It runs try until try succeeds or calls its
// error final — the verdict is the caller's — or Retries are spent, and
// returns the last error. The operation earns budget once and each retry
// spends a token; a dry budget ends the loop with the last error wrapped
// in overload.ErrRetryBudgetExhausted. Between attempts it waits
// Delay(attempt), reported first to wait when non-nil, and gives up early
// when ctx ends or stop closes. A nil budget or stop never ends the loop.
func (b Backoff) Retry(ctx context.Context, budget *overload.RetryBudget, stop <-chan struct{},
	wait func(time.Duration), try func() (final bool, err error)) error {
	b = b.withDefaults()
	budget.RecordAttempt()
	for attempt := 0; ; attempt++ {
		final, err := try()
		if err == nil || final || attempt >= b.Retries || ctx.Err() != nil {
			return err
		}
		if !budget.AllowRetry() {
			// Retrying further would amplify the very overload the peer
			// is shedding.
			return fmt.Errorf("%w: %w", overload.ErrRetryBudgetExhausted, err)
		}
		delay := b.Delay(attempt)
		if wait != nil {
			wait(delay)
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return err
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}
