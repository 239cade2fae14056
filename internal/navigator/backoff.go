package navigator

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/naplet"
	"repro/internal/overload"
)

// Backoff is the migration retry policy: the delay doubles from Initial up
// to Max, over a budget of Retries re-attempts. The zero value selects the
// defaults below.
type Backoff struct {
	// Initial is the delay before the first retry (default 25ms).
	Initial time.Duration
	// Max caps the grown delay (default 2s).
	Max time.Duration
	// Retries is the retry budget beyond the first attempt; 0 means no
	// retries (negative values are treated as 0).
	Retries int
	// FailFast consults the navigator's failure detector before spending
	// the budget: a dispatch against a peer presumed dead returns
	// ErrPeerDead after at most one probe attempt. Callers set it only
	// when they have a failover strategy for the dead destination —
	// without one, the full budget is the better bet against a peer that
	// may merely be partitioned.
	FailFast bool
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
	if b.Retries < 0 {
		b.Retries = 0
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

// IsPermanent reports whether a dispatch error is a policy decision that
// must not be retried: the destination's refusal is authoritative, and
// retrying it only burns the budget (and an hour-long backoff).
func IsPermanent(err error) bool {
	return errors.Is(err, ErrLandingDenied) ||
		errors.Is(err, ErrLaunchDenied) ||
		errors.Is(err, ErrRejected)
}

// ErrPeerDead is returned by DispatchRetry when the failure detector
// presumes the destination dead: either the peer was already dead and this
// caller lost the per-interval probe slot (no network attempt was made), or
// the attempts made here pushed it over the dead threshold. Callers should
// apply their failover policy instead of retrying.
var ErrPeerDead = errors.New("navigator: destination presumed dead")

// DispatchRetry migrates rec to dest under the given retry policy: one
// transfer ID for the whole logical migration (so the destination
// deduplicates replays after a lost acknowledgement), doubling backoff
// between attempts, and fail-fast on permanent (policy) errors. stop
// aborts the backoff wait early (a closing server); ctx bounds the whole
// operation, and each attempt is additionally bounded by twice the
// navigator's call timeout. Retries and backoff sleeps feed the
// naplet_navigator_dispatch_retries_total counter and the
// naplet_navigator_backoff_seconds histogram.
func (n *Navigator) DispatchRetry(ctx context.Context, rec *naplet.Record, dest string, pol Backoff, stop <-chan struct{}) (Breakdown, error) {
	return n.DispatchRetryID(ctx, rec, dest, n.NewTransferID(), pol, stop)
}

// DispatchRetryID is DispatchRetry with a caller-supplied transfer ID.
// Crash recovery uses it to replay an interrupted migration under the
// original ID, so a destination that already landed the naplet re-acks via
// its dedup window instead of landing a duplicate.
//
// When the navigator carries a failure detector and the policy opts in
// with FailFast, a dispatch that starts against a peer presumed dead fails
// fast instead of burning the backoff budget: at most one probe attempt
// per probe interval reaches the network, and every other caller returns
// ErrPeerDead without touching it. A dispatch that starts against a live
// peer keeps its full retry budget — the detector learns from its
// failures but does not cut it short, so transient loss and heal-in-time
// partitions still ride through.
func (n *Navigator) DispatchRetryID(ctx context.Context, rec *naplet.Record, dest string, tid string, pol Backoff, stop <-chan struct{}) (Breakdown, error) {
	pol = pol.withDefaults()
	hd := n.cfg.Health
	probing := false
	if pol.FailFast && hd.Dead(dest) {
		if !hd.Allow(dest) {
			return Breakdown{}, ErrPeerDead
		}
		probing = true
	}
	// The retry budget charges the whole logical migration once and each
	// retry against the earned balance.
	n.cfg.RetryBudget.RecordAttempt()
	var bd Breakdown
	var err error
	// unresolved tracks whether any attempt so far may have silently
	// landed the naplet (its transfer was sent but never acknowledged).
	// Attempts run strictly one after another, so a later definitive
	// transfer reply speaks for every earlier attempt of the same ID: an
	// acceptance is the landing we feared (success), and a rejection
	// proves nothing landed — had a replay landed, the destination's
	// dedup window would have re-acknowledged it instead of rejecting.
	// Any failure returned while unresolved carries ErrTransferUnresolved
	// so the caller's failover logic knows not to fork the naplet.
	unresolved := false
	mark := func(err error) error {
		if unresolved && !errors.Is(err, ErrTransferUnresolved) {
			return fmt.Errorf("%w: %w", ErrTransferUnresolved, err)
		}
		return err
	}
	for attempt := 0; ; attempt++ {
		bd, err = n.DispatchID(ctx, rec, dest, tid)
		if err == nil {
			hd.ReportSuccess(dest)
			return bd, nil
		}
		if errors.Is(err, ErrTransferUnresolved) {
			unresolved = true
		} else if errors.Is(err, ErrRejected) {
			unresolved = false
		}
		if IsPermanent(err) {
			// The peer answered — its refusal proves it is alive.
			hd.ReportSuccess(dest)
			return bd, mark(err)
		}
		if overload.Liveness(err) {
			// An overload or deadline shed is an answer the peer sent:
			// proof of life, not of death. Feed the detector success and
			// keep retrying under backoff — the backoff itself is the
			// load-shedding response.
			hd.ReportSuccess(dest)
			probing = false
		} else {
			hd.ReportFailure(dest)
			if probing {
				// The one probe this interval allowed just failed: the
				// peer stays presumed dead and this dispatch ends here.
				return bd, mark(fmt.Errorf("%w: %v", ErrPeerDead, err))
			}
		}
		if attempt >= pol.Retries {
			return bd, mark(err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return bd, mark(err)
		}
		if !n.cfg.RetryBudget.AllowRetry() {
			// The token bucket ran dry: retrying further would amplify
			// the very overload the peer is shedding.
			return bd, mark(fmt.Errorf("%w: %w", overload.ErrRetryBudgetExhausted, err))
		}
		delay := pol.Delay(attempt)
		n.met.retries.Inc()
		n.met.backoff.ObserveDuration(delay)
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return bd, mark(err)
		case <-ctx.Done():
			t.Stop()
			return bd, mark(err)
		}
	}
}
