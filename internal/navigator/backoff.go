package navigator

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/naplet"
	"repro/internal/overload"
	"repro/internal/transport"
)

// IsPermanent reports whether a dispatch error is a policy decision that
// must not be retried: the destination's refusal is authoritative, and
// retrying it only burns the budget (and an hour-long backoff).
func IsPermanent(err error) bool {
	return errors.Is(err, ErrLandingDenied) ||
		errors.Is(err, ErrLaunchDenied) ||
		errors.Is(err, ErrRejected)
}

// ErrPeerDead is returned by Dispatch when the failure detector
// presumes the destination dead: either the peer was already dead and this
// caller lost the per-interval probe slot (no network attempt was made), or
// the attempts made here pushed it over the dead threshold. Callers should
// apply their failover policy instead of retrying.
var ErrPeerDead = errors.New("navigator: destination presumed dead")

// Dispatch migrates a resident naplet to dest, following the paper's
// protocol, under the given retry policy: one transfer ID, tid, for the
// whole logical migration (so the destination deduplicates replays after a
// lost acknowledgement), doubling backoff between attempts, and fail-fast
// on permanent (policy) errors; a zero transport.Backoff makes one attempt.
// Crash recovery passes the interrupted migration's original ID, so a
// destination that already landed the naplet re-acks via its dedup window
// instead of landing a duplicate. stop aborts the backoff wait early (a
// closing server); ctx bounds the whole operation, and each attempt is
// additionally bounded by twice the navigator's call timeout. Retries and
// backoff sleeps feed the naplet_navigator_dispatch_retries_total counter
// and the naplet_navigator_backoff_seconds histogram. On success the
// origin's manager has recorded the departure; the caller releases local
// resources (mailbox, monitor group). The returned Breakdown reports the
// last attempt's migration cost components.
//
// A naplet carrying a failover policy has somewhere to go when the
// destination is presumed dead: with a failure detector, its dispatch to
// such a peer fails fast — at most one probe attempt per probe interval
// reaches the network, every other caller gets ErrPeerDead — where one
// without rides the full budget against a peer that may merely be
// partitioned. A dispatch that starts against a live peer keeps its full
// budget: the detector learns from its failures but does not cut it short.
func (n *Navigator) Dispatch(ctx context.Context, rec *naplet.Record, dest, tid string, pol transport.Backoff, stop <-chan struct{}) (Breakdown, error) {
	hd := n.cfg.Health
	probing := false
	if rec.Failover != naplet.FailoverNone && hd.Dead(dest) {
		if !hd.Allow(dest) {
			return Breakdown{}, ErrPeerDead
		}
		probing = true
	}
	var bd Breakdown
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
	err := pol.Retry(ctx, n.cfg.RetryBudget, stop, func(delay time.Duration) {
		n.met.retries.Inc()
		n.met.backoff.ObserveDuration(delay)
	}, func() (bool, error) {
		var err error
		bd, err = n.dispatchAttempt(ctx, rec, dest, tid)
		if err == nil {
			hd.ReportSuccess(dest)
			return true, nil
		}
		if errors.Is(err, ErrTransferUnresolved) {
			unresolved = true
		} else if errors.Is(err, ErrRejected) {
			unresolved = false
		}
		if IsPermanent(err) {
			// The peer answered — its refusal proves it is alive.
			hd.ReportSuccess(dest)
			return true, err
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
				return true, fmt.Errorf("%w: %v", ErrPeerDead, err)
			}
		}
		return false, err
	})
	if err != nil && unresolved && !errors.Is(err, ErrTransferUnresolved) {
		err = fmt.Errorf("%w: %w", ErrTransferUnresolved, err)
	}
	return bd, err
}
