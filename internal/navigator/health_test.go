package navigator

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tickClock is a deterministic time source shared by the detector and the
// test.
type tickClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *tickClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestDispatchFastFailOnDeadPeer drives the failure-detector integration
// with a deterministic clock: a dispatch that starts against a dead peer
// spends at most one network attempt (the per-interval probe), every other
// dispatch in the same interval returns ErrPeerDead without touching the
// network, and a successful probe after the peer recovers resurrects it.
func TestDispatchFastFailOnDeadPeer(t *testing.T) {
	clk := &tickClock{now: t0}
	hd := health.New(health.Config{Clock: clk.Now, ProbeInterval: time.Second})

	net := netsim.New(netsim.Config{CallTimeout: 50 * time.Millisecond})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{
		Health:      hd,
		CallTimeout: 50 * time.Millisecond,
	})

	var calls atomic.Int64
	var healthy atomic.Bool
	if _, err := net.Attach("b", func(from string, f wire.Frame) (wire.Frame, error) {
		calls.Add(1)
		if !healthy.Load() {
			return wire.Frame{}, errors.New("b: crashed")
		}
		switch f.Kind {
		case wire.KindLandingRequest:
			return wire.BinaryFrame(wire.KindLandingReply, f.To, f.From, &LandingReplyBody{Granted: true, NeedCode: false}), nil
		case wire.KindNapletTransfer:
			return wire.BinaryFrame(wire.KindTransferAck, f.To, f.From, &TransferAckBody{Accepted: true}), nil
		default:
			return wire.Frame{}, errors.New("unexpected kind " + string(f.Kind))
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Report enough consecutive misses to cross the dead threshold.
	for i := 0; i < health.DefaultDeadThreshold; i++ {
		hd.ReportFailure("b")
	}
	if !hd.Dead("b") {
		t.Fatalf("state(b) = %v after %d misses, want dead", hd.State("b"), health.DefaultDeadThreshold)
	}

	pol := transport.Backoff{Initial: time.Millisecond, Retries: 5}

	// First dispatch of the interval holds the probe slot: exactly one
	// attempt reaches the network, then ErrPeerDead — no retry budget burn.
	// The naplet's failover policy is what lets its dispatch fail fast.
	rec := record(t, nil, "a")
	rec.Failover = naplet.FailoverSkip
	if _, err := a.nav.DispatchRetry(context.Background(), rec, "b", pol, nil); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("probe dispatch err = %v, want ErrPeerDead", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("probe dispatch made %d network attempts, want exactly 1", got)
	}

	// Same interval, no probe slot left: fail fast with zero attempts.
	if _, err := a.nav.DispatchRetry(context.Background(), rec, "b", pol, nil); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("gated dispatch err = %v, want ErrPeerDead", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("gated dispatch touched the network (%d attempts total, want 1)", got)
	}

	// Next interval: the peer recovered; the probe succeeds and resurrects
	// it (landing request + transfer = two frames).
	clk.Advance(time.Second + time.Millisecond)
	healthy.Store(true)
	if _, err := a.nav.DispatchRetry(context.Background(), rec, "b", pol, nil); err != nil {
		t.Fatalf("post-recovery dispatch: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("recovery dispatch frames = %d, want 3 (1 failed probe + landing + transfer)", got)
	}
	if hd.State("b") != health.StateAlive {
		t.Fatalf("state(b) = %v after successful probe, want alive", hd.State("b"))
	}
}
