package navigator

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestDispatchOverloadLiveness: an overloaded peer answers with a typed
// shed — proof of life. The navigator must keep retrying under backoff
// without counting a single miss against it, and the dispatch lands once
// the peer recovers.
func TestDispatchOverloadLiveness(t *testing.T) {
	clk := &tickClock{now: t0}
	hd := health.New(health.Config{Clock: clk.Now})

	net := netsim.New(netsim.Config{CallTimeout: time.Second})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{
		Health:      hd,
		CallTimeout: time.Second,
	})

	var sheds atomic.Int64
	if _, err := net.Attach("b", func(from string, f wire.Frame) (wire.Frame, error) {
		if f.Kind == wire.KindLandingRequest && sheds.Add(1) <= 3 {
			return wire.Frame{}, overload.ErrOverloaded
		}
		switch f.Kind {
		case wire.KindLandingRequest:
			return wire.BinaryFrame(wire.KindLandingReply, f.To, f.From, &LandingReplyBody{Granted: true}), nil
		case wire.KindNapletTransfer:
			return wire.BinaryFrame(wire.KindTransferAck, f.To, f.From, &TransferAckBody{Accepted: true}), nil
		default:
			return wire.Frame{}, errors.New("unexpected kind " + string(f.Kind))
		}
	}); err != nil {
		t.Fatal(err)
	}

	rec := record(t, nil, "a")
	pol := transport.Backoff{Initial: time.Millisecond, Retries: 5}
	if _, err := a.nav.Dispatch(context.Background(), rec, "b", a.nav.NewTransferID(), pol, nil); err != nil {
		t.Fatalf("dispatch through overload: %v", err)
	}
	// Three sheds were answers, not failures: the detector never moved
	// the peer off alive, not even to suspect.
	if trail := hd.Trail(); len(trail) != 0 {
		t.Fatalf("detector trail = %+v, want empty (sheds are proof of life)", trail)
	}
}

// TestDispatchRetryBudgetExhausted: with a dry token bucket the
// navigator surfaces the failure instead of amplifying it.
func TestDispatchRetryBudgetExhausted(t *testing.T) {
	telem := telemetry.NewRegistry()
	rb := overload.NewRetryBudget(overload.RetryBudgetConfig{Ratio: 0.1, Burst: 1, Telemetry: telem})
	exhausted := telem.Counter("naplet_retry_budget_exhausted_total", "", "component", "client")
	net := netsim.New(netsim.Config{CallTimeout: 50 * time.Millisecond})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{
		RetryBudget: rb,
		CallTimeout: 50 * time.Millisecond,
	})

	var calls atomic.Int64
	if _, err := net.Attach("b", func(from string, f wire.Frame) (wire.Frame, error) {
		calls.Add(1)
		return wire.Frame{}, errors.New("b: failing")
	}); err != nil {
		t.Fatal(err)
	}

	rec := record(t, nil, "a")
	pol := transport.Backoff{Initial: time.Millisecond, Retries: 10}
	_, err := a.nav.Dispatch(context.Background(), rec, "b", a.nav.NewTransferID(), pol, nil)
	if !errors.Is(err, overload.ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	// Burst 1 buys the first attempt plus exactly one retry.
	if got := calls.Load(); got != 2 {
		t.Fatalf("network attempts = %d, want 2 (policy had 10 retries, budget allowed 1)", got)
	}
	if got := exhausted.Value(); got != 1 {
		t.Fatalf("exhausted counter = %d, want 1", got)
	}
}
