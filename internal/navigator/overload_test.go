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
	"repro/internal/wire"
)

// TestDispatchOverloadLiveness: an overloaded peer answers with a typed
// shed — proof of life. The navigator must keep retrying under backoff
// without feeding the failure detector or the circuit breaker, and the
// dispatch lands once the peer recovers.
func TestDispatchOverloadLiveness(t *testing.T) {
	clk := &tickClock{now: t0}
	hd := health.New(health.Config{Clock: clk.Now})
	brk := overload.NewBreakers(overload.BreakerConfig{FailureThreshold: 2, Health: hd})

	net := netsim.New(netsim.Config{CallTimeout: time.Second})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{
		Health:      hd,
		Breakers:    brk,
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
	pol := Backoff{Initial: time.Millisecond, Retries: 5}
	if _, err := a.nav.DispatchRetry(context.Background(), rec, "b", pol, nil); err != nil {
		t.Fatalf("dispatch through overload: %v", err)
	}
	// Three sheds were answers, not failures: the peer never left alive
	// and the breaker never opened.
	if got := hd.State("b"); got != health.StateAlive {
		t.Fatalf("detector state = %v, want alive (sheds are proof of life)", got)
	}
	if got := brk.Stats().TotalOpened(); got != 0 {
		t.Fatalf("breaker opened %d times on overload replies", got)
	}
}

// TestDispatchBreakerOpensAndRefuses: transport-level failures open the
// breaker at its threshold mid-loop, the dispatch ends with ErrPeerDead
// wrapping ErrBreakerOpen, and the next dispatch is refused locally with
// zero network attempts.
func TestDispatchBreakerOpensAndRefuses(t *testing.T) {
	clk := &tickClock{now: t0}
	hd := health.New(health.Config{Clock: clk.Now})
	brk := overload.NewBreakers(overload.BreakerConfig{FailureThreshold: 2, Health: hd})

	net := netsim.New(netsim.Config{CallTimeout: 50 * time.Millisecond})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{
		Health:      hd,
		Breakers:    brk,
		CallTimeout: 50 * time.Millisecond,
	})

	var calls atomic.Int64
	if _, err := net.Attach("b", func(from string, f wire.Frame) (wire.Frame, error) {
		calls.Add(1)
		return wire.Frame{}, errors.New("b: wedged")
	}); err != nil {
		t.Fatal(err)
	}

	rec := record(t, nil, "a")
	pol := Backoff{Initial: time.Millisecond, Retries: 10}
	_, err := a.nav.DispatchRetry(context.Background(), rec, "b", pol, nil)
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
	if !errors.Is(err, overload.ErrBreakerOpen) {
		t.Fatalf("err = %v, want wrapped ErrBreakerOpen", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("network attempts = %d, want exactly FailureThreshold (2)", got)
	}
	if got := brk.Stats().Opened[overload.OpenReasonFailures]; got != 1 {
		t.Fatalf("failure opens = %d, want 1", got)
	}

	// The open breaker refuses the next dispatch before any network I/O.
	if _, err := a.nav.DispatchRetry(context.Background(), rec, "b", pol, nil); !errors.Is(err, overload.ErrBreakerOpen) {
		t.Fatalf("second dispatch err = %v, want ErrBreakerOpen", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("refused dispatch touched the network: %d attempts", got)
	}
}

// TestDispatchRetryBudgetExhausted: with a dry token bucket the
// navigator surfaces the failure instead of amplifying it.
func TestDispatchRetryBudgetExhausted(t *testing.T) {
	rb := overload.NewRetryBudget(overload.RetryBudgetConfig{Ratio: 0.1, Burst: 1})
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
	pol := Backoff{Initial: time.Millisecond, Retries: 10}
	_, err := a.nav.DispatchRetry(context.Background(), rec, "b", pol, nil)
	if !errors.Is(err, overload.ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	// Burst 1 buys the first attempt plus exactly one retry.
	if got := calls.Load(); got != 2 {
		t.Fatalf("network attempts = %d, want 2 (policy had 10 retries, budget allowed 1)", got)
	}
	if got := rb.Exhausted(); got != 1 {
		t.Fatalf("exhausted counter = %d, want 1", got)
	}
}
