package messenger

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// overloadRig is the post-office rig with per-server overload wiring and
// an optional fault injector on the fabric.
type overloadRig struct {
	mgrs map[string]*manager.Manager
	msgr map[string]*Messenger
}

func newOverloadRig(t *testing.T, fab transport.Fabric, mkCfg func(server string) Config, wrap func(server string, h transport.Handler) transport.Handler, servers ...string) *overloadRig {
	t.Helper()
	r := &overloadRig{
		mgrs: make(map[string]*manager.Manager),
		msgr: make(map[string]*Messenger),
	}
	clock := func() time.Time { return t0 }
	for _, s := range servers {
		s := s
		mgr := manager.New(s, clock)
		var msgr *Messenger
		h := transport.Handler(func(from string, f wire.Frame) (wire.Frame, error) {
			if f.Kind == wire.KindPost {
				return msgr.HandlePost(from, f)
			}
			return wire.Frame{}, fmt.Errorf("unexpected kind %q", f.Kind)
		})
		if wrap != nil {
			h = wrap(s, h)
		}
		node, err := fab.Attach(s, h)
		if err != nil {
			t.Fatal(err)
		}
		loc := locator.New(locator.Config{Mode: locator.ModeForward}, node, mgr, clock)
		msgr = New(mkCfg(s), s, node, loc, mgr, clock)
		r.mgrs[s] = mgr
		r.msgr[s] = msgr
	}
	return r
}

func (r *overloadRig) land(t *testing.T, owner, home, at string) *naplet.Record {
	t.Helper()
	nid := id.MustNew(owner, home, t0)
	rec := naplet.NewRecord(nid, cred.Credential{NapletID: nid}, "cb", home, nil)
	r.mgrs[at].RecordArrival(nid, "cb", home, t0)
	r.msgr[at].CreateMailbox(nid)
	return rec
}

// TestPostOverloadShedRetriesAndDelivers: a typed overload shed from the
// destination is transient — the messenger retries past it and the mail
// lands.
func TestPostOverloadShedRetriesAndDelivers(t *testing.T) {
	net := netsim.New(netsim.Config{})
	var sheds atomic.Int64
	r := newOverloadRig(t, net,
		func(server string) Config {
			if server == "sa" {
				return Config{SendRetries: 5, RetryDelay: time.Millisecond}
			}
			return Config{}
		},
		func(server string, h transport.Handler) transport.Handler {
			if server != "sb" {
				return h
			}
			return func(from string, f wire.Frame) (wire.Frame, error) {
				if sheds.Add(1) <= 2 {
					return wire.Frame{}, fmt.Errorf("gate: %w", overload.ErrOverloaded)
				}
				return h(from, f)
			}
		},
		"sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")
	a.Book.Add(b.ID, "sb")

	if err := r.msgr["sa"].Post(context.Background(), a, b.ID, "greet", []byte("hello")); err != nil {
		t.Fatalf("post through overload: %v", err)
	}
	mb := mailbox(r.msgr["sb"], b.ID)
	if _, ok := mb.TryReceive(); !ok {
		t.Fatal("message not delivered after the sheds cleared")
	}
	if got := sheds.Load(); got != 3 {
		t.Fatalf("destination saw %d frames, want 3 (2 sheds + 1 delivery)", got)
	}
}

// TestPostRetryBudgetExhausted: transport-level loss burns send retries
// only while the token bucket holds out.
func TestPostRetryBudgetExhausted(t *testing.T) {
	telem := telemetry.NewRegistry()
	rb := overload.NewRetryBudget(overload.RetryBudgetConfig{Ratio: 0.1, Burst: 1, Telemetry: telem})
	exhausted := telem.Counter("naplet_retry_budget_exhausted_total", "", "component", "client")
	inj := fault.New(fault.Config{Seed: 3, P: fault.Probabilities{DropRequest: 1}})
	fab := inj.Fabric(netsim.New(netsim.Config{}))
	r := newOverloadRig(t, fab,
		func(server string) Config {
			if server == "sa" {
				return Config{SendRetries: 10, RetryDelay: time.Millisecond, RetryBudget: rb}
			}
			return Config{}
		}, nil, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")
	a.Book.Add(b.ID, "sb")

	err := r.msgr["sa"].Post(context.Background(), a, b.ID, "greet", []byte("hello"))
	if !errors.Is(err, overload.ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	// Burst 1 buys the first attempt plus exactly one retry.
	if got := inj.Counts()[fault.FaultDropRequest]; got != 2 {
		t.Fatalf("network attempts = %d, want 2 (10 retries configured, budget allowed 1)", got)
	}
	if got := exhausted.Value(); got != 1 {
		t.Fatalf("exhausted = %d, want 1", got)
	}
}
