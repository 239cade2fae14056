package messenger

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// telemetryRig is the post-office rig with one telemetry registry per
// server, so tests can assert on the registered counter and histogram
// series directly.
type telemetryRig struct {
	net  *netsim.Network
	mgrs map[string]*manager.Manager
	msgr map[string]*Messenger
	regs map[string]*telemetry.Registry
}

func newTelemetryRig(t *testing.T, servers ...string) *telemetryRig {
	t.Helper()
	r := &telemetryRig{
		net:  netsim.New(netsim.Config{}),
		mgrs: make(map[string]*manager.Manager),
		msgr: make(map[string]*Messenger),
		regs: make(map[string]*telemetry.Registry),
	}
	clock := func() time.Time { return t0 }
	for _, s := range servers {
		s := s
		mgr := manager.New(s, clock)
		reg := telemetry.NewRegistry()
		var msgr *Messenger
		node, err := r.net.Attach(s, func(from string, f wire.Frame) (wire.Frame, error) {
			if f.Kind == wire.KindPost {
				return msgr.HandlePost(from, f)
			}
			return wire.Frame{}, fmt.Errorf("unexpected kind %q", f.Kind)
		})
		if err != nil {
			t.Fatal(err)
		}
		loc := locator.New(locator.Config{Mode: locator.ModeForward}, node, mgr, clock)
		msgr = New(Config{Telemetry: reg}, s, node, loc, mgr, clock)
		r.mgrs[s] = mgr
		r.msgr[s] = msgr
		r.regs[s] = reg
	}
	return r
}

func (r *telemetryRig) land(t *testing.T, owner, home, at string) *naplet.Record {
	t.Helper()
	nid := id.MustNew(owner, home, t0)
	rec := naplet.NewRecord(nid, cred.Credential{NapletID: nid}, "cb", home, nil)
	r.mgrs[at].RecordArrival(nid, "cb", home, t0)
	r.msgr[at].CreateMailbox(nid)
	return rec
}

func (r *telemetryRig) move(t *testing.T, rec *naplet.Record, from, to string) {
	t.Helper()
	if err := r.mgrs[from].RecordDeparture(rec.ID, to, t0); err != nil {
		t.Fatal(err)
	}
	r.msgr[from].CloseMailbox(rec.ID)
	r.mgrs[to].RecordArrival(rec.ID, "cb", from, t0)
	r.msgr[to].CreateMailbox(rec.ID)
}

// counter reads a registered counter's value at a server; registering the
// same name returns the existing handle (GetOrCreate).
func (r *telemetryRig) counter(server, name string) int64 {
	return r.regs[server].Counter(name, "").Value()
}

func (r *telemetryRig) confirmRTT(server string) *telemetry.Histogram {
	return r.regs[server].Histogram("naplet_messenger_confirm_rtt_seconds", "", telemetry.LatencyBuckets)
}

// TestForwardedChaseCounters drives §4.2 case 2 across two forwarding
// hops (s1 -> s2 -> s3) and checks each leg is visible in the registry:
// a forwarded increment at each stale server, delivery at the final one,
// and one confirm-RTT sample at the sender.
func TestForwardedChaseCounters(t *testing.T) {
	r := newTelemetryRig(t, "sa", "s1", "s2", "s3")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "s1", "s1")
	a.Book.Add(b.ID, "s1") // stale after two moves
	r.move(t, b, "s1", "s2")
	r.move(t, b, "s2", "s3")

	if err := r.msgr["sa"].Post(context.Background(), a, b.ID, "chase", []byte("x")); err != nil {
		t.Fatal(err)
	}

	for _, s := range []string{"s1", "s2"} {
		if got := r.counter(s, "naplet_messenger_forwarded_total"); got != 1 {
			t.Errorf("%s forwarded = %d, want 1", s, got)
		}
	}
	if got := r.counter("s3", "naplet_messenger_delivered_total"); got != 1 {
		t.Errorf("s3 delivered = %d, want 1", got)
	}
	if got := r.counter("sa", "naplet_messenger_posted_total"); got != 1 {
		t.Errorf("sa posted = %d, want 1", got)
	}
	// The two-hop chase's confirmation produced exactly one RTT sample at
	// the sender (forwarding legs are not separately sampled there).
	if got := r.confirmRTT("sa").Count(); got != 1 {
		t.Errorf("sa confirm-RTT samples = %d, want 1", got)
	}
	if sum := r.confirmRTT("sa").Sum(); sum < 0 {
		t.Errorf("confirm-RTT sum = %v, want >= 0", sum)
	}
	// Legacy Stats views agree with the registry.
	if st := r.msgr["s1"].Stats(); st.Forwarded != 1 {
		t.Errorf("s1 Stats().Forwarded = %d, want 1", st.Forwarded)
	}
}

// TestHeldMailCounters drives §4.2 case 3: a message sent before the
// naplet lands is held, and the landing drains it into the mailbox with
// held/drained/delivered increments and a confirm-RTT sample recording
// the held (not delivered) confirmation.
func TestHeldMailCounters(t *testing.T) {
	r := newTelemetryRig(t, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	nid := id.MustNew("b", "sb", t0)
	a.Book.Add(nid, "sb")

	// b has not arrived at sb yet: the message must be held there.
	if err := r.msgr["sa"].Post(context.Background(), a, nid, "early", []byte("wait")); err != nil {
		t.Fatal(err)
	}
	if got := r.counter("sb", "naplet_messenger_held_total"); got != 1 {
		t.Fatalf("sb held = %d, want 1", got)
	}
	if got := r.counter("sb", "naplet_messenger_delivered_total"); got != 0 {
		t.Fatalf("sb delivered before landing = %d, want 0", got)
	}
	// A held confirmation still closes the sender's post round trip.
	if got := r.confirmRTT("sa").Count(); got != 1 {
		t.Errorf("sa confirm-RTT samples = %d, want 1", got)
	}

	// Landing opens the slot and drains its held mail.
	mb := r.msgr["sb"].CreateMailbox(nid)
	if got := r.counter("sb", "naplet_messenger_drained_held_total"); got != 1 {
		t.Errorf("sb drained = %d, want 1", got)
	}
	if got := r.counter("sb", "naplet_messenger_delivered_total"); got != 1 {
		t.Errorf("sb delivered after landing = %d, want 1", got)
	}
	msg, ok := mb.TryReceive()
	if !ok || string(msg.Body) != "wait" {
		t.Fatalf("held message not drained: %+v %v", msg, ok)
	}
	if st := r.msgr["sb"].Stats(); st.Held != 1 || st.DrainedH != 1 || st.Delivered != 1 {
		t.Errorf("sb Stats() = %+v, want Held/DrainedH/Delivered all 1", st)
	}
}
