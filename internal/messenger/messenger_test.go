package messenger

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

var t0 = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)

// post office test rig: three servers sa, sb, sc on a netsim, each with a
// manager, a forward-mode locator, and a messenger.
type rig struct {
	net  *netsim.Network
	mgrs map[string]*manager.Manager
	locs map[string]*locator.Locator
	msgr map[string]*Messenger
}

func newRig(t *testing.T, servers ...string) *rig {
	t.Helper()
	r := &rig{
		net:  netsim.New(netsim.Config{}),
		mgrs: make(map[string]*manager.Manager),
		locs: make(map[string]*locator.Locator),
		msgr: make(map[string]*Messenger),
	}
	clock := func() time.Time { return t0 }
	for _, s := range servers {
		s := s
		mgr := manager.New(s, clock)
		var msgr *Messenger
		var loc *locator.Locator
		node, err := r.net.Attach(s, func(from string, f wire.Frame) (wire.Frame, error) {
			switch f.Kind {
			case wire.KindPost:
				return msgr.HandlePost(from, f)
			case wire.KindLocatorInvalidate:
				return loc.HandleInvalidate(from, f)
			}
			return wire.Frame{}, fmt.Errorf("unexpected kind %q", f.Kind)
		})
		if err != nil {
			t.Fatal(err)
		}
		loc = locator.New(locator.Config{Mode: locator.ModeForward}, node, mgr, clock)
		msgr = New(Config{}, s, node, loc, mgr, clock)
		r.mgrs[s] = mgr
		r.locs[s] = loc
		r.msgr[s] = msgr
	}
	return r
}

// agent makes a record for naplet owned by owner homed at home, present at
// a server with an open mailbox.
func (r *rig) land(t *testing.T, owner, home, at string) *naplet.Record {
	t.Helper()
	nid := id.MustNew(owner, home, t0)
	// Credential content is irrelevant to the messenger.
	rec := naplet.NewRecord(nid, cred.Credential{NapletID: nid}, "cb", home, nil)
	r.mgrs[at].RecordArrival(nid, "cb", home, t0)
	r.msgr[at].CreateMailbox(nid)
	return rec
}

// landRecord lands an existing record at a server.
func (r *rig) move(t *testing.T, rec *naplet.Record, from, to string) {
	t.Helper()
	if err := r.mgrs[from].RecordDeparture(rec.ID, to, t0); err != nil {
		t.Fatal(err)
	}
	left := r.msgr[from].CloseMailbox(rec.ID)
	r.mgrs[to].RecordArrival(rec.ID, "cb", from, t0)
	r.msgr[to].CreateMailbox(rec.ID)
	if len(left) > 0 {
		if err := r.msgr[from].ForwardLeftovers(context.Background(), to, left); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDirectDelivery(t *testing.T) {
	r := newRig(t, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")
	a.Book.Add(b.ID, "sb")

	err := r.msgr["sa"].Post(context.Background(), a, b.ID, "greet", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := r.msgr["sb"].Mailbox(b.ID)
	msg, ok := mb.TryReceive()
	if !ok || string(msg.Body) != "hello" || msg.Subject != "greet" {
		t.Fatalf("delivery: %+v %v", msg, ok)
	}
	if !msg.From.Equal(a.ID) {
		t.Fatalf("sender = %v", msg.From)
	}
	if r.msgr["sa"].Stats().Posted != 1 || r.msgr["sb"].Stats().Delivered != 1 {
		t.Fatalf("stats: %+v %+v", r.msgr["sa"].Stats(), r.msgr["sb"].Stats())
	}
}

func TestAddressBookRestriction(t *testing.T) {
	r := newRig(t, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")
	// b is NOT in a's address book.
	err := r.msgr["sa"].Post(context.Background(), a, b.ID, "x", nil)
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

func TestForwardingChasesNaplet(t *testing.T) {
	// §4.2 case 2: B moved sb -> sc; the message forwards along the trace.
	r := newRig(t, "sa", "sb", "sc")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")
	a.Book.Add(b.ID, "sb") // stale: b will move

	r.move(t, b, "sb", "sc")

	err := r.msgr["sa"].Post(context.Background(), a, b.ID, "chase", []byte("catch me"))
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := r.msgr["sc"].Mailbox(b.ID)
	msg, ok := mb.TryReceive()
	if !ok || string(msg.Body) != "catch me" {
		t.Fatalf("forwarded delivery failed: %v %v", msg, ok)
	}
	if r.msgr["sb"].Stats().Forwarded != 1 {
		t.Fatalf("sb stats: %+v", r.msgr["sb"].Stats())
	}
	// The confirmation updated a's address book to the delivering server.
	e, _ := a.Book.Lookup(b.ID)
	if e.ServerURN != "sc" {
		t.Fatalf("book not refreshed: %q", e.ServerURN)
	}
}

func TestMultiHopForwarding(t *testing.T) {
	r := newRig(t, "sa", "s1", "s2", "s3", "s4")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "s1", "s1")
	a.Book.Add(b.ID, "s1")
	r.move(t, b, "s1", "s2")
	r.move(t, b, "s2", "s3")
	r.move(t, b, "s3", "s4")

	if err := r.msgr["sa"].Post(context.Background(), a, b.ID, "x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	mb, _ := r.msgr["s4"].Mailbox(b.ID)
	if _, ok := mb.TryReceive(); !ok {
		t.Fatal("3-hop chase failed")
	}
}

func TestHopLimit(t *testing.T) {
	// A ring of stale traces must not loop forever. Build s1 -> s2 -> s1.
	r := newRig(t, "sa", "s1", "s2")
	a := r.land(t, "a", "sa", "sa")
	nid := id.MustNew("b", "s1", t0)
	a.Book.Add(nid, "s1")
	// Forge inconsistent traces: s1 says moved to s2, s2 says moved to s1.
	r.mgrs["s1"].RecordArrival(nid, "cb", "x", t0)
	r.mgrs["s1"].RecordDeparture(nid, "s2", t0)
	r.mgrs["s2"].RecordArrival(nid, "cb", "s1", t0)
	r.mgrs["s2"].RecordDeparture(nid, "s1", t0)

	err := r.msgr["sa"].Post(context.Background(), a, nid, "x", nil)
	if err == nil {
		t.Fatal("forwarding loop must be bounded")
	}
}

func TestEarlyMessageHeldAndDrained(t *testing.T) {
	// §4.2 case 3: the message reaches sb before the naplet does.
	r := newRig(t, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	nid := id.MustNew("b", "sb", t0)
	a.Book.Add(nid, "sb")

	if err := r.msgr["sa"].Post(context.Background(), a, nid, "early", []byte("waiting")); err != nil {
		t.Fatal(err)
	}
	if r.msgr["sb"].HeldCount(nid) != 1 {
		t.Fatal("message must be held in the naplet's slot")
	}
	// The naplet lands: opening the slot dumps the held mail into its mailbox.
	r.mgrs["sb"].RecordArrival(nid, "cb", "home", t0)
	mb := r.msgr["sb"].CreateMailbox(nid)
	msg, ok := mb.TryReceive()
	if !ok || string(msg.Body) != "waiting" {
		t.Fatalf("held message not drained: %v %v", msg, ok)
	}
	if r.msgr["sb"].HeldCount(nid) != 0 {
		t.Fatal("the slot must hold nothing after the drain")
	}
	s := r.msgr["sb"].Stats()
	if s.Held != 1 || s.DrainedH != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestNapletEndedError(t *testing.T) {
	r := newRig(t, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")
	a.Book.Add(b.ID, "sb")
	// b's life cycle ends at sb.
	r.msgr["sb"].CloseMailbox(b.ID)
	r.mgrs["sb"].RecordEnd(b.ID, t0)

	err := r.msgr["sa"].Post(context.Background(), a, b.ID, "x", nil)
	if err == nil {
		t.Fatal("posting to an ended naplet must fail")
	}
}

func TestSystemMessageCastsInterrupt(t *testing.T) {
	r := newRig(t, "sa", "sb")
	b := r.land(t, "b", "sb", "sb")
	got := make(chan naplet.Message, 1)
	r.msgr["sb"].SetInterruptSink(func(to id.NapletID, msg naplet.Message) bool {
		if !to.Equal(b.ID) {
			return false
		}
		got <- msg
		return true
	})
	err := r.msgr["sa"].SendControl(context.Background(), b.ID, naplet.ControlSuspend, "sb")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg.Control != naplet.ControlSuspend {
			t.Fatalf("verb = %v", msg.Control)
		}
	default:
		t.Fatal("interrupt not cast")
	}
	if r.msgr["sb"].Stats().Interrupts != 1 {
		t.Fatalf("stats: %+v", r.msgr["sb"].Stats())
	}
}

func TestSystemMessageWithoutSinkHeld(t *testing.T) {
	r := newRig(t, "sa", "sb")
	b := r.land(t, "b", "sb", "sb")
	// No interrupt sink installed: control message is held, not lost.
	if err := r.msgr["sa"].SendControl(context.Background(), b.ID, naplet.ControlTerminate, "sb"); err != nil {
		t.Fatal(err)
	}
	if r.msgr["sb"].HeldCount(b.ID) != 1 {
		t.Fatal("undeliverable control message must be held")
	}
}

func TestLeftoverForwarding(t *testing.T) {
	// Messages sitting in a mailbox when the naplet departs chase it.
	r := newRig(t, "sa", "sb", "sc")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")
	a.Book.Add(b.ID, "sb")

	// Deliver two messages that b never reads at sb.
	r.msgr["sa"].Post(context.Background(), a, b.ID, "m1", []byte("1"))
	r.msgr["sa"].Post(context.Background(), a, b.ID, "m2", []byte("2"))

	r.move(t, b, "sb", "sc") // move forwards leftovers

	mb, _ := r.msgr["sc"].Mailbox(b.ID)
	m1, ok1 := mb.TryReceive()
	m2, ok2 := mb.TryReceive()
	if !ok1 || !ok2 {
		t.Fatalf("leftovers lost: %v %v", ok1, ok2)
	}
	if m1.Subject != "m1" || m2.Subject != "m2" {
		t.Fatalf("order broken: %q %q", m1.Subject, m2.Subject)
	}
}

// TestPostIntoClosingMailboxIsForwarded: a post racing the naplet's
// departure from sb — the trace records it, then the slot is deleted —
// either lands in the slot and leaves with the leftovers, or follows the
// trace. Either way it reaches the naplet's next mailbox exactly once and is
// not held at sb.
func TestPostIntoClosingMailboxIsForwarded(t *testing.T) {
	const iterations = 2000
	r := newRig(t, "sa", "sb", "sc")
	a := r.land(t, "a", "sa", "sa")
	ctx := context.Background()
	for i := 0; i < iterations; i++ {
		b := r.land(t, fmt.Sprintf("b%d", i), "sb", "sb")
		a.Book.Add(b.ID, "sb")
		r.mgrs["sc"].RecordArrival(b.ID, "cb", "sb", t0)
		mb := r.msgr["sc"].CreateMailbox(b.ID)

		var left []naplet.Message
		done := make(chan error, 1)
		go func() {
			err := r.mgrs["sb"].RecordDeparture(b.ID, "sc", t0)
			left = r.msgr["sb"].CloseMailbox(b.ID)
			done <- err
		}()
		err := r.msgr["sa"].Post(ctx, a, b.ID, "late", []byte("still yours"))
		if derr := <-done; derr != nil {
			t.Fatal(derr)
		}
		if err != nil {
			t.Fatalf("iteration %d: post: %v", i, err)
		}
		if err := r.msgr["sb"].ForwardLeftovers(ctx, "sc", left); err != nil {
			t.Fatalf("iteration %d: leftovers: %v", i, err)
		}
		if msg, ok := mb.TryReceive(); !ok || string(msg.Body) != "still yours" {
			t.Fatalf("iteration %d: the post did not reach the naplet's new mailbox: %+v %v", i, msg, ok)
		}
		if n := mb.Len(); n != 0 {
			t.Fatalf("iteration %d: %d more copies in the new mailbox", i, n)
		}
		if n := r.msgr["sb"].HeldCount(b.ID); n != 0 {
			t.Fatalf("iteration %d: sb holds %d messages for a naplet that left", i, n)
		}
	}
}

// raceIterations sizes the landing and end races below.
const raceIterations = 20000

// racePost is a post frame from sa for nid, the i-th of a race.
func racePost(i int, nid id.NapletID) wire.Frame {
	msg := naplet.Message{ID: fmt.Sprintf("sa/m%d", i), To: nid, Class: naplet.UserMessage}
	return wire.BinaryFrame(wire.KindPost, "sa", "sb", &PostBody{Msg: msg})
}

// TestPostRacingLandingIsNeverStranded: a post racing a fresh naplet's
// landing — the trace records the arrival, then the naplet opens its slot —
// ends in the naplet's mailbox whichever comes first: held and dumped on
// opening, or delivered into the open slot.
func TestPostRacingLandingIsNeverStranded(t *testing.T) {
	r := newRig(t, "sb")
	sb := r.msgr["sb"]
	stranded := 0
	for i := 0; i < raceIterations; i++ {
		nid := id.MustNew(fmt.Sprintf("n%d", i), "sb", t0)
		var mb *Mailbox
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.mgrs["sb"].RecordArrival(nid, "cb", "sa", t0)
			mb = sb.CreateMailbox(nid)
		}()
		_, err := sb.HandlePost("sa", racePost(i, nid))
		<-done
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if _, ok := mb.TryReceive(); !ok || sb.HeldCount(nid) != 0 {
			stranded++
		}
	}
	if stranded > 0 {
		t.Fatalf("%d of %d posts racing a landing were stranded outside the mailbox", stranded, raceIterations)
	}
}

// TestPostRacingEndIsNotHeld: a post racing a naplet's end — the trace
// records the end, then the slot is deleted, the order the server's cleanup
// keeps — is either mail left in the slot or ErrNapletGone. It is never
// held for a naplet that will not come back.
func TestPostRacingEndIsNotHeld(t *testing.T) {
	r := newRig(t, "sb")
	sb := r.msgr["sb"]
	held := 0
	for i := 0; i < raceIterations; i++ {
		nid := id.MustNew(fmt.Sprintf("n%d", i), "sb", t0)
		r.mgrs["sb"].RecordArrival(nid, "cb", "sa", t0)
		sb.CreateMailbox(nid)
		var left []naplet.Message
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.mgrs["sb"].RecordEnd(nid, t0)
			left = sb.CloseMailbox(nid)
		}()
		_, err := sb.HandlePost("sa", racePost(i, nid))
		<-done
		switch {
		case err == nil && len(left) == 1:
		case errors.Is(err, ErrNapletGone) && len(left) == 0:
		case err == nil || errors.Is(err, ErrNapletGone):
			held++
		default:
			t.Fatalf("iteration %d: %v", i, err)
		}
		if sb.HeldCount(nid) != 0 {
			held++
		}
	}
	if held > 0 {
		t.Fatalf("%d of %d posts racing an end were held for a naplet that will not come back", held, raceIterations)
	}
}

func TestSelfServerShortCircuit(t *testing.T) {
	r := newRig(t, "sa")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sa", "sa")
	a.Book.Add(b.ID, "sa")
	if err := r.msgr["sa"].Post(context.Background(), a, b.ID, "local", nil); err != nil {
		t.Fatal(err)
	}
	mb, _ := r.msgr["sa"].Mailbox(b.ID)
	if _, ok := mb.TryReceive(); !ok {
		t.Fatal("same-server delivery failed")
	}
	// No frames crossed the network.
	if r.net.TotalStats().FramesSent != 0 {
		t.Fatalf("local delivery used the network: %+v", r.net.TotalStats())
	}
}

func TestMailboxReceiveBlocking(t *testing.T) {
	mb := newMailbox()
	done := make(chan naplet.Message, 1)
	go func() {
		msg, err := mb.Receive(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- msg
	}()
	time.Sleep(10 * time.Millisecond)
	mb.put(naplet.Message{Subject: "late"})
	select {
	case msg := <-done:
		if msg.Subject != "late" {
			t.Fatalf("msg = %+v", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("Receive did not wake")
	}
}

func TestMailboxReceiveCancel(t *testing.T) {
	mb := newMailbox()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := mb.Receive(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
}

func TestMailboxCloseUnblocks(t *testing.T) {
	mb := newMailbox()
	done := make(chan error, 1)
	go func() {
		_, err := mb.Receive(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	mb.close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrMailboxClosed) {
			t.Fatalf("want ErrMailboxClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not unblock Receive")
	}
	// put after close is dropped (the caller forwards leftovers instead).
	mb.put(naplet.Message{})
	if mb.Len() != 0 {
		t.Fatal("put after close must drop")
	}
}

func TestDuplicatePostReconfirmedOnce(t *testing.T) {
	// The same KindPost frame arriving twice (duplicated in flight, or a
	// sender retry after a lost confirmation) must deliver once and be
	// re-confirmed the second time.
	r := newRig(t, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")

	msg := naplet.Message{
		ID:      "sa/m1",
		From:    a.ID,
		To:      b.ID,
		Class:   naplet.UserMessage,
		Subject: "greet",
		Body:    []byte("hello"),
		SentAt:  t0,
	}
	f := wire.BinaryFrame(wire.KindPost, "sa", "sb", &PostBody{Msg: msg})
	for i := 0; i < 2; i++ {
		reply, err := r.msgr["sb"].HandlePost("sa", f)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		var confirm ConfirmBody
		if err := confirm.Decode(reply.Payload); err != nil {
			t.Fatal(err)
		}
		if !confirm.Delivered {
			t.Fatalf("delivery %d not confirmed: %+v", i, confirm)
		}
	}
	mb, _ := r.msgr["sb"].Mailbox(b.ID)
	if _, ok := mb.TryReceive(); !ok {
		t.Fatal("first copy not delivered")
	}
	if _, ok := mb.TryReceive(); ok {
		t.Fatal("duplicate frame delivered twice")
	}
	s := r.msgr["sb"].Stats()
	if s.Delivered != 1 || s.Reconfirmed != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestHeldDuplicateAbsorbed(t *testing.T) {
	// Case 3 duplicates: the target has not arrived yet, so both copies hit
	// the naplet's held slot — only one may be parked there.
	r := newRig(t, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	future := id.MustNew("late", "sb", t0)

	msg := naplet.Message{
		ID:      "sa/m1",
		From:    a.ID,
		To:      future,
		Class:   naplet.UserMessage,
		Subject: "early",
		Body:    []byte("hi"),
		SentAt:  t0,
	}
	f := wire.BinaryFrame(wire.KindPost, "sa", "sb", &PostBody{Msg: msg})
	for i := 0; i < 2; i++ {
		reply, err := r.msgr["sb"].HandlePost("sa", f)
		if err != nil {
			t.Fatalf("hold %d: %v", i, err)
		}
		var confirm ConfirmBody
		if err := confirm.Decode(reply.Payload); err != nil {
			t.Fatal(err)
		}
		if !confirm.Held {
			t.Fatalf("hold %d: %+v", i, confirm)
		}
	}
	// When the naplet lands, exactly one copy drains into its mailbox.
	r.mgrs["sb"].RecordArrival(future, "cb", "sa", t0)
	mb := r.msgr["sb"].CreateMailbox(future)
	if _, ok := mb.TryReceive(); !ok {
		t.Fatal("held message not drained")
	}
	if _, ok := mb.TryReceive(); ok {
		t.Fatal("held duplicate drained twice")
	}
}

func TestViewAPI(t *testing.T) {
	r := newRig(t, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")
	a.Book.Add(b.ID, "sb")
	b.Book.Add(a.ID, "sa")

	mbA, _ := r.msgr["sa"].Mailbox(a.ID)
	mbB, _ := r.msgr["sb"].Mailbox(b.ID)
	va := NewView(r.msgr["sa"], a, mbA)
	vb := NewView(r.msgr["sb"], b, mbB)

	if err := va.Post(context.Background(), b.ID, "ping", []byte("1")); err != nil {
		t.Fatal(err)
	}
	msg, err := vb.Receive(context.Background())
	if err != nil || msg.Subject != "ping" {
		t.Fatalf("Receive: %v %v", msg, err)
	}
	if err := vb.Post(context.Background(), a.ID, "pong", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if msg, ok := va.TryReceive(); !ok || msg.Subject != "pong" {
		t.Fatalf("TryReceive: %v %v", msg, ok)
	}
	if _, ok := va.TryReceive(); ok {
		t.Fatal("empty mailbox TryReceive must report false")
	}
}

// Interface conformance.
var _ naplet.MessengerAPI = (*View)(nil)
var _ transport.Handler = (*Messenger)(nil).HandlePost

// TestPushMigrationBuildsAContextOnlyToPush: a departure with someone to
// tell pushes as before; one with nobody to tell — nearly all of them —
// looks the naplet up and is done, with no context built for the round.
func TestPushMigrationBuildsAContextOnlyToPush(t *testing.T) {
	r := newRig(t, "sa", "sb")
	a := r.land(t, "a", "sa", "sa")
	b := r.land(t, "b", "sb", "sb")
	a.Book.Add(b.ID, "sb")
	if err := r.msgr["sa"].Post(context.Background(), a, b.ID, "greet", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if n := r.msgr["sb"].PushMigration(context.Background(), b.ID, "sc"); n != 1 {
		t.Fatalf("pushed %d notices, want 1 (to sa, which posted to the naplet)", n)
	}
	if got := r.locs["sa"].Stats().PushInval; got != 1 {
		t.Fatalf("sa received %d push invalidations, want 1", got)
	}
	// The notice is spent: the naplet has no correspondents left here.
	sb := r.msgr["sb"]
	n := testing.AllocsPerRun(100, func() {
		if sb.PushMigration(context.Background(), b.ID, "sc") != 0 {
			t.Fatal("pushed a notice with no correspondent to push to")
		}
	})
	if n != 0 && !raceEnabled {
		t.Errorf("PushMigration with no correspondents: %v allocs, want 0", n)
	}
}

// TestRestoredMailIsDeliveredOnce: a dock snapshot's mail table carries
// both kinds of slot. Restored into a fresh messenger, mail that was
// queued unread in an open mailbox and mail held for a naplet still on its
// way each reach the naplet exactly once when its slot opens, though the
// queued mail's ID is already in the restored delivered window and the
// held mail's sender retries it.
func TestRestoredMailIsDeliveredOnce(t *testing.T) {
	r := newRig(t, "sa", "sb")
	sb := r.msgr["sb"]
	resident := r.land(t, "b", "sb", "sb").ID
	coming := id.MustNew("c", "sb", t0)
	queued := racePost(1, resident)
	held := racePost(2, coming)
	for _, f := range []wire.Frame{queued, held} {
		if _, err := sb.HandlePost("sa", f); err != nil {
			t.Fatal(err)
		}
	}
	mail, delivered := sb.MailSnapshot(), sb.DeliveredSnapshot()

	fresh := newRig(t, "sa", "sb").msgr["sb"]
	fresh.RestoreDelivered(delivered)
	fresh.RestoreMail(mail)
	for _, f := range []wire.Frame{queued, held} {
		if _, err := fresh.HandlePost("sa", f); err != nil {
			t.Fatal(err)
		}
	}
	for _, nid := range []id.NapletID{resident, coming} {
		mb := fresh.CreateMailbox(nid)
		if n := mb.Len(); n != 1 {
			t.Fatalf("%s: %d messages after the restart, want 1", nid, n)
		}
	}
}
