package naplet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/itinerary"
)

var (
	t0  = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)
	nid = id.MustNew("czxu", "home.example", t0)
)

func testRecord(t *testing.T) *Record {
	t.Helper()
	ring := cred.NewKeyRing()
	ring.Register("czxu", []byte("k"))
	c, err := ring.Issue(nid, "test.Agent", nil, t0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	itin := itinerary.MustNew(itinerary.SeqVisits([]string{"s1", "s2"}, ""))
	return NewRecord(nid, c, "test.Agent", "home.example", itin)
}

func TestNewRecordDefaults(t *testing.T) {
	r := testRecord(t)
	if r.State == nil || r.Book == nil || r.Log == nil {
		t.Fatal("NewRecord must initialize containers")
	}
	if r.Codebase != "test.Agent" || r.Home != "home.example" {
		t.Fatalf("record fields: %+v", r)
	}
}

func TestRecordBinaryRoundTrip(t *testing.T) {
	r := testRecord(t)
	r.State.SetPrivate("k", 42)
	r.Book.Add(nid, "s9")
	r.Log.RecordArrival("home.example", t0)

	got, err := DecodeRecordBinary(r.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.ID.Equal(r.ID) {
		t.Fatalf("ID mismatch: %v vs %v", got.ID, r.ID)
	}
	if v, err := got.State.Get("k"); err != nil || v.(int) != 42 {
		t.Fatalf("state lost: %v %v", v, err)
	}
	if !got.Book.Knows(nid) {
		t.Fatal("address book lost")
	}
	if got.Log.Len() != 1 {
		t.Fatal("navigation log lost")
	}
	if got.Itin.Done() {
		t.Fatal("itinerary lost")
	}
	if want := r.Itin.String(); got.Itin.String() != want {
		t.Fatalf("itinerary = %s, want %s", got.Itin.String(), want)
	}
}

func TestCloneFor(t *testing.T) {
	r := testRecord(t)
	r.State.SetPrivate("shared", "v")
	r.Book.Add(nid, "s1")
	r.Log.RecordArrival("home.example", t0)

	ring := cred.NewKeyRing()
	ring.Register("czxu", []byte("k"))
	cloneID, _ := r.ID.Clone(1)
	cc, _ := ring.Reissue(r.Credential, cloneID)

	branch := itinerary.MustNew(itinerary.SeqVisits([]string{"s3"}, ""))
	clone, err := r.CloneFor(1, branch, cc)
	if err != nil {
		t.Fatal(err)
	}
	if !clone.ID.Equal(cloneID) {
		t.Fatalf("clone ID = %v", clone.ID)
	}
	if clone.Home != r.Home || clone.Codebase != r.Codebase {
		t.Fatal("clone must inherit home and codebase")
	}
	// Independent state.
	clone.State.SetPrivate("shared", "mutated")
	if v, _ := r.State.Get("shared"); v.(string) != "v" {
		t.Fatal("clone state mutation leaked to parent")
	}
	// Inherited book, independent afterwards.
	if !clone.Book.Knows(nid) {
		t.Fatal("clone must inherit address book")
	}
	clone.Book.Add(id.MustNew("x", "y", t0), "z")
	if r.Book.Len() != 1 {
		t.Fatal("clone book mutation leaked")
	}
	// Inherited log history.
	if clone.Log.Len() != 1 {
		t.Fatal("clone must inherit navigation history")
	}
	// Branch itinerary.
	if got := clone.Itin.Remaining.Servers(); !reflect.DeepEqual(got, []string{"s3"}) {
		t.Fatalf("clone itinerary = %v", got)
	}
	if _, err := r.CloneFor(0, branch, cc); err == nil {
		t.Fatal("clone index 0 is reserved")
	}
}

func TestAddressBookBasics(t *testing.T) {
	b := NewAddressBook()
	peer1 := id.MustNew("a", "h1", t0)
	peer2 := id.MustNew("b", "h2", t0)
	b.Add(peer1, "s1")
	b.Add(peer2, "s2")
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	e, ok := b.Lookup(peer1)
	if !ok || e.ServerURN != "s1" {
		t.Fatalf("Lookup: %+v %v", e, ok)
	}
	if !b.Knows(peer2) {
		t.Fatal("Knows failed")
	}
	b.Remove(peer1)
	if b.Knows(peer1) {
		t.Fatal("Remove failed")
	}
	if b.Knows(peer1) || b.Len() != 1 {
		t.Fatal("book state after remove")
	}
}

func TestAddressBookUpdateOnlyExisting(t *testing.T) {
	b := NewAddressBook()
	peer := id.MustNew("a", "h", t0)
	b.Update(peer, "s9") // absent: no-op
	if b.Knows(peer) {
		t.Fatal("Update must not create entries")
	}
	b.Add(peer, "s1")
	b.Update(peer, "s2")
	e, _ := b.Lookup(peer)
	if e.ServerURN != "s2" {
		t.Fatalf("Update failed: %+v", e)
	}
}

func TestAddressBookEntriesSorted(t *testing.T) {
	b := NewAddressBook()
	pb := id.MustNew("b", "h", t0)
	pa := id.MustNew("a", "h", t0)
	b.Add(pb, "s2")
	b.Add(pa, "s1")
	es := b.Entries()
	if len(es) != 2 || es[0].NapletID.Owner() != "a" {
		t.Fatalf("Entries not sorted: %+v", es)
	}
}

func TestAddressBookMergeAndClone(t *testing.T) {
	a := NewAddressBook()
	b := NewAddressBook()
	p1 := id.MustNew("p1", "h", t0)
	p2 := id.MustNew("p2", "h", t0)
	a.Add(p1, "s1")
	b.Add(p2, "s2")
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatal("merge failed")
	}
	c := a.Clone()
	c.Remove(p1)
	if !a.Knows(p1) {
		t.Fatal("clone must be independent")
	}
}

func TestAddressBookBinary(t *testing.T) {
	b := NewAddressBook()
	p := id.MustNew("p", "h", t0)
	b.Add(p, "s1")
	got, rest, err := DecodeBookBinary(b.AppendBinary(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d trailing bytes", err, len(rest))
	}
	e, ok := got.Lookup(p)
	if !ok || e.ServerURN != "s1" {
		t.Fatalf("binary round trip: %+v %v", e, ok)
	}
}

func TestNavigationLogLifecycle(t *testing.T) {
	l := NewNavigationLog()
	l.RecordArrival("s1", t0)
	if _, open := l.Current(); !open {
		t.Fatal("hop must be open after arrival")
	}
	if err := l.RecordDeparture("s1", t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, open := l.Current(); open {
		t.Fatal("hop must be closed after departure")
	}
	l.RecordArrival("s2", t0.Add(2*time.Minute))
	l.RecordDeparture("s2", t0.Add(5*time.Minute))

	hops := l.Hops()
	if len(hops) != 2 || hops[0].Server != "s1" || hops[1].Server != "s2" {
		t.Fatalf("hops = %+v", hops)
	}
	if got := l.TotalDwell(); got != 4*time.Minute {
		t.Fatalf("TotalDwell = %v", got)
	}
	if got := l.TotalTransit(); got != time.Minute {
		t.Fatalf("TotalTransit = %v", got)
	}
	if got := l.String(); got != "s1 -> s2" {
		t.Fatalf("String = %q", got)
	}
}

func TestNavigationLogDepartureErrors(t *testing.T) {
	l := NewNavigationLog()
	if err := l.RecordDeparture("s1", t0); err == nil {
		t.Fatal("departure with empty log must fail")
	}
	l.RecordArrival("s1", t0)
	if err := l.RecordDeparture("s2", t0); err == nil {
		t.Fatal("departure from wrong server must fail")
	}
	l.RecordDeparture("s1", t0)
	if err := l.RecordDeparture("s1", t0); err == nil {
		t.Fatal("duplicate departure must fail")
	}
}

func TestNavigationLogCloneIndependent(t *testing.T) {
	l := NewNavigationLog()
	l.RecordArrival("s1", t0)
	c := l.Clone()
	c.RecordDeparture("s1", t0.Add(time.Second))
	c.RecordArrival("s2", t0.Add(2*time.Second))
	if l.Len() != 1 {
		t.Fatal("clone mutation leaked")
	}
	if hop := l.Hops()[0]; !hop.Depart.IsZero() {
		t.Fatal("clone departure leaked into parent")
	}
}

func TestHopDwell(t *testing.T) {
	open := Hop{Server: "s", Arrive: t0}
	if open.Dwell() != 0 {
		t.Fatal("open hop dwell must be 0")
	}
	closed := Hop{Server: "s", Arrive: t0, Depart: t0.Add(3 * time.Second)}
	if closed.Dwell() != 3*time.Second {
		t.Fatalf("dwell = %v", closed.Dwell())
	}
}

func TestMessageString(t *testing.T) {
	sys := Message{Class: SystemMessage, Control: ControlTerminate, To: nid}
	if !sys.IsSystem() {
		t.Fatal("IsSystem")
	}
	if s := sys.String(); s == "" || !bytes.Contains([]byte(s), []byte("terminate")) {
		t.Fatalf("system String = %q", s)
	}
	usr := Message{Class: UserMessage, Subject: "result", Body: []byte("xy"), To: nid}
	if usr.IsSystem() {
		t.Fatal("user message misclassified")
	}
	if s := usr.String(); !bytes.Contains([]byte(s), []byte("result")) {
		t.Fatalf("user String = %q", s)
	}
	if UserMessage.String() != "user" || SystemMessage.String() != "system" {
		t.Fatal("class names")
	}
	if MessageClass(9).String() != "MessageClass(9)" {
		t.Fatal("unknown class formatting")
	}
}

func TestContextAccessors(t *testing.T) {
	r := testRecord(t)
	clock := ClockFunc(func() time.Time { return t0 })
	ctx := &Context{Server: "s1", Record: r, Clock: clock}
	if !ctx.NapletID().Equal(nid) {
		t.Fatal("NapletID")
	}
	if ctx.State() != r.State || ctx.AddressBook() != r.Book || ctx.Log() != r.Log {
		t.Fatal("accessor identity")
	}
	if ctx.Itinerary() != r.Itin {
		t.Fatal("itinerary accessor")
	}
	if !ctx.Now().Equal(t0) {
		t.Fatal("clock not used")
	}
	bare := &Context{Record: r}
	if bare.Now().IsZero() {
		t.Fatal("fallback clock must give wall time")
	}
}
