package naplet

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/state"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden fixtures in testdata/")

// goldenTime is a fixed instant with a fractional second, so the fixtures
// pin both the seconds and nanoseconds halves of the time layout.
var goldenTime = time.Date(2026, 1, 2, 3, 4, 5, 600700800, time.UTC)

func goldenID(t testing.TB) id.NapletID {
	t.Helper()
	parent := id.MustNew("czxu", "napserver-1.wayne.edu", goldenTime)
	clone, err := parent.Clone(2)
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

func goldenMessage(t testing.TB) Message {
	t.Helper()
	return Message{
		ID:      "sa/m-17",
		From:    id.MustNew("czxu", "sa1", goldenTime),
		To:      goldenID(t),
		Class:   UserMessage,
		Subject: "price-quote",
		Body:    []byte("widget=42"),
		SentAt:  goldenTime.Add(250 * time.Millisecond),
	}
}

func goldenRecord(t testing.TB) *Record {
	t.Helper()
	nid := goldenID(t)
	st := state.New()
	if err := st.SetPublic("best-price", 42); err != nil {
		t.Fatal(err)
	}
	if err := st.SetProtected("visited", "sa,sb", "sa", "sb"); err != nil {
		t.Fatal(err)
	}
	book := NewAddressBook()
	book.Add(id.MustNew("czxu", "sa1", goldenTime), "naplet://sa:1")
	book.Add(id.MustNew("amgr", "sb2", goldenTime.Add(time.Second)), "naplet://sb:2")
	log := NewNavigationLog()
	log.RecordArrival("sa:1", goldenTime)
	if err := log.RecordDeparture("sa:1", goldenTime.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	log.RecordArrival("sb:2", goldenTime.Add(2*time.Second))
	log.RecordReroute(Reroute{
		Visit:  "sc:3",
		Policy: "skip",
		Detail: "dial refused",
		At:     goldenTime.Add(3 * time.Second),
	})
	itin := &itinerary.Itinerary{
		Remaining: itinerary.Seq(
			itinerary.Singleton(itinerary.Visit{Server: "sc:3", Action: "collect"}),
			itinerary.Alt(
				itinerary.Singleton(itinerary.Visit{Server: "sd:4", Guard: "cheap", Action: "buy"}),
				itinerary.Singleton(itinerary.Visit{Server: "se:5", Action: "buy"}),
			),
		),
	}
	return &Record{
		ID: nid,
		Credential: cred.Credential{
			NapletID:  nid,
			Codebase:  "shopper",
			Roles:     []string{"guest", "buyer"},
			IssuedAt:  goldenTime,
			ExpiresAt: goldenTime.Add(time.Hour),
			Signature: []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02},
		},
		Codebase: "shopper",
		Home:     "sa:1",
		State:    st,
		Itin:     itin,
		Book:     book,
		Log:      log,
		Pending:  itinerary.Visit{Server: "sc:3", Action: "collect"},
		PendingAlts: []*itinerary.Pattern{
			itinerary.Singleton(itinerary.Visit{Server: "se:5", Action: "buy"}),
			nil,
		},
		Failover: FailoverAlternates,
		CloneSeq: 3,
	}
}

// checkGolden compares got against the hex fixture, rewriting it under
// -update. Fixtures pin the wire layout: a mismatch means the codec layout
// drifted and needs a version bump plus regenerated fixtures, not a
// silent fixture refresh.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run go test -update): %v", err)
	}
	want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding drifted from the pinned layout.\n got %s\nwant %s\n"+
			"If the change is intentional, bump the codec version and regenerate with -update.",
			name, hex.EncodeToString(got), hex.EncodeToString(want))
	}
}

func TestRecordGoldenBytes(t *testing.T) {
	rec := goldenRecord(t)
	got := rec.AppendBinary(nil)
	checkGolden(t, "record_v3.hex", got)

	dec, err := DecodeRecordBinary(got)
	if err != nil {
		t.Fatal(err)
	}
	re := dec.AppendBinary(nil)
	if !bytes.Equal(got, re) {
		t.Fatal("decode→encode of golden record is not byte-identical")
	}
}

func TestMessageGoldenBytes(t *testing.T) {
	msg := goldenMessage(t)
	got := msg.AppendBinary(nil)
	checkGolden(t, "mail_v1.hex", got)

	dec, rest, err := DecodeMessageBinary(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	re := dec.AppendBinary(nil)
	if !bytes.Equal(got, re) {
		t.Fatal("decode→encode of golden message is not byte-identical")
	}
}

// ---- Randomized encode→decode→encode property ----

func randString(r *rand.Rand, max int) string {
	n := r.Intn(max)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randTime(r *rand.Rand) time.Time {
	if r.Intn(8) == 0 {
		return time.Time{}
	}
	return time.Unix(r.Int63n(4e9)-2e9, r.Int63n(1e9)).UTC()
}

func randID(r *rand.Rand, t testing.TB) id.NapletID {
	nid := id.MustNew(randString(r, 8)+"o", randString(r, 12)+"h", randTime(r))
	for r.Intn(3) == 0 {
		var err error
		if nid, err = nid.Clone(1 + r.Intn(15)); err != nil {
			t.Fatal(err)
		}
	}
	return nid
}

func randPattern(r *rand.Rand, depth int) *itinerary.Pattern {
	if depth <= 0 || r.Intn(3) == 0 {
		return itinerary.Singleton(itinerary.Visit{
			Server: randString(r, 10),
			Guard:  randString(r, 6),
			Action: randString(r, 6),
		})
	}
	n := 1 + r.Intn(3)
	subs := make([]*itinerary.Pattern, n)
	for i := range subs {
		subs[i] = randPattern(r, depth-1)
	}
	switch r.Intn(3) {
	case 0:
		return itinerary.Seq(subs...)
	case 1:
		return itinerary.Alt(subs...)
	default:
		return itinerary.Par(subs...)
	}
}

func randRecord(r *rand.Rand, t testing.TB) *Record {
	rec := &Record{
		ID:       randID(r, t),
		Codebase: randString(r, 16),
		Home:     randString(r, 12),
		Pending: itinerary.Visit{
			Server: randString(r, 10),
			Action: randString(r, 6),
		},
		Failover: FailoverPolicy(randString(r, 5)),
		CloneSeq: r.Intn(100),
	}
	rec.Credential = cred.Credential{
		NapletID:  rec.ID,
		Codebase:  rec.Codebase,
		IssuedAt:  randTime(r),
		ExpiresAt: randTime(r),
	}
	for i := r.Intn(4); i > 0; i-- {
		rec.Credential.Roles = append(rec.Credential.Roles, randString(r, 8))
	}
	if r.Intn(2) == 0 {
		rec.Credential.Signature = []byte(randString(r, 32))
	}
	if r.Intn(4) != 0 {
		st := state.New()
		for i := r.Intn(5); i > 0; i-- {
			if err := st.SetPublic(randString(r, 8)+"k", randString(r, 20)); err != nil {
				t.Fatal(err)
			}
		}
		rec.State = st
	}
	if r.Intn(4) != 0 {
		rec.Itin = &itinerary.Itinerary{}
		if r.Intn(4) != 0 {
			rec.Itin.Remaining = randPattern(r, 3)
		}
	}
	if r.Intn(4) != 0 {
		book := NewAddressBook()
		for i := r.Intn(4); i > 0; i-- {
			book.Add(randID(r, t), "naplet://"+randString(r, 10))
		}
		rec.Book = book
	}
	if r.Intn(4) != 0 {
		log := NewNavigationLog()
		for i := r.Intn(4); i > 0; i-- {
			at := randTime(r)
			log.RecordArrival(randString(r, 8), at)
			if r.Intn(2) == 0 {
				log.RecordDeparture(randString(r, 8), at.Add(time.Second))
			}
		}
		rec.Log = log
	}
	for i := r.Intn(3); i > 0; i-- {
		if r.Intn(4) == 0 {
			rec.PendingAlts = append(rec.PendingAlts, nil)
		} else {
			rec.PendingAlts = append(rec.PendingAlts, randPattern(r, 2))
		}
	}
	return rec
}

func TestRecordEncodeDecodeEncodeIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rec := randRecord(r, t)
		enc := rec.AppendBinary(nil)
		dec, err := DecodeRecordBinary(enc)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		re := dec.AppendBinary(nil)
		if !bytes.Equal(enc, re) {
			t.Fatalf("iter %d: encode→decode→encode not byte-identical\n enc %x\n  re %x", i, enc, re)
		}
	}
}

func TestMessageEncodeDecodeEncodeIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		msg := Message{
			ID:      randString(r, 12),
			From:    randID(r, t),
			To:      randID(r, t),
			Class:   MessageClass(r.Intn(2)),
			Control: ControlVerb(randString(r, 6)),
			Subject: randString(r, 16),
			SentAt:  randTime(r),
		}
		if r.Intn(3) != 0 {
			msg.Body = []byte(randString(r, 40))
		}
		enc := msg.AppendBinary(nil)
		dec, rest, err := DecodeMessageBinary(enc)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("iter %d: %d bytes left over", i, len(rest))
		}
		re := dec.AppendBinary(nil)
		if !bytes.Equal(enc, re) {
			t.Fatalf("iter %d: encode→decode→encode not byte-identical", i)
		}
	}
}

func TestDecodeRecordRejectsBadInput(t *testing.T) {
	rec := goldenRecord(t)
	enc := rec.AppendBinary(nil)

	if _, err := DecodeRecordBinary(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := DecodeRecordBinary([]byte("XX")); err == nil {
		t.Error("bad magic accepted")
	}
	// One decoder: the retired versions are refused by number like any
	// unknown one, never parsed.
	for _, v := range []byte{1, 2, 99} {
		other := append([]byte(nil), enc...)
		other[2] = v
		if _, err := DecodeRecordBinary(other); err == nil || !strings.Contains(err.Error(), "unsupported record codec version") {
			t.Errorf("version %d: %v, want the unsupported-version error", v, err)
		}
	}
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeRecordBinary(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	trailing := append(append([]byte(nil), enc...), 0x00)
	if _, err := DecodeRecordBinary(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// logRoundTrip encodes and decodes a log, checking the size function on
// the way.
func logRoundTrip(t *testing.T, log *NavigationLog) (*NavigationLog, []byte) {
	t.Helper()
	enc := log.AppendBinary(nil)
	dec, rest, err := DecodeLogBinary(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, len(rest))
	}
	if re := dec.AppendBinary(nil); !bytes.Equal(enc, re) {
		t.Fatalf("encode→decode→encode not byte-identical:\n %x\n %x", enc, re)
	}
	return dec, enc
}

// TestLogTimesTravelAsDeltas: readings taken from the real clock — with
// monotonic parts, a clock that steps back between two of them, an open
// last hop, reroutes — come back Equal, the open hop's departure still
// zero, and a hop costs a handful of bytes, not two absolute times.
func TestLogTimesTravelAsDeltas(t *testing.T) {
	now := time.Now() // carries a monotonic reading
	log := NewNavigationLog()
	at := now
	var want []time.Time
	for i, step := range []time.Duration{0, 180 * time.Microsecond, 40 * time.Microsecond, -3 * time.Second, 75 * time.Microsecond, time.Millisecond} {
		at = at.Add(step)
		want = append(want, at)
		server := "dock" + string(rune('0'+i/2))
		if i%2 == 0 {
			log.RecordArrival(server, at)
		} else if err := log.RecordDeparture(server, at); err != nil {
			t.Fatal(err)
		}
	}
	log.RecordArrival("dock3", at.Add(time.Second)) // open: no departure yet
	log.RecordReroute(Reroute{Visit: "dock9", Policy: "skip", Detail: "refused", At: at.Add(-time.Minute)})
	log.RecordReroute(Reroute{Visit: "dock8", Policy: "skip", Detail: "refused"}) // zero time

	dec, _ := logRoundTrip(t, log)
	hops := dec.Hops()
	if len(hops) != 4 {
		t.Fatalf("%d hops decoded, want 4", len(hops))
	}
	for i, h := range hops[:3] {
		if !h.Arrive.Equal(want[2*i]) || !h.Depart.Equal(want[2*i+1]) {
			t.Errorf("hop %d: %v → %v, want %v → %v", i, h.Arrive, h.Depart, want[2*i], want[2*i+1])
		}
	}
	if open := hops[3]; !open.Arrive.Equal(at.Add(time.Second)) || !open.Depart.IsZero() {
		t.Errorf("open hop: %v → %v, want %v → zero", open.Arrive, open.Depart, at.Add(time.Second))
	}
	rr := dec.Reroutes()
	if len(rr) != 2 || !rr[0].At.Equal(at.Add(-time.Minute)) || !rr[1].At.IsZero() {
		t.Errorf("reroutes %+v", rr)
	}

	// What it is for: a tour's hops are microseconds apart, so after the
	// one absolute time (11 bytes) a closed hop's two times take 8 bytes
	// where two absolute ones took 22.
	tour := NewNavigationLog()
	at = now
	for i := 0; i < 8; i++ {
		tour.RecordArrival("dock0", at.Add(200*time.Microsecond))
		at = at.Add(300 * time.Microsecond)
		if err := tour.RecordDeparture("dock0", at); err != nil {
			t.Fatal(err)
		}
	}
	if _, enc := logRoundTrip(t, tour); len(enc) > 2+11+8*(6+8) {
		t.Errorf("8 closed hops take %d bytes, want at most %d", len(enc), 2+11+8*(6+8))
	}

	// Times too far apart for a Duration fall back to the absolute form.
	far := NewNavigationLog()
	far.RecordArrival("a", time.Date(1, 1, 1, 0, 0, 1, 0, time.UTC))
	far.RecordArrival("b", now)
	fdec, _ := logRoundTrip(t, far)
	if h := fdec.Hops(); !h[0].Arrive.Equal(time.Date(1, 1, 1, 0, 0, 1, 0, time.UTC)) || !h[1].Arrive.Equal(now) {
		t.Errorf("far-apart hops: %+v", h)
	}
}

// TestLogDecodeRejectsNonCanonicalTimes: a delta with nothing before it, an
// absolute time where a delta would have done, a time flag past the three
// defined.
func TestLogDecodeRejectsNonCanonicalTimes(t *testing.T) {
	abs := wire.AppendTime(nil, goldenTime)
	hop := func(arrive, depart []byte) []byte {
		b := append([]byte{1, 1, 'a'}, arrive...)
		return append(append(b, depart...), 0) // one hop, no reroutes
	}
	if _, _, err := DecodeLogBinary(hop(abs, []byte{timeDelta, 2})); err != nil {
		t.Fatalf("absolute then delta: %v", err)
	}
	for name, enc := range map[string][]byte{
		"delta before any absolute time": hop([]byte{timeDelta, 2}, []byte{0}),
		"delta after only a zero time":   hop([]byte{0}, []byte{timeDelta, 2}),
		"absolute where a delta fits":    hop(abs, wire.AppendTime(nil, goldenTime.Add(time.Second))),
		"unknown time flag":              hop(abs, []byte{3, 2}),
		"truncated delta":                hop(abs, []byte{timeDelta, 0x80}),
	} {
		if _, _, err := DecodeLogBinary(enc); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: %v, want wire.ErrMalformed", name, err)
		}
	}
}

// TestBookDecodeRejectsUnorderedEntries: the same identifier twice (the
// second used to win silently) or entries out of identifier order.
func TestBookDecodeRejectsUnorderedEntries(t *testing.T) {
	a, b := id.MustNew("amgr", "sb2", goldenTime), id.MustNew("czxu", "sa1", goldenTime)
	entry := func(dst []byte, n id.NapletID) []byte { return wire.AppendString(n.AppendBinary(dst), "naplet://x") }
	if _, _, err := DecodeBookBinary(entry(entry([]byte{2}, a), b)); err != nil {
		t.Fatalf("ordered book: %v", err)
	}
	for name, enc := range map[string][]byte{
		"repeated":   entry(entry([]byte{2}, a), a),
		"descending": entry(entry([]byte{2}, b), a),
	} {
		if _, _, err := DecodeBookBinary(enc); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: %v, want wire.ErrMalformed", name, err)
		}
	}
}
