package directory

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
)

// The higher navigation-log sequence wins, so a retried duplicate of hop N
// cannot displace hop N+2 registered within the same clock tick.
func TestEqualTimestampSeqBreaksSameKind(t *testing.T) {
	svc := NewService()
	nid := id.MustNew("u", "home", t0)
	svc.Register(RegisterBody{NapletID: nid, Event: Arrival, Server: "s5", At: t0, Seq: 5})
	svc.Register(RegisterBody{NapletID: nid, Event: Arrival, Server: "s3", At: t0, Seq: 3})
	e, ok := svc.Lookup(nid)
	if !ok || e.Server != "s5" || e.Seq != 5 {
		t.Fatalf("lower-seq duplicate overwrote: %+v", e)
	}
}

// The log's order beats the docks' clocks: a registration made late, or by
// a dock whose clock runs ahead, does not displace a newer hop's.
func TestSeqBeatsSkewedClock(t *testing.T) {
	svc := NewService()
	nid := id.MustNew("u", "home", t0)
	svc.Register(RegisterBody{NapletID: nid, Event: Arrival, Server: "s5", At: t0, Seq: 5})
	svc.Register(RegisterBody{NapletID: nid, Event: Arrival, Server: "s3", At: t0.Add(time.Hour), Seq: 3})
	if e, ok := svc.Lookup(nid); !ok || e.Server != "s5" {
		t.Fatalf("an older hop on a clock running ahead won: %+v", e)
	}
	svc.Register(RegisterBody{NapletID: nid, Event: Arrival, Server: "s7", At: t0.Add(-time.Hour), Seq: 7})
	if e, ok := svc.Lookup(nid); !ok || e.Server != "s7" {
		t.Fatalf("a newer hop on a clock running behind lost: %+v", e)
	}
}

// A closing dock's forwards re-point the entries that still name it and
// are not newer than the forward; every other entry naming it goes, and
// entries naming other docks stay as they are.
func TestDeregisterServerRepointsForwards(t *testing.T) {
	svc := NewService()
	n := make([]id.NapletID, 4)
	for i := range n {
		n[i] = id.MustNew("u", "home", t0.Add(time.Duration(i)*time.Second))
	}
	svc.Register(RegisterBody{NapletID: n[0], Event: Arrival, Server: "s1", At: t0, Seq: 3})
	svc.Register(RegisterBody{NapletID: n[1], Event: Arrival, Server: "s1", At: t0, Seq: 5})
	svc.Register(RegisterBody{NapletID: n[2], Event: Arrival, Server: "s2", At: t0, Seq: 7})
	svc.Register(RegisterBody{NapletID: n[3], Event: Arrival, Server: "s1", At: t0, Seq: 9})
	svc.DeregisterServer("s1", []Forward{
		{NapletID: n[0], Server: "s2", Seq: 5}, // left s1 after registering there
		{NapletID: n[1], Server: "s3", Seq: 3}, // older than its entry
		{NapletID: n[2], Server: "s4", Seq: 9}, // its entry names s2 already
	})
	if e, ok := svc.Lookup(n[0]); !ok || e.Server != "s2" || e.Seq != 5 {
		t.Fatalf("forwarded entry = %+v, %v; want s2 at seq 5", e, ok)
	}
	if e, ok := svc.Lookup(n[2]); !ok || e.Server != "s2" || e.Seq != 7 {
		t.Fatalf("entry naming another dock moved: %+v, %v", e, ok)
	}
	for _, nid := range []id.NapletID{n[1], n[3]} {
		if e, ok := svc.Lookup(nid); ok {
			t.Fatalf("entry without a usable forward survived: %+v", e)
		}
	}
	// A newer registration still wins over the forward, and the forwarded
	// entry is indexed under its new dock.
	svc.Register(RegisterBody{NapletID: n[0], Event: Arrival, Server: "s3", At: t0, Seq: 4})
	if e, _ := svc.Lookup(n[0]); e.Server != "s2" {
		t.Fatalf("an older registration displaced the forward: %+v", e)
	}
	svc.DeregisterServer("s2", nil)
	if _, ok := svc.Lookup(n[0]); ok {
		t.Fatal("forwarded entry escaped its new dock's withdrawal")
	}
}

func TestDeregisterServerDropsOnlyItsEntries(t *testing.T) {
	svc := NewService()
	var onS1 []id.NapletID
	for i := 0; i < 200; i++ {
		nid := id.MustNew("u", "home", t0.Add(time.Duration(i)*time.Second))
		server := "s1"
		if i%2 == 1 {
			server = "s2"
		} else {
			onS1 = append(onS1, nid)
		}
		svc.Register(RegisterBody{NapletID: nid, Event: Arrival, Server: server, At: t0})
	}
	svc.DeregisterServer("s1", nil)
	if got := svc.Len(); got != 100 {
		t.Fatalf("after deregister: %d entries, want 100", got)
	}
	for _, nid := range onS1 {
		if _, ok := svc.Lookup(nid); ok {
			t.Fatalf("entry for deregistered server survived: %s", nid)
		}
	}
}

// A naplet that moved between registrations must leave the by-server index
// of its old server, or a later deregistration of that server would wrongly
// drop it.
func TestDeregisterAfterMoveKeepsMovedEntry(t *testing.T) {
	svc := NewService()
	nid := id.MustNew("u", "home", t0)
	svc.Register(RegisterBody{NapletID: nid, Event: Arrival, Server: "s1", At: t0, Seq: 1})
	svc.Register(RegisterBody{NapletID: nid, Event: Arrival, Server: "s2", At: t0.Add(time.Second), Seq: 3})
	svc.DeregisterServer("s1", nil)
	e, ok := svc.Lookup(nid)
	if !ok || e.Server != "s2" {
		t.Fatalf("moved entry lost on old-server deregister: %+v ok=%v", e, ok)
	}
}

// The supersedes rule is a deterministic total preference, so two replicas
// applying the same event set in any interleaving converge on the same
// entry. This is the single-node half of the shard-replica convergence
// property; internal/directory/shard tests the networked half.
func TestRegisterOrderIndependence(t *testing.T) {
	nid := id.MustNew("u", "home", t0)
	events := []RegisterBody{
		{NapletID: nid, Event: Arrival, Server: "s1", At: t0, Seq: 1},
		{NapletID: nid, Event: Arrival, Server: "s2", At: t0.Add(time.Second), Seq: 3},
		{NapletID: nid, Event: Arrival, Server: "s4", At: t0.Add(2 * time.Second), Seq: 4},
		{NapletID: nid, Event: Arrival, Server: "s3", At: t0.Add(2 * time.Second), Seq: 5},
	}
	want := Entry{NapletID: nid, Event: Arrival, Server: "s3", At: t0.Add(2 * time.Second), Seq: 5}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(events))
		svc := NewService()
		for _, i := range perm {
			svc.Register(events[i])
			// Retries duplicate events on the wire; replay a random prefix.
			svc.Register(events[perm[0]])
		}
		got, ok := svc.Lookup(nid)
		if !ok || got.NapletID.Key() != want.NapletID.Key() ||
			got.Event != want.Event || got.Server != want.Server ||
			!got.At.Equal(want.At) || got.Seq != want.Seq {
			t.Fatalf("perm %v diverged: got %+v want %+v", perm, got, want)
		}
	}
}

// Concurrent registrations and lookups across many goroutines: the striped
// store must stay consistent (exercised under -race by make verify).
func TestConcurrentRegisterLookup(t *testing.T) {
	svc := NewService()
	const naplets = 64
	ids := make([]id.NapletID, naplets)
	for i := range ids {
		ids[i] = id.MustNew("u", "home", t0.Add(time.Duration(i)*time.Minute))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				nid := ids[(w*500+i)%naplets]
				svc.Register(RegisterBody{
					NapletID: nid, Event: Arrival, Server: "s1",
					At: t0.Add(time.Duration(i) * time.Second), Seq: uint64(i),
				})
				svc.Lookup(nid)
			}
		}(w)
	}
	wg.Wait()
	if svc.Len() != naplets {
		t.Fatalf("len = %d, want %d", svc.Len(), naplets)
	}
}

func TestBodyCodecRoundTrip(t *testing.T) {
	nid := id.MustNew("u", "home", t0)
	reg := RegisterBody{NapletID: nid, Event: Arrival, Server: "s1", At: t0, Seq: 9}
	buf := reg.AppendBinary(nil)
	var back RegisterBody
	if err := back.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if back.NapletID.Key() != reg.NapletID.Key() || back.Event != reg.Event ||
		back.Server != reg.Server ||
		!back.At.Equal(reg.At) || back.Seq != reg.Seq {
		t.Fatalf("round trip: %+v != %+v", back, reg)
	}

	rep := ReplyBody{Found: true, Entry: Entry{NapletID: nid, Event: Arrival, Server: "s1", At: t0, Seq: 9}}
	buf = rep.AppendBinary(nil)
	var rback ReplyBody
	if err := rback.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if !rback.Found || rback.Entry.NapletID.Key() != rep.Entry.NapletID.Key() ||
		rback.Entry.Event != rep.Entry.Event || rback.Entry.Server != rep.Entry.Server ||
		!rback.Entry.At.Equal(rep.Entry.At) ||
		rback.Entry.Seq != rep.Entry.Seq {
		t.Fatalf("reply round trip: %+v != %+v", rback, rep)
	}

	miss := ReplyBody{Found: false}
	buf = miss.AppendBinary(nil)
	var mback ReplyBody
	if err := mback.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if mback.Found {
		t.Fatal("miss round trip found=true")
	}
}
