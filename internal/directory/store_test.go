package directory

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
)

// At equal At, the higher navigation-log sequence wins, so a
// retried duplicate of hop N cannot displace hop N+2 registered within the
// same clock tick.
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
	svc.DeregisterServer("s1")
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
	svc.DeregisterServer("s1")
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
