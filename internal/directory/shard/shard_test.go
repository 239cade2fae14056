package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/id"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

var t0 = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("owner%d@host%d", i, i%17)
	}
	return out
}

// Placement must be a pure function of the member set: node-list order
// cannot matter, and repeated calls agree.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"dir1", "dir2", "dir3", "dir4"})
	b := NewRing([]string{"dir4", "dir2", "dir1", "dir3", "dir2"})
	for _, k := range keys(500) {
		oa := a.Owners(k, 2)
		ob := b.Owners(k, 2)
		if len(oa) != 2 || oa[0] != ob[0] || oa[1] != ob[1] {
			t.Fatalf("placement differs for %q: %v vs %v", k, oa, ob)
		}
		if oa[0] == oa[1] {
			t.Fatalf("duplicate owner for %q: %v", k, oa)
		}
	}
}

func TestRingClampsReplicas(t *testing.T) {
	r := NewRing([]string{"dir1", "dir2"})
	if got := r.Owners("k", 5); len(got) != 2 {
		t.Fatalf("owners = %v, want both nodes", got)
	}
	if got := r.Owners("k", 0); got != nil {
		t.Fatalf("owners(0) = %v", got)
	}
	if got := NewRing(nil).Owners("k", 1); got != nil {
		t.Fatalf("empty ring owners = %v", got)
	}
}

// Property: rendezvous placement is stable under leave — removing one of N
// nodes relocates only keys that listed it as an owner (≈ R·K/N), and
// every other key keeps its exact owner list.
func TestRingStabilityUnderLeave(t *testing.T) {
	const n, reps = 10, 2
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("dir%d", i)
	}
	full := NewRing(nodes)
	smaller := NewRing(nodes[1:]) // dir0 leaves

	ks := keys(10000)
	moved := 0
	for _, k := range ks {
		before := full.Owners(k, reps)
		after := smaller.Owners(k, reps)
		hadLeaver := before[0] == "dir0" || before[1] == "dir0"
		if !hadLeaver {
			if before[0] != after[0] || before[1] != after[1] {
				t.Fatalf("key %q moved without owning the leaver: %v -> %v", k, before, after)
			}
			continue
		}
		moved++
		// The surviving owner keeps its slot; only the leaver's slot is
		// refilled.
		for _, b := range before {
			if b == "dir0" {
				continue
			}
			if after[0] != b && after[1] != b {
				t.Fatalf("key %q dropped surviving owner %q: %v -> %v", k, b, before, after)
			}
		}
	}
	// Expected moved fraction is reps/n = 20%; allow generous slack for
	// hash variance.
	frac := float64(moved) / float64(len(ks))
	if frac < 0.10 || frac > 0.35 {
		t.Fatalf("moved fraction %.3f outside [0.10, 0.35] (want ≈ %.2f)", frac, float64(reps)/n)
	}
}

// Property: join is the inverse of leave — re-adding the node restores the
// original placement exactly.
func TestRingJoinRestoresPlacement(t *testing.T) {
	nodes := []string{"dir0", "dir1", "dir2", "dir3", "dir4"}
	full := NewRing(nodes)
	rejoined := NewRing(append([]string{"dir0"}, nodes[1:]...))
	for _, k := range keys(2000) {
		a, b := full.Owners(k, 3), rejoined.Owners(k, 3)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rejoin changed placement for %q: %v vs %v", k, a, b)
			}
		}
	}
}

// rig is a three-node directory plane on a simulated network with a fault
// injector between clients and the fabric.
type rig struct {
	net   *netsim.Network
	inj   *fault.Injector
	svcs  map[string]*directory.Service
	node  transport.Node
	nodes []string
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	net := netsim.New(netsim.Config{})
	inj := fault.New(fault.Config{Seed: seed})
	fab := inj.Fabric(net)
	r := &rig{
		net:   net,
		inj:   inj,
		svcs:  make(map[string]*directory.Service),
		nodes: []string{"dir1", "dir2", "dir3"},
	}
	for _, addr := range r.nodes {
		svc := directory.NewService()
		if _, err := svc.Serve(fab, addr); err != nil {
			t.Fatal(err)
		}
		r.svcs[addr] = svc
	}
	node, err := fab.Attach("client", func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.node = node
	return r
}

// Property: all replicas of a shard converge to the same entry after
// concurrent racing registrations, regardless of per-replica delivery
// order.
func TestReplicasConvergeUnderRacingRegistrations(t *testing.T) {
	r := newRig(t, 1)
	c := New(r.node, Config{Nodes: r.nodes, Replicas: 2})
	ctx := context.Background()

	nid := id.MustNew("u", "home", t0)
	events := []directory.Registration{
		{NapletID: nid, Event: directory.Arrival, Server: "s1", At: t0, Seq: 1},
		{NapletID: nid, Event: directory.Arrival, Server: "s2", At: t0.Add(time.Second), Seq: 3},
		{NapletID: nid, Event: directory.Arrival, Server: "s4", At: t0.Add(2 * time.Second), Seq: 4},
		{NapletID: nid, Event: directory.Arrival, Server: "s3", At: t0.Add(2 * time.Second), Seq: 5},
	}
	rng := rand.New(rand.NewSource(3))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		perm := rng.Perm(len(events))
		wg.Add(1)
		go func(perm []int) {
			defer wg.Done()
			for _, i := range perm {
				if err := c.RegisterEvent(ctx, events[i]); err != nil {
					t.Error(err)
				}
			}
		}(perm)
	}
	wg.Wait()

	owners := NewRing(r.nodes).Owners(KeyOf(nid), 2)
	var entries []directory.Entry
	for _, addr := range owners {
		e, ok := r.svcs[addr].Lookup(nid)
		if !ok {
			t.Fatalf("replica %s missing entry", addr)
		}
		entries = append(entries, e)
	}
	for _, e := range entries {
		if e.Event != directory.Arrival || e.Server != "s3" || e.Seq != 5 {
			t.Fatalf("replica diverged: %+v", e)
		}
	}
	// And the non-owner holds nothing: writes fan only to the group.
	for _, addr := range r.nodes {
		if addr == owners[0] || addr == owners[1] {
			continue
		}
		if _, ok := r.svcs[addr].Lookup(nid); ok {
			t.Fatalf("non-owner %s received the write", addr)
		}
	}
}

// Killing one replica after the write: the lookup fails over to the
// surviving replica and still reads the acknowledged registration.
func TestLookupFailsOverOnReplicaDeath(t *testing.T) {
	r := newRig(t, 2)
	det := health.New(health.Config{})
	c := New(r.node, Config{Nodes: r.nodes, Replicas: 2, Health: det})
	ctx := context.Background()

	nid := id.MustNew("u", "home", t0)
	if err := c.RegisterEvent(ctx, directory.Registration{
		NapletID: nid, Event: directory.Arrival, Server: "s1", At: t0, Seq: 1,
	}); err != nil {
		t.Fatal(err)
	}

	primary := NewRing(r.nodes).Owners(KeyOf(nid), 2)[0]
	r.inj.Crash(primary)

	e, err := c.Lookup(ctx, nid)
	if err != nil {
		t.Fatalf("lookup after replica death: %v", err)
	}
	if e.Server != "s1" {
		t.Fatalf("entry = %+v", e)
	}
	if c.Stats().Failovers == 0 {
		t.Fatalf("failover not counted: %+v", c.Stats())
	}

	// Writes keep succeeding against the survivor …
	if err := c.RegisterEvent(ctx, directory.Registration{
		NapletID: nid, Event: directory.Arrival, Server: "s9", At: t0.Add(time.Minute), Seq: 3,
	}); err != nil {
		t.Fatalf("register with dead replica: %v", err)
	}
	// … and remain readable.
	if e, err = c.Lookup(ctx, nid); err != nil || e.Server != "s9" {
		t.Fatalf("read-your-writes after failover: %+v %v", e, err)
	}
}

// A replica that missed the write (down during registration) answers
// not-found; the group must still satisfy the read from the replica that
// acked — read-your-writes under partial write failure.
func TestLookupFansThroughNotFound(t *testing.T) {
	r := newRig(t, 3)
	c := New(r.node, Config{Nodes: r.nodes, Replicas: 2})
	ctx := context.Background()

	nid := id.MustNew("u", "home", t0)
	owners := NewRing(r.nodes).Owners(KeyOf(nid), 2)

	// Write while the primary is down: only the secondary acks.
	r.inj.Crash(owners[0])
	if err := c.RegisterEvent(ctx, directory.Registration{
		NapletID: nid, Event: directory.Arrival, Server: "s1", At: t0, Seq: 1,
	}); err != nil {
		t.Fatalf("register with primary down: %v", err)
	}
	// Primary recovers empty (no anti-entropy yet) and answers not-found.
	r.inj.Restart(owners[0])
	e, err := c.Lookup(ctx, nid)
	if err != nil {
		t.Fatalf("lookup must fan through the empty primary: %v", err)
	}
	if e.Server != "s1" {
		t.Fatalf("entry = %+v", e)
	}
}

func TestLookupUnknownNotFound(t *testing.T) {
	r := newRig(t, 4)
	c := New(r.node, Config{Nodes: r.nodes, Replicas: 2})
	_, err := c.Lookup(context.Background(), id.MustNew("ghost", "h", t0))
	if !errors.Is(err, directory.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// DeregisterServer reaches every node: a server's entries live on
// arbitrary shards.
func TestDeregisterServerBroadcasts(t *testing.T) {
	r := newRig(t, 5)
	c := New(r.node, Config{Nodes: r.nodes, Replicas: 2})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		nid := id.MustNew(fmt.Sprintf("u%d", i), "home", t0)
		if err := c.RegisterEvent(ctx, directory.Registration{
			NapletID: nid, Event: directory.Arrival, Server: "s1", At: t0, Seq: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DeregisterServer(ctx, "s1", nil); err != nil {
		t.Fatal(err)
	}
	for _, addr := range r.nodes {
		if n := r.svcs[addr].Len(); n != 0 {
			t.Fatalf("node %s still holds %d entries", addr, n)
		}
	}
}
