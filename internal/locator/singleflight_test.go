package locator

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/id"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// slowDirectory is a directory stub whose Lookup blocks until released,
// counting calls — the window that lets duplicate lookups pile up.
type slowDirectory struct {
	mu      sync.Mutex
	calls   int
	release chan struct{}
	entry   directory.Entry
}

func (d *slowDirectory) RegisterEvent(context.Context, directory.Registration) error { return nil }
func (d *slowDirectory) DeregisterServer(context.Context, string) error              { return nil }

func (d *slowDirectory) Lookup(ctx context.Context, nid id.NapletID) (directory.Entry, error) {
	d.mu.Lock()
	d.calls++
	d.mu.Unlock()
	<-d.release
	return d.entry, nil
}

func attachIdle(t *testing.T, net *netsim.Network, addr string) transport.Node {
	t.Helper()
	node, err := net.Attach(addr, func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, errors.New("unexpected")
	})
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// Concurrent Locates for the same naplet must coalesce onto a single
// directory round trip.
func TestSingleflightSuppressesDuplicateLookups(t *testing.T) {
	net := netsim.New(netsim.Config{})
	node := attachIdle(t, net, "s1")
	dir := &slowDirectory{
		release: make(chan struct{}),
		entry:   directory.Entry{Server: "s7"},
	}
	loc := New(Config{Mode: ModeDirectory, Directory: dir}, node, nil, nil)

	const callers = 16
	var wg sync.WaitGroup
	results := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			server, err := loc.Locate(context.Background(), nid, "")
			if err != nil {
				t.Error(err)
			}
			results[i] = server
		}(i)
	}
	// Let the herd assemble behind the leader, then release the lookup.
	for {
		loc.mu.Lock()
		waiting := loc.met.singleflight.Value()
		loc.mu.Unlock()
		if waiting == callers-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(dir.release)
	wg.Wait()

	for _, server := range results {
		if server != "s7" {
			t.Fatalf("results: %v", results)
		}
	}
	if dir.calls != 1 {
		t.Fatalf("directory calls = %d, want 1", dir.calls)
	}
	if s := loc.Stats(); s.Singleflight != callers-1 || s.Directory != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// A push-invalidation with the destination refreshes the cache in place;
// the next Locate answers from cache with no directory round trip.
func TestHandleInvalidateRefreshesCache(t *testing.T) {
	r := newRig(t, ModeDirectory, time.Minute)
	ctx := context.Background()
	cnode := attachIdle(t, r.net, "reg")
	directory.NewClient(cnode, "dir").Register(ctx, nid, directory.Arrival, "s7", t0)

	if server, _ := r.s1Loc.Locate(ctx, nid, ""); server != "s7" {
		t.Fatalf("warmup: %q", server)
	}

	f := wire.BinaryFrame(wire.KindLocatorInvalidate, "s7", "s1", &InvalidateBody{NapletID: nid, Server: "s9"})
	if _, err := r.s1Loc.HandleInvalidate("s7", f); err != nil {
		t.Fatal(err)
	}
	server, err := r.s1Loc.Locate(ctx, nid, "")
	if err != nil || server != "s9" {
		t.Fatalf("after push: %q %v", server, err)
	}
	s := r.s1Loc.Stats()
	if s.Directory != 1 {
		t.Fatalf("push refresh must not cost a lookup: %+v", s)
	}
	if s.PushInval != 1 {
		t.Fatalf("stats: %+v", s)
	}

	// A destination-less notice just drops the entry; the next Locate goes
	// back to the directory.
	f = wire.BinaryFrame(wire.KindLocatorInvalidate, "s9", "s1", &InvalidateBody{NapletID: nid})
	if _, err := r.s1Loc.HandleInvalidate("s9", f); err != nil {
		t.Fatal(err)
	}
	if server, _ := r.s1Loc.Locate(ctx, nid, ""); server != "s7" {
		t.Fatalf("after drop: %q", server)
	}
	if s := r.s1Loc.Stats(); s.Directory != 2 {
		t.Fatalf("drop must force a lookup: %+v", s)
	}
}

func TestLocatorBodyCodecRoundTrip(t *testing.T) {
	q := QueryBody{NapletID: nid}
	buf := q.AppendBinary(nil)
	var qb QueryBody
	if err := qb.Decode(buf); err != nil || qb.NapletID.Key() != nid.Key() {
		t.Fatalf("query round trip: %+v %v", qb, err)
	}

	rep := ReplyBody{Found: true, Server: "s3"}
	buf = rep.AppendBinary(nil)
	var rb ReplyBody
	if err := rb.Decode(buf); err != nil || rb != rep {
		t.Fatalf("reply round trip: %+v %v", rb, err)
	}

	inv := InvalidateBody{NapletID: nid, Server: "s4"}
	buf = inv.AppendBinary(nil)
	var ib InvalidateBody
	if err := ib.Decode(buf); err != nil || ib.NapletID.Key() != nid.Key() || ib.Server != "s4" {
		t.Fatalf("invalidate round trip: %+v %v", ib, err)
	}
}
