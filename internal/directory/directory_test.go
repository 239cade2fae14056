package directory

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/netsim"
	"repro/internal/wire"
)

var t0 = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)

func setup(t *testing.T) (*Service, *Client) {
	t.Helper()
	net := netsim.New(netsim.Config{})
	svc := NewService()
	if _, err := svc.Serve(net, "dir"); err != nil {
		t.Fatal(err)
	}
	node, err := net.Attach("client", func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc, NewClient(node, "dir")
}

func TestRegisterAndLookup(t *testing.T) {
	_, c := setup(t)
	nid := id.MustNew("u", "home", t0)
	ctx := context.Background()

	if err := c.Register(ctx, nid, Arrival, "s1", t0); err != nil {
		t.Fatal(err)
	}
	e, err := c.Lookup(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if e.Server != "s1" || e.Event != Arrival {
		t.Fatalf("entry = %+v", e)
	}

	if err := c.Register(ctx, nid, Arrival, "s2", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if e, _ = c.Lookup(ctx, nid); e.Server != "s2" {
		t.Fatalf("after the next arrival: %+v", e)
	}
}

func TestLookupUnknown(t *testing.T) {
	_, c := setup(t)
	nid := id.MustNew("u", "home", t0)
	if _, err := c.Lookup(context.Background(), nid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestStaleEventIgnored(t *testing.T) {
	svc, c := setup(t)
	nid := id.MustNew("u", "home", t0)
	ctx := context.Background()
	c.Register(ctx, nid, Arrival, "s2", t0.Add(10*time.Second))
	// An older report arriving late must not overwrite.
	c.Register(ctx, nid, Arrival, "s1", t0)
	e, _ := c.Lookup(ctx, nid)
	if e.Server != "s2" || e.Event != Arrival {
		t.Fatalf("stale event overwrote: %+v", e)
	}
	if svc.Stats().Registrations != 2 {
		t.Fatalf("stats: %+v", svc.Stats())
	}
}

func TestStatsAndSnapshot(t *testing.T) {
	svc, c := setup(t)
	ctx := context.Background()
	a := id.MustNew("a", "h", t0)
	b := id.MustNew("b", "h", t0)
	c.Register(ctx, a, Arrival, "s1", t0)
	c.Register(ctx, b, Arrival, "s2", t0)
	c.Lookup(ctx, a)
	c.Lookup(ctx, id.MustNew("ghost", "h", t0))

	s := svc.Stats()
	if s.Registrations != 2 || s.Lookups != 2 || s.Misses != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if len(svc.Snapshot()) != 2 {
		t.Fatalf("snapshot: %v", svc.Snapshot())
	}
}

func TestHandleRejectsWrongKind(t *testing.T) {
	svc := NewService()
	f, _ := wire.NewFrame(wire.KindPost, "a", "dir", &struct{}{})
	if _, err := svc.Handle("a", f); err == nil {
		t.Fatal("wrong kind must error")
	}
}

func TestEventString(t *testing.T) {
	if Arrival.String() != "arrival" || Event(1).String() != "event(1)" {
		t.Fatal("event names")
	}
}

func TestMultipleNapletsIndependent(t *testing.T) {
	_, c := setup(t)
	ctx := context.Background()
	orig := id.MustNew("u", "h", t0)
	clone, _ := orig.Clone(1)
	c.Register(ctx, orig, Arrival, "s1", t0)
	c.Register(ctx, clone, Arrival, "s2", t0)
	e1, _ := c.Lookup(ctx, orig)
	e2, _ := c.Lookup(ctx, clone)
	if e1.Server != "s1" || e2.Server != "s2" {
		t.Fatalf("clone tracking: %+v %+v", e1, e2)
	}
}
