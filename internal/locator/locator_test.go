package locator

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/id"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/wire"
)

var (
	t0  = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)
	nid = id.MustNew("czxu", "home", t0) // home server is "home"
)

// rig wires a netsim with a directory at "dir", a home server at "home"
// answering locator queries from its manager, and a querying server "s1".
type rig struct {
	net     *netsim.Network
	dir     *directory.Service
	homeMgr *manager.Manager
	s1Mgr   *manager.Manager
	s1Loc   *Locator
	clock   *time.Time
}

func newRig(t *testing.T, mode Mode, ttl time.Duration) *rig {
	t.Helper()
	now := t0
	r := &rig{net: netsim.New(netsim.Config{}), clock: &now}
	clock := func() time.Time { return *r.clock }

	r.dir = directory.NewService()
	if _, err := r.dir.Serve(r.net, "dir"); err != nil {
		t.Fatal(err)
	}

	r.homeMgr = manager.New("home", clock)
	var homeLoc *Locator
	homeNode, err := r.net.Attach("home", func(from string, f wire.Frame) (wire.Frame, error) {
		if f.Kind == wire.KindLocatorQuery {
			return homeLoc.HandleQuery(from, f)
		}
		return wire.Frame{}, errors.New("unexpected kind")
	})
	if err != nil {
		t.Fatal(err)
	}
	homeLoc = New(Config{Mode: mode, Directory: directory.NewClient(homeNode, "dir")}, homeNode, r.homeMgr, clock)

	r.s1Mgr = manager.New("s1", clock)
	s1Node, err := r.net.Attach("s1", func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, errors.New("unexpected")
	})
	if err != nil {
		t.Fatal(err)
	}
	r.s1Loc = New(Config{Mode: mode, Directory: directory.NewClient(s1Node, "dir"), CacheTTL: ttl}, s1Node, r.s1Mgr, clock)
	return r
}

func TestDirectoryMode(t *testing.T) {
	r := newRig(t, ModeDirectory, 0)
	ctx := context.Background()
	// Register via a directory client as a navigator would.
	cnode, _ := r.net.Attach("reg", func(string, wire.Frame) (wire.Frame, error) { return wire.Frame{}, nil })
	dc := directory.NewClient(cnode, "dir")
	dc.Register(ctx, nid, directory.Arrival, "s7", t0)

	server, err := r.s1Loc.Locate(ctx, nid, "")
	if err != nil || server != "s7" {
		t.Fatalf("Locate = %q %v", server, err)
	}
	if r.s1Loc.Stats().Directory != 1 {
		t.Fatalf("stats: %+v", r.s1Loc.Stats())
	}
}

func TestDirectoryModeFallbackToHint(t *testing.T) {
	r := newRig(t, ModeDirectory, 0)
	// Unregistered naplet: lookup fails, locator degrades to the caller's
	// address-book hint.
	server, err := r.s1Loc.Locate(context.Background(), nid, "hinted")
	if err != nil || server != "hinted" {
		t.Fatalf("fallback = %q %v", server, err)
	}
	// Without a hint the error surfaces.
	if _, err := r.s1Loc.Locate(context.Background(), nid, ""); err == nil {
		t.Fatal("no hint: want error")
	}
	if r.s1Loc.Stats().Failures != 2 {
		t.Fatalf("failures: %+v", r.s1Loc.Stats())
	}
}

func TestHomeMode(t *testing.T) {
	r := newRig(t, ModeHome, 0)
	// The home manager learned the naplet is at s9 from a remote arrival
	// report.
	r.homeMgr.HomeRecord(nid, "s9", true, 1, t0)
	server, err := r.s1Loc.Locate(context.Background(), nid, "")
	if err != nil || server != "s9" {
		t.Fatalf("home mode Locate = %q %v", server, err)
	}
	if r.s1Loc.Stats().HomeQuery != 1 {
		t.Fatalf("stats: %+v", r.s1Loc.Stats())
	}
}

func TestHomeModeLocalShortcut(t *testing.T) {
	r := newRig(t, ModeHome, 0)
	// A naplet whose home is this server resolves without network traffic.
	localNid := id.MustNew("u", "s1", t0)
	r.s1Mgr.HomeRecord(localNid, "s3", true, 1, t0)
	server, err := r.s1Loc.Locate(context.Background(), localNid, "")
	if err != nil || server != "s3" {
		t.Fatalf("local home = %q %v", server, err)
	}
	if r.s1Loc.Stats().HomeQuery != 0 {
		t.Fatal("local home lookup must not query the network")
	}
	// Unknown local home naplet fails without hint.
	unknown := id.MustNew("x", "s1", t0)
	if _, err := r.s1Loc.Locate(context.Background(), unknown, ""); err == nil {
		t.Fatal("unknown local naplet must fail")
	}
}

func TestHomeModeViaPresence(t *testing.T) {
	r := newRig(t, ModeHome, 0)
	// The home server hosts the naplet right now (no home-track entry, but
	// the visit trace shows presence).
	r.homeMgr.RecordArrival(nid, "cb", "launch", t0)
	server, err := r.s1Loc.Locate(context.Background(), nid, "")
	if err != nil || server != "home" {
		t.Fatalf("presence-based home answer = %q %v", server, err)
	}
}

func TestForwardMode(t *testing.T) {
	r := newRig(t, ModeForward, 0)
	server, err := r.s1Loc.Locate(context.Background(), nid, "book-entry")
	if err != nil || server != "book-entry" {
		t.Fatalf("forward mode = %q %v", server, err)
	}
	if _, err := r.s1Loc.Locate(context.Background(), nid, ""); !errors.Is(err, ErrNoHint) {
		t.Fatalf("want ErrNoHint, got %v", err)
	}
	// Forward mode does no lookups.
	s := r.s1Loc.Stats()
	if s.Directory != 0 || s.HomeQuery != 0 {
		t.Fatalf("forward mode must not look up: %+v", s)
	}
}

func TestLocalPresenceShortcut(t *testing.T) {
	r := newRig(t, ModeDirectory, 0)
	r.s1Mgr.RecordArrival(nid, "cb", "home", t0)
	server, err := r.s1Loc.Locate(context.Background(), nid, "")
	if err != nil || server != "s1" {
		t.Fatalf("local shortcut = %q %v", server, err)
	}
	if r.s1Loc.Stats().Directory != 0 {
		t.Fatal("local presence must not hit the directory")
	}
}

func TestCacheHitAndTTL(t *testing.T) {
	r := newRig(t, ModeDirectory, time.Minute)
	ctx := context.Background()
	cnode, _ := r.net.Attach("reg", func(string, wire.Frame) (wire.Frame, error) { return wire.Frame{}, nil })
	directory.NewClient(cnode, "dir").Register(ctx, nid, directory.Arrival, "s7", t0)

	r.s1Loc.Locate(ctx, nid, "")
	r.s1Loc.Locate(ctx, nid, "")
	s := r.s1Loc.Stats()
	if s.Directory != 1 || s.CacheHits != 1 {
		t.Fatalf("cache not used: %+v", s)
	}
	// Expire the cache.
	*r.clock = t0.Add(2 * time.Minute)
	r.s1Loc.Locate(ctx, nid, "")
	s = r.s1Loc.Stats()
	if s.Directory != 2 || s.CacheEvict != 1 {
		t.Fatalf("TTL not applied: %+v", s)
	}
}

func TestInvalidateAndRefresh(t *testing.T) {
	r := newRig(t, ModeDirectory, time.Minute)
	ctx := context.Background()
	cnode, _ := r.net.Attach("reg", func(string, wire.Frame) (wire.Frame, error) { return wire.Frame{}, nil })
	directory.NewClient(cnode, "dir").Register(ctx, nid, directory.Arrival, "s7", t0)

	r.s1Loc.Locate(ctx, nid, "")
	r.s1Loc.Invalidate(nid)
	r.s1Loc.Locate(ctx, nid, "")
	if s := r.s1Loc.Stats(); s.Directory != 2 {
		t.Fatalf("invalidate not honored: %+v", s)
	}
	// Refresh (e.g. from a migration notice) primes the cache.
	r.s1Loc.Refresh(nid, "s8")
	server, _ := r.s1Loc.Locate(ctx, nid, "")
	if server != "s8" {
		t.Fatalf("refresh not used: %q", server)
	}
}

// TestConfirmedYieldsToANotice: a delivery confirmation refreshes the
// cache only where it still names the dock the post was routed to (or
// holds nothing). A migration notice that landed while the post was in
// flight names a later dock, and the confirmation — which can only name
// the dock the naplet was at when the post arrived — must not write the
// older one back.
func TestConfirmedYieldsToANotice(t *testing.T) {
	r := newRig(t, ModeDirectory, time.Minute)
	ctx := context.Background()
	cnode, _ := r.net.Attach("reg", func(string, wire.Frame) (wire.Frame, error) { return wire.Frame{}, nil })
	directory.NewClient(cnode, "dir").Register(ctx, nid, directory.Arrival, "s7", t0)
	locate := func(want string) {
		t.Helper()
		if server, err := r.s1Loc.Locate(ctx, nid, ""); err != nil || server != want {
			t.Fatalf("Locate = %q, %v; want %q", server, err, want)
		}
	}

	locate("s7") // the post is routed to s7
	r.s1Loc.Refresh(nid, "s9")
	r.s1Loc.Confirmed(nid, "s7", "s7")
	locate("s9")

	// A chase that ran past the routed dock refreshes an entry that still
	// names it.
	r.s1Loc.Confirmed(nid, "s9", "s10")
	locate("s10")

	// So does a confirmation with nothing cached: a post routed on its
	// hint, or one whose entry a notice without a destination dropped.
	r.s1Loc.Invalidate(nid)
	r.s1Loc.Confirmed(nid, "s10", "s11")
	locate("s11")
	if s := r.s1Loc.Stats(); s.Directory != 1 || s.CacheHits != 3 {
		t.Fatalf("every location after the first must come from the cache: %+v", s)
	}

	// Without a cache a confirmation has nothing to refresh.
	nc := newRig(t, ModeDirectory, 0)
	nc.s1Loc.Confirmed(nid, "", "s8")
	if server, _ := nc.s1Loc.Locate(ctx, nid, "hint"); server != "hint" || nc.s1Loc.Stats().CacheHits != 0 {
		t.Fatalf("a cacheless locator answered %q from a confirmation", server)
	}
}

func TestMissThresholdInvalidatesCache(t *testing.T) {
	r := newRig(t, ModeDirectory, time.Minute)
	ctx := context.Background()
	cnode, _ := r.net.Attach("reg", func(string, wire.Frame) (wire.Frame, error) { return wire.Frame{}, nil })
	directory.NewClient(cnode, "dir").Register(ctx, nid, directory.Arrival, "s7", t0)

	r.s1Loc.Locate(ctx, nid, "")
	// One delivery miss is tolerated (the naplet may just be mid-hop); the
	// cached answer survives.
	if r.s1Loc.Miss(nid) {
		t.Fatal("first miss must not invalidate")
	}
	r.s1Loc.Locate(ctx, nid, "")
	if s := r.s1Loc.Stats(); s.Directory != 1 || s.CacheHits != 1 {
		t.Fatalf("cache dropped after a single miss: %+v", s)
	}
	// The second consecutive miss crosses the default threshold.
	if !r.s1Loc.Miss(nid) {
		t.Fatal("second consecutive miss must invalidate")
	}
	r.s1Loc.Locate(ctx, nid, "")
	s := r.s1Loc.Stats()
	if s.Directory != 2 {
		t.Fatalf("stale entry served after miss eviction: %+v", s)
	}
	if s.MissEvict != 1 {
		t.Fatalf("MissEvict = %d, want 1", s.MissEvict)
	}
}

func TestMissStreakResetBySuccess(t *testing.T) {
	r := newRig(t, ModeDirectory, time.Minute)
	ctx := context.Background()
	cnode, _ := r.net.Attach("reg", func(string, wire.Frame) (wire.Frame, error) { return wire.Frame{}, nil })
	directory.NewClient(cnode, "dir").Register(ctx, nid, directory.Arrival, "s7", t0)

	r.s1Loc.Locate(ctx, nid, "")
	r.s1Loc.Miss(nid)
	// A successful resolution (fresh lookup or confirmation refresh) wipes
	// the streak: the next miss counts as the first again.
	r.s1Loc.Refresh(nid, "s7")
	if r.s1Loc.Miss(nid) {
		t.Fatal("streak must reset after a successful resolution")
	}
	if s := r.s1Loc.Stats(); s.MissEvict != 0 {
		t.Fatalf("MissEvict = %d, want 0", s.MissEvict)
	}
}

// TestMissWithoutCacheKeepsNothing: with no cache (TTL 0, every
// deployment's setting) a delivery miss has no entry to invalidate, so it
// must neither grow the streak table nor count an eviction.
func TestMissWithoutCacheKeepsNothing(t *testing.T) {
	r := newRig(t, ModeDirectory, 0)
	for i := 0; i < 1000; i++ {
		if r.s1Loc.Miss(id.MustNew("u", "h", t0.Add(time.Duration(i)*time.Second))) {
			t.Fatalf("miss %d invalidated an entry of a cacheless locator", i)
		}
	}
	r.s1Loc.Miss(nid) // two for one naplet: the threshold, with no entry behind it
	r.s1Loc.Miss(nid)
	r.s1Loc.mu.Lock()
	kept := len(r.s1Loc.misses)
	r.s1Loc.mu.Unlock()
	if kept != 0 {
		t.Fatalf("misses holds %d entries, want 0", kept)
	}
	if s := r.s1Loc.Stats(); s.MissEvict != 0 {
		t.Fatalf("MissEvict = %d, want 0", s.MissEvict)
	}
}

func TestModeString(t *testing.T) {
	if ModeDirectory.String() != "directory" || ModeHome.String() != "home" || ModeForward.String() != "forward" {
		t.Fatal("mode names")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode")
	}
	r := newRig(t, ModeHome, 0)
	if r.s1Loc.Mode() != ModeHome {
		t.Fatal("Mode()")
	}
}

// stallingDirectory answers no lookup: each blocks until its context ends.
type stallingDirectory struct{ directory.Directory }

func (stallingDirectory) Lookup(ctx context.Context, _ id.NapletID) (directory.Entry, error) {
	<-ctx.Done()
	return directory.Entry{}, ctx.Err()
}

// TestHandleQueryKeepsTheCallersBudget: a home query the manager cannot
// answer falls through to the directory, and that lookup runs within the
// budget the query frame carries, not a fresh 3 s of its own.
func TestHandleQueryKeepsTheCallersBudget(t *testing.T) {
	clock := func() time.Time { return t0 }
	home := New(Config{Mode: ModeHome, Directory: stallingDirectory{}}, nil, manager.New("home", clock), clock)
	f := wire.BinaryFrame(wire.KindLocatorQuery, "s1", "home", &QueryBody{NapletID: nid})
	f.Seq = wire.PackBudget(1, 20*time.Millisecond)
	start := time.Now()
	reply, err := home.HandleQuery("s1", f)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("query with a 20ms budget answered after %v", took)
	}
	if err != nil {
		t.Fatal(err)
	}
	var body ReplyBody
	if err := body.Decode(reply.Payload); err != nil || body.Found {
		t.Fatalf("reply %+v, %v: want not found", body, err)
	}
	if got := home.Stats().Directory; got != 1 {
		t.Fatalf("%d directory lookups, want 1", got)
	}
}
