package navigator

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/directory"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/wire"
)

var t0 = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)

type nullAgent struct{}

func (nullAgent) OnStart(ctx *naplet.Context) error { return nil }

func newRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name:       "test.Agent",
		New:        func() naplet.Behavior { return nullAgent{} },
		BundleSize: 2048,
	})
	return reg
}

// node is one navigator endpoint on the fabric.
type node struct {
	nav    *Navigator
	mgr    *manager.Manager
	cache  *registry.Cache
	landed chan *naplet.Record

	quiet     bool // a benchmark's node keeps no transfers
	mu        sync.Mutex
	transfers []TransferBody // every transfer frame received, in order
}

func (n *node) received() []TransferBody {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]TransferBody(nil), n.transfers...)
}

func attach(t *testing.T, net *netsim.Network, name string, reg *registry.Registry, sec *security.Manager, cfg Config, dirAddr ...string) *node {
	t.Helper()
	return attachOn(t, net, name, reg, sec, cfg, dirAddr...)
}

// attachOn is attach over any fabric — tests that wrap the network in a
// fault injector pass the injected fabric here. The navigator is named by
// the address the fabric gave it (a TCP fabric asked for port 0 picks one).
// A dirAddr makes the navigator register arrivals with the directory there,
// through its own node.
func attachOn(t testing.TB, fab transport.Fabric, addr string, reg *registry.Registry, sec *security.Manager, cfg Config, dirAddr ...string) *node {
	t.Helper()
	n := &node{
		cache:  registry.NewCache(),
		landed: make(chan *naplet.Record, 8),
	}
	tnode, err := fab.Attach(addr, func(from string, f wire.Frame) (wire.Frame, error) {
		switch f.Kind {
		case wire.KindLandingRequest:
			return n.nav.HandleLandingRequest(from, f)
		case wire.KindNapletTransfer:
			var body TransferBody
			if !n.quiet && body.Decode(f.Payload) == nil {
				n.mu.Lock()
				n.transfers = append(n.transfers, TransferBody{TransferID: body.TransferID, Code: append([]byte(nil), body.Code...)})
				n.mu.Unlock()
			}
			return n.nav.HandleTransfer(from, f)
		case wire.KindCodeFetch:
			return n.nav.HandleCodeFetch(from, f)
		case wire.KindHomeEvent:
			return n.nav.HandleHomeEvent(from, f)
		default:
			return wire.Frame{}, errors.New("unexpected kind " + string(f.Kind))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range dirAddr {
		cfg.Directory = directory.NewClient(tnode, addr)
	}
	name := tnode.Addr()
	n.mgr = manager.New(name, func() time.Time { return time.Now() })
	n.nav = New(cfg, name, tnode, sec, n.mgr, reg, n.cache, nil)
	n.nav.SetLandFunc(func(rec *naplet.Record, source string) { n.landed <- rec })
	return n
}

// recordN is record with a distinct naplet ID per n.
func recordN(t *testing.T, home string, n int) *naplet.Record {
	t.Helper()
	rec := record(t, nil, home)
	rec.ID = id.MustNew("czxu", home, t0.Add(time.Duration(n)*time.Second))
	rec.Credential.NapletID = rec.ID
	return rec
}

func record(t *testing.T, ring *cred.KeyRing, home string) *naplet.Record {
	t.Helper()
	nid := id.MustNew("czxu", home, t0)
	c := cred.Credential{NapletID: nid, Codebase: "test.Agent"}
	if ring != nil {
		var err error
		c, err = ring.Issue(nid, "test.Agent", nil, t0, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
	}
	itin := itinerary.MustNew(itinerary.SeqVisits([]string{"b"}, ""))
	rec := naplet.NewRecord(nid, c, "test.Agent", home, itin)
	rec.Log.RecordArrival(home, t0)
	return rec
}

func TestDispatchPushMode(t *testing.T) {
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{CodeDelivery: Push})
	b := attach(t, net, "b", reg, nil, Config{CodeDelivery: Push})

	rec := record(t, nil, "a")
	a.mgr.RecordArrival(rec.ID, rec.Codebase, "origin", time.Now())
	bd, err := a.nav.Dispatch(context.Background(), rec, "b")
	if err != nil {
		t.Fatal(err)
	}
	if bd.RecordBytes <= 0 {
		t.Fatalf("breakdown: %+v", bd)
	}
	if bd.CodeBytes != 2048 {
		t.Fatalf("cold cache must push the 2 KiB bundle: %+v", bd)
	}
	select {
	case got := <-b.landed:
		if !got.ID.Equal(rec.ID) {
			t.Fatalf("landed %v", got.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("naplet never landed")
	}
	cold := net.TotalStats().BytesSent
	if cold < 2048 {
		t.Fatalf("cold dispatch sent %d bytes, less than the 2 KiB bundle", cold)
	}
	// Origin trace records the departure.
	tr := a.mgr.TraceNaplet(rec.ID)
	if tr.Present || tr.Dest != "b" {
		t.Fatalf("origin trace: %+v", tr)
	}
	// Destination trace records presence.
	if !b.mgr.TraceNaplet(rec.ID).Present {
		t.Fatal("destination trace")
	}
	// Second dispatch of a same-codebase naplet pushes no code.
	rec2 := record(t, nil, "a")
	rec2ID, _ := rec2.ID.Clone(1)
	rec2.ID = rec2ID
	rec2.Credential.NapletID = rec2ID
	a.mgr.RecordArrival(rec2.ID, rec2.Codebase, "origin", time.Now())
	bd2, err := a.nav.Dispatch(context.Background(), rec2, "b")
	if err != nil {
		t.Fatal(err)
	}
	if bd2.CodeBytes != 0 {
		t.Fatalf("warm cache must not push code: %+v", bd2)
	}
	select {
	case <-b.landed:
	case <-time.After(time.Second):
		t.Fatal("second naplet never landed")
	}
	// The warm dispatch saves at least the bundle: it also skips the landing
	// request, so one that carried the code would still undercut the cold one.
	if warm := net.TotalStats().BytesSent - cold; warm+2048 > cold {
		t.Fatalf("warm dispatch sent %d bytes, not the 2 KiB bundle fewer than the cold one's %d", warm, cold)
	}
	if s := b.cache.Stats(); s.BytesFetched != 2048 {
		t.Fatalf("cache stats: %+v", s)
	}
}

func TestDispatchPullMode(t *testing.T) {
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	home := attach(t, net, "a", reg, nil, Config{CodeDelivery: Pull})
	b := attach(t, net, "b", reg, nil, Config{CodeDelivery: Pull})

	rec := record(t, nil, "a")
	home.mgr.RecordArrival(rec.ID, rec.Codebase, "origin", time.Now())
	bd, err := home.nav.Dispatch(context.Background(), rec, "b")
	if err != nil {
		t.Fatal(err)
	}
	// Pull mode: the transfer carries no code; the destination fetched it
	// from the home server.
	if bd.CodeBytes != 0 {
		t.Fatalf("pull mode must not attach code: %+v", bd)
	}
	<-b.landed
	if b.nav.Stats().CodePulled != 1 {
		t.Fatalf("stats: %+v", b.nav.Stats())
	}
	if home.nav.Stats().CodeServed != 1 {
		t.Fatalf("home stats: %+v", home.nav.Stats())
	}
	if s := b.cache.Stats(); s.BytesFetched != 2048 {
		t.Fatalf("cache stats: %+v", s)
	}
}

func TestDispatchLaunchDenied(t *testing.T) {
	ring := cred.NewKeyRing()
	ring.Register("czxu", []byte("k"))
	deny := security.Policy{Default: security.Deny}
	sec := security.NewManager(ring, deny, nil)

	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, sec, Config{})
	attach(t, net, "b", reg, nil, Config{})

	rec := record(t, ring, "a")
	if _, err := a.nav.Dispatch(context.Background(), rec, "b"); !errors.Is(err, ErrLaunchDenied) {
		t.Fatalf("want ErrLaunchDenied, got %v", err)
	}
}

func TestDispatchLandingDenied(t *testing.T) {
	ring := cred.NewKeyRing()
	ring.Register("czxu", []byte("k"))
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{})
	deny := security.Policy{Default: security.Deny}
	attach(t, net, "b", reg, security.NewManager(ring, deny, nil), Config{})

	rec := record(t, ring, "a")
	if _, err := a.nav.Dispatch(context.Background(), rec, "b"); !errors.Is(err, ErrLandingDenied) {
		t.Fatalf("want ErrLandingDenied, got %v", err)
	}
}

func TestAdmitVeto(t *testing.T) {
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{})
	b := attach(t, net, "b", reg, nil, Config{})
	b.nav.SetAdmitFunc(func(req LandingRequestBody) error {
		return errors.New("no capacity")
	})
	rec := record(t, nil, "a")
	_, err := a.nav.Dispatch(context.Background(), rec, "b")
	if !errors.Is(err, ErrLandingDenied) || !strings.Contains(err.Error(), "no capacity") {
		t.Fatalf("want capacity refusal, got %v", err)
	}
	if b.nav.Stats().Refused != 1 {
		t.Fatalf("stats: %+v", b.nav.Stats())
	}
}

func TestTransferCredentialMismatchRejected(t *testing.T) {
	// A record whose credential certifies a different naplet is rejected at
	// transfer time even if the landing request looked fine.
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{})
	attach(t, net, "b", reg, nil, Config{})

	rec := record(t, nil, "a")
	other := id.MustNew("mallory", "a", t0)
	rec.Credential.NapletID = other // forged
	a.mgr.RecordArrival(rec.ID, rec.Codebase, "origin", time.Now())
	_, err := a.nav.Dispatch(context.Background(), rec, "b")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
}

func TestDirectoryEventOrdering(t *testing.T) {
	// The destination's ARRIVAL is the hop's one directory write and
	// supersedes the entry the previous stop left (§4.1).
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	svc := directory.NewService()
	if _, err := svc.Serve(net, "dir"); err != nil {
		t.Fatal(err)
	}
	a := attach(t, net, "a", reg, nil, Config{}, "dir")
	b := attach(t, net, "b", reg, nil, Config{}, "dir")
	_ = b

	rec := record(t, nil, "a")
	a.mgr.RecordArrival(rec.ID, rec.Codebase, "origin", time.Now())
	if _, err := a.nav.Dispatch(context.Background(), rec, "b"); err != nil {
		t.Fatal(err)
	}
	entries := svc.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("snapshot: %+v", entries)
	}
	if entries[0].Event != directory.Arrival || entries[0].Server != "b" {
		t.Fatalf("latest directory record must be the arrival at b: %+v", entries[0])
	}
}

// TestDispatchFailureRestoresDirectory: the directory names the server
// where the live copy is after a dispatch that did not cleanly succeed. The
// origin writes nothing around a transfer, so a refused transfer leaves the
// entry at the origin, and a transfer whose ack was lost leaves the
// destination's arrival standing: lookups resolve to the copy that runs,
// not the held one the origin is about to end (the server package's
// TestLostTransferAckMailFollowsLiveCopy drives a Messenger.Post through
// the same state).
func TestDispatchFailureRestoresDirectory(t *testing.T) {
	setup := func(t *testing.T, fab func(transport.Fabric) transport.Fabric) (*directory.Service, *node, *node, *naplet.Record) {
		net := netsim.New(netsim.Config{})
		reg := newRegistry(t)
		svc := directory.NewService()
		if _, err := svc.Serve(net, "dir"); err != nil {
			t.Fatal(err)
		}
		f := fab(net)
		a := attachOn(t, f, "a", reg, nil, Config{}, "dir")
		b := attachOn(t, f, "b", reg, nil, Config{}, "dir")
		rec := record(t, nil, "a")
		a.mgr.RecordArrival(rec.ID, rec.Codebase, "origin", time.Now())
		a.nav.RegisterArrival(context.Background(), rec, time.Now())
		return svc, a, b, rec
	}
	at := func(t *testing.T, svc *directory.Service, want string) {
		t.Helper()
		entries := svc.Snapshot()
		if len(entries) != 1 || entries[0].Event != directory.Arrival || entries[0].Server != want {
			t.Fatalf("directory must hold one arrival at %s: %+v", want, entries)
		}
	}

	t.Run("refused transfer", func(t *testing.T) {
		svc, a, _, rec := setup(t, func(f transport.Fabric) transport.Fabric { return f })
		// Granted by the landing request, rejected by the transfer-time
		// credential check.
		rec.Credential.NapletID = id.MustNew("other", "a", t0)
		if _, err := a.nav.Dispatch(context.Background(), rec, "b"); !errors.Is(err, ErrRejected) {
			t.Fatalf("want ErrRejected, got %v", err)
		}
		at(t, svc, "a")
	})

	t.Run("lost transfer ack", func(t *testing.T) {
		inj := fault.New(fault.Config{
			Seed:  1,
			P:     fault.Probabilities{DropReply: 1},
			Kinds: func(k wire.Kind) bool { return k == wire.KindNapletTransfer },
		})
		svc, a, b, rec := setup(t, inj.Fabric)
		if _, err := a.nav.Dispatch(context.Background(), rec, "b"); !errors.Is(err, ErrTransferUnresolved) {
			t.Fatalf("want ErrTransferUnresolved, got %v", err)
		}
		<-b.landed
		at(t, svc, "b")
	})
}

func TestHomeEventReporting(t *testing.T) {
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	home := attach(t, net, "a", reg, nil, Config{ReportHome: true})
	b := attach(t, net, "b", reg, nil, Config{ReportHome: true})
	_ = b

	rec := record(t, nil, "a")
	home.mgr.RecordArrival(rec.ID, rec.Codebase, "origin", time.Now())
	if _, err := home.nav.Dispatch(context.Background(), rec, "b"); err != nil {
		t.Fatal(err)
	}
	// The home manager learned the naplet's location from the destination's
	// arrival report.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if server, ok := home.mgr.HomeLocate(rec.ID); ok && server == "b" {
			break
		}
		if time.Now().After(deadline) {
			server, ok := home.mgr.HomeLocate(rec.ID)
			t.Fatalf("home track = %q %v, want b", server, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestEncodeDecodeRecordRoundTrip(t *testing.T) {
	rec := record(t, nil, "a")
	rec.State.SetPrivate("k", 7)
	rec.Pending = itinerary.Visit{Server: "b", Action: "act"}
	rec.CloneSeq = 3
	data, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ID.Equal(rec.ID) || got.Pending.Server != "b" || got.CloneSeq != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	if v, _ := got.State.Get("k"); v.(int) != 7 {
		t.Fatal("state lost")
	}
	if _, err := DecodeRecord([]byte("junk")); err == nil {
		t.Fatal("junk must not decode")
	}
}

func TestCodeDeliveryString(t *testing.T) {
	if Push.String() != "push" || Pull.String() != "pull" {
		t.Fatal("mode names")
	}
}

// TestNewTransferIDDistinctAcrossBoots guards the durable-dock interaction:
// destinations persist their accepted-transfer window across restarts, so a
// restarted server must not re-mint the IDs its previous incarnation used —
// otherwise its first fresh dispatch is absorbed as a replay and the naplet
// is acked without ever landing.
func TestNewTransferIDDistinctAcrossBoots(t *testing.T) {
	cache := registry.NewCache()
	a := New(Config{}, "s1", nil, nil, nil, nil, cache, nil)
	b := New(Config{}, "s1", nil, nil, nil, nil, cache, nil)
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		for _, n := range []*Navigator{a, b} {
			tid := n.NewTransferID()
			if seen[tid] {
				t.Fatalf("transfer ID %q minted twice across incarnations", tid)
			}
			seen[tid] = true
		}
	}
}

// TestDispatchDigestAliasSkipsCode proves the content-addressed bundle
// cache at the wire level: a destination that already holds a bundle with
// the dispatched codebase's digest — cached under a different codebase
// name — answers the landing negotiation with NeedCode=false, so the warm
// server never refetches identical code.
func TestDispatchDigestAliasSkipsCode(t *testing.T) {
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{CodeDelivery: Push})
	b := attach(t, net, "b", reg, nil, Config{CodeDelivery: Push})

	dig, err := reg.BundleDigest("test.Agent")
	if err != nil {
		t.Fatal(err)
	}
	// Warm b by content only: the bundle arrived earlier under another
	// codebase name.
	b.cache.LoadedDigest("test.AgentV1Alias", dig, 2048)

	rec := record(t, nil, "a")
	a.mgr.RecordArrival(rec.ID, rec.Codebase, "origin", time.Now())
	bd, err := a.nav.Dispatch(context.Background(), rec, "b")
	if err != nil {
		t.Fatal(err)
	}
	if bd.CodeBytes != 0 {
		t.Fatalf("digest-warm destination must not be pushed code: %+v", bd)
	}
	<-b.landed
	s := b.cache.Stats()
	if s.AliasHits != 1 {
		t.Fatalf("cache stats: %+v", s)
	}
	if s.BytesFetched != 2048 {
		t.Fatalf("no new bytes may be fetched: %+v", s)
	}
}

// blockingDirectory stalls the first Arrival registration until released,
// holding a landing open mid-HandleTransfer — before the dedup window is
// marked — so a concurrent replay of the same transfer ID can race it.
type blockingDirectory struct {
	gate    chan struct{}
	arrived chan struct{}
	first   atomic.Bool
}

func (d *blockingDirectory) RegisterEvent(ctx context.Context, r directory.Registration) error {
	if d.first.CompareAndSwap(false, true) {
		close(d.arrived)
		<-d.gate
	}
	return nil
}

func (d *blockingDirectory) Lookup(ctx context.Context, nid id.NapletID) (directory.Entry, error) {
	return directory.Entry{}, errors.New("not tracked")
}

func (d *blockingDirectory) DeregisterServer(ctx context.Context, server string) error { return nil }

func TestConcurrentTransferReplaySingleFlights(t *testing.T) {
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	dir := &blockingDirectory{gate: make(chan struct{}), arrived: make(chan struct{})}
	dst := attach(t, net, "b", reg, nil, Config{Directory: dir})
	dst.cache.Loaded("test.Agent", 2048)

	rec := record(t, nil, "a")
	data, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	body := TransferBody{Record: data, TransferID: "a/boot/1"}
	f := wire.BinaryFrame(wire.KindNapletTransfer, "a", "b", &body)

	type outcome struct {
		ack TransferAckBody
		err error
	}
	results := make(chan outcome, 2)
	handle := func() {
		reply, err := dst.nav.HandleTransfer("a", f)
		var o outcome
		o.err = err
		if err == nil {
			o.err = o.ack.Decode(reply.Payload)
		}
		results <- o
	}
	go handle()
	// The first delivery is now mid-landing with the window unmarked:
	// exactly the race a retry after a lost acknowledgement hits.
	<-dir.arrived
	go handle()
	time.Sleep(10 * time.Millisecond)
	close(dir.gate)

	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !o.ack.Accepted {
			t.Fatalf("delivery %d refused: %s", i, o.ack.Reason)
		}
	}
	select {
	case <-dst.landed:
	case <-time.After(5 * time.Second):
		t.Fatal("transfer never landed")
	}
	select {
	case rec2 := <-dst.landed:
		t.Fatalf("concurrent replay landed a second copy of %v", rec2.ID)
	case <-time.After(50 * time.Millisecond):
	}
	if got := dst.nav.Stats().DupTransfers; got != 1 {
		t.Fatalf("DupTransfers = %d, want 1", got)
	}
}

// TestDispatchLostAckIsUnresolved covers the ghost-split guard: a
// transfer whose acknowledgement is lost has landed the naplet at the
// destination while the origin only sees an error. That error must carry
// ErrTransferUnresolved — the origin cannot tell this failure from a
// genuine loss, so its failover logic must not reroute (fork) the
// naplet. A replay under the same transfer ID, once the network heals,
// resolves the ambiguity through the destination's dedup window without
// landing a second copy.
func TestDispatchLostAckIsUnresolved(t *testing.T) {
	net := netsim.New(netsim.Config{})
	var dropping atomic.Bool
	dropping.Store(true)
	inj := fault.New(fault.Config{
		Seed: 1,
		P:    fault.Probabilities{DropReply: 1},
		Kinds: func(k wire.Kind) bool {
			return dropping.Load() && k == wire.KindNapletTransfer
		},
	})
	fabric := inj.Fabric(net)
	reg := newRegistry(t)
	org := attachOn(t, fabric, "a", reg, nil, Config{})
	dst := attachOn(t, fabric, "b", reg, nil, Config{})

	rec := record(t, nil, "a")
	tid := org.nav.NewTransferID()
	pol := transport.Backoff{Retries: 2, Initial: time.Millisecond, Max: time.Millisecond}
	_, err := org.nav.DispatchRetryID(context.Background(), rec, "b", tid, pol, nil)
	if err == nil {
		t.Fatal("dispatch with every ack dropped must fail")
	}
	if !errors.Is(err, ErrTransferUnresolved) {
		t.Fatalf("lost-ack dispatch error must be unresolved, got: %v", err)
	}
	// The side effect happened: the naplet is live at the destination.
	select {
	case <-dst.landed:
	case <-time.After(time.Second):
		t.Fatal("naplet never landed despite delivered transfers")
	}

	// Network heals: a replay of the same transfer ID is absorbed by the
	// dedup window — the dispatch succeeds without a second landing.
	dropping.Store(false)
	if _, err := org.nav.DispatchID(context.Background(), rec, "b", tid); err != nil {
		t.Fatalf("replay after heal: %v", err)
	}
	select {
	case <-dst.landed:
		t.Fatal("replay landed a second copy")
	default:
	}

	// A pre-delivery refusal, by contrast, is provably not a landing:
	// dispatch to a crashed node must NOT be marked unresolved, so
	// failover stays allowed.
	inj.Crash("b")
	rec2 := record(t, nil, "a")
	_, err = org.nav.DispatchRetryID(context.Background(), rec2, "b", org.nav.NewTransferID(), pol, nil)
	if err == nil {
		t.Fatal("dispatch to crashed node must fail")
	}
	if errors.Is(err, ErrTransferUnresolved) {
		t.Fatalf("refused-before-delivery dispatch must stay resolved, got: %v", err)
	}
}

// prime dispatches one naplet a→b the two-step way, leaving a with proof
// that b accepts test.Agent's bundle.
func prime(t *testing.T, a, b *node) {
	t.Helper()
	if _, err := a.nav.Dispatch(context.Background(), recordN(t, "a", 100), "b"); err != nil {
		t.Fatal(err)
	}
	<-b.landed
	if got := a.nav.Stats().DirectTransfers; got != 0 {
		t.Fatalf("first contact skipped the landing request (%d direct)", got)
	}
}

// TestNeedCodeReask: a proven dock that lost its cache (evicted, restarted)
// answers the code-less direct transfer with NeedCode. The origin resends
// once, under the same transfer ID, with the bundle; the naplet lands once;
// and the proof is gone, so the dispatch after that asks first.
func TestNeedCodeReask(t *testing.T) {
	net := netsim.New(netsim.Config{})
	reg := newRegistry(t)
	a := attach(t, net, "a", reg, nil, Config{CodeDelivery: Push})
	b := attach(t, net, "b", reg, nil, Config{CodeDelivery: Push})
	prime(t, a, b)
	b.cache.Evict("test.Agent")

	tid := a.nav.NewTransferID()
	bd, err := a.nav.DispatchID(context.Background(), recordN(t, "a", 1), "b", tid)
	if err != nil {
		t.Fatal(err)
	}
	<-b.landed
	if bd.CodeBytes != 2048 || bd.Negotiation <= 0 {
		t.Fatalf("the re-ask pushes the bundle and counts as negotiation: %+v", bd)
	}
	got := b.received()[1:] // past the priming transfer
	if len(got) != 2 || got[0].TransferID != tid || got[1].TransferID != tid ||
		len(got[0].Code) != 0 || len(got[1].Code) != 2048 {
		t.Fatalf("want a code-less transfer and one resend with code under %q, got %+v", tid, got)
	}
	as, bs := a.nav.Stats(), b.nav.Stats()
	if as.DirectTransfers != 1 || as.CodeReasks != 1 || as.Dispatched != 2 {
		t.Fatalf("origin stats: %+v", as)
	}
	if bs.Landed != 2 || bs.DupTransfers != 0 {
		t.Fatalf("destination stats (one landing per dispatch, no replay): %+v", bs)
	}

	if _, err := a.nav.Dispatch(context.Background(), recordN(t, "a", 2), "b"); err != nil {
		t.Fatal(err)
	}
	if got := a.nav.Stats().DirectTransfers; got != 1 {
		t.Fatalf("the dispatch after a re-ask must ask first (%d direct)", got)
	}
}

// TestFailedCallDropsProof: the landing request is skipped only on fresh
// evidence. A failed call to the destination drops the proof, and proof is
// ignored while the failure detector does not hold the peer alive — either
// way the next attempt is the two-step path, whose loss is never ambiguous.
func TestFailedCallDropsProof(t *testing.T) {
	net := netsim.New(netsim.Config{CallTimeout: 5 * time.Millisecond})
	reg := newRegistry(t)
	hd := health.New(health.Config{})
	a := attach(t, net, "a", reg, nil, Config{Health: hd})
	b := attach(t, net, "b", reg, nil, Config{})
	prime(t, a, b)
	dispatch := func(n int) error {
		t.Helper()
		_, err := a.nav.Dispatch(context.Background(), recordN(t, "a", n), "b")
		if err == nil {
			<-b.landed
		}
		return err
	}
	direct := func() int64 { return a.nav.Stats().DirectTransfers }

	if err := dispatch(1); err != nil || direct() != 1 {
		t.Fatalf("proven dock: err=%v direct=%d, want a direct transfer", err, direct())
	}

	net.Partition("a", "b", true)
	if err := dispatch(2); err == nil || direct() != 2 {
		t.Fatalf("partitioned: err=%v direct=%d, want a failed direct transfer", err, direct())
	}
	net.Partition("a", "b", false)
	if err := dispatch(3); err != nil || direct() != 2 {
		t.Fatalf("after a failed call: err=%v direct=%d, want the two-step path", err, direct())
	}
	if err := dispatch(4); err != nil || direct() != 3 {
		t.Fatalf("re-proven: err=%v direct=%d, want a direct transfer", err, direct())
	}

	for i := 0; i < health.DefaultSuspectThreshold; i++ {
		hd.ReportFailure("b") // as the messenger or the directory plane would
	}
	if err := dispatch(5); err != nil || direct() != 3 {
		t.Fatalf("suspect peer: err=%v direct=%d, want the two-step path", err, direct())
	}
	hd.ReportSuccess("b")
	if err := dispatch(6); err != nil || direct() != 4 {
		t.Fatalf("peer alive again: err=%v direct=%d, want a direct transfer", err, direct())
	}
}

// TestDirectTransferWarmHits: what made a landing warm on the two-step
// path makes it warm on the direct one. A pull-mode destination with a cold
// cache fetches from the naplet's home instead of re-asking, and a
// destination holding the bundle under another name lands by digest alias.
func TestDirectTransferWarmHits(t *testing.T) {
	t.Run("pull", func(t *testing.T) {
		net := netsim.New(netsim.Config{})
		reg := newRegistry(t)
		a := attach(t, net, "a", reg, nil, Config{CodeDelivery: Pull})
		b := attach(t, net, "b", reg, nil, Config{CodeDelivery: Pull})
		prime(t, a, b)
		b.cache.Evict("test.Agent")

		bd, err := a.nav.Dispatch(context.Background(), recordN(t, "a", 1), "b")
		if err != nil {
			t.Fatal(err)
		}
		<-b.landed
		as, bs := a.nav.Stats(), b.nav.Stats()
		if bd.CodeBytes != 0 || as.DirectTransfers != 1 || as.CodeReasks != 0 || bs.CodePulled != 2 {
			t.Fatalf("pull mode fetches from home, never re-asks: %+v origin %+v destination %+v", bd, as, bs)
		}
	})
	t.Run("digest alias", func(t *testing.T) {
		net := netsim.New(netsim.Config{})
		reg := newRegistry(t)
		a := attach(t, net, "a", reg, nil, Config{CodeDelivery: Push})
		b := attach(t, net, "b", reg, nil, Config{CodeDelivery: Push})
		prime(t, a, b)
		dig, err := reg.BundleDigest("test.Agent")
		if err != nil {
			t.Fatal(err)
		}
		// The name goes cold; the bytes stay, under another name.
		b.cache.LoadedDigest("test.AgentV1Alias", dig, 2048)
		b.cache.Evict("test.Agent")

		bd, err := a.nav.Dispatch(context.Background(), recordN(t, "a", 1), "b")
		if err != nil {
			t.Fatal(err)
		}
		<-b.landed
		as, cs := a.nav.Stats(), b.cache.Stats()
		if bd.CodeBytes != 0 || as.DirectTransfers != 1 || as.CodeReasks != 0 || cs.AliasHits != 1 {
			t.Fatalf("digest-warm destination lands without code: %+v origin %+v cache %+v", bd, as, cs)
		}
	})
}
