package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// robustAgent visits servers appending each name to its tour, optionally
// blocking at one server (to stage an evacuation), and reports the tour
// plus any navigation-log reroutes at the end of its life:
// "s1,s2|policy@<visit>|...".
type robustAgent struct {
	blockAt string
	arrived chan struct{}
}

func (a robustAgent) OnStart(ctx *naplet.Context) error {
	var tour []string
	ctx.State().Load("tour", &tour)
	tour = append(tour, ctx.Server)
	if err := ctx.State().SetPrivate("tour", tour); err != nil {
		return err
	}
	if a.blockAt != "" && ctx.Server == a.blockAt {
		if a.arrived != nil {
			select {
			case a.arrived <- struct{}{}:
			default:
			}
		}
		<-ctx.Cancel.Done()
		return ctx.Cancel.Err()
	}
	return nil
}

func (a robustAgent) OnDestroy(ctx *naplet.Context) {
	var tour []string
	ctx.State().Load("tour", &tour)
	parts := []string{strings.Join(tour, ",")}
	for _, r := range ctx.Log().Reroutes() {
		parts = append(parts, r.Policy+"@"+r.Visit)
	}
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctx.Listener.Report(rctx, []byte(strings.Join(parts, "|")))
}

func registerRobust(reg *registry.Registry) {
	reg.MustRegister(&registry.Codebase{
		Name: "test.Robust",
		New:  func() naplet.Behavior { return robustAgent{} },
	})
}

// launchRobust launches a robust agent with the given failover policy,
// waits for completion, and returns the report channel.
func launchRobust(t *testing.T, sp *space, codebase string, p *itinerary.Pattern, pol naplet.FailoverPolicy) chan string {
	t.Helper()
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: codebase,
		Pattern:  p,
		Failover: pol,
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	return results
}

func TestFailoverSkipDeadVisit(t *testing.T) {
	// "ghost" is never attached: the dispatch exhausts its budget and the
	// skip policy drops the visit, recording the reroute in the nav log.
	sp := newSpace(t, spaceOpts{}, "home", "s1", "s3")
	registerRobust(sp.reg)
	results := launchRobust(t, sp, "test.Robust",
		itinerary.SeqVisits([]string{"s1", "ghost", "s3"}, ""), naplet.FailoverSkip)
	got := <-results
	if got != "s1,s3|skip@<ghost>" {
		t.Fatalf("report = %q, want %q", got, "s1,s3|skip@<ghost>")
	}
}

func TestFailoverAlternatesReroute(t *testing.T) {
	// The Alt chose ghost (first unguarded branch); when it proves dead the
	// engine replaces the remaining itinerary with the unchosen sibling.
	sp := newSpace(t, spaceOpts{}, "home", "s1", "s2", "s3")
	registerRobust(sp.reg)
	p := itinerary.Seq(
		itinerary.Singleton(itinerary.Visit{Server: "s1"}),
		itinerary.Alt(
			itinerary.Singleton(itinerary.Visit{Server: "ghost"}),
			itinerary.Singleton(itinerary.Visit{Server: "s2"}),
		),
		itinerary.Singleton(itinerary.Visit{Server: "s3"}),
	)
	results := launchRobust(t, sp, "test.Robust", p, naplet.FailoverAlternates)
	got := <-results
	if got != "s1,s2,s3|alternate@<ghost>" {
		t.Fatalf("report = %q, want %q", got, "s1,s2,s3|alternate@<ghost>")
	}
}

func TestFailoverReturnHome(t *testing.T) {
	// The home policy abandons the tour at the dead stop: s3 is never
	// visited and the naplet completes back at its home server.
	sp := newSpace(t, spaceOpts{}, "home", "s1", "s3")
	registerRobust(sp.reg)
	results := launchRobust(t, sp, "test.Robust",
		itinerary.SeqVisits([]string{"s1", "ghost", "s3"}, ""), naplet.FailoverHome)
	got := <-results
	if got != "s1,home|home@<ghost>" {
		t.Fatalf("report = %q, want %q", got, "s1,home|home@<ghost>")
	}
}

func TestDrainEvacuatesResidents(t *testing.T) {
	// A naplet blocked mid-visit at s1 is evacuated by Drain: its visit is
	// interrupted, it takes refuge at home, and the drain leaves s1 empty
	// and refusing new work.
	sp := newSpace(t, spaceOpts{}, "home", "s1")
	arrived := make(chan struct{}, 1)
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.RobustArrive",
		New:  func() naplet.Behavior { return robustAgent{blockAt: "s1", arrived: arrived} },
	})
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.RobustArrive",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the naplet is established mid-visit at s1.
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("naplet never became resident at s1")
	}

	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sp.servers["s1"].Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !sp.servers["s1"].Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if n := sp.servers["s1"].Manager().Resident(); n != 0 {
		t.Fatalf("residents after drain = %d, want 0", n)
	}

	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	got := <-results
	if !strings.Contains(got, "evacuate@") {
		t.Fatalf("report = %q, want an evacuate reroute", got)
	}
	if !strings.HasPrefix(got, "s1,home|") {
		t.Fatalf("report = %q, want tour s1,home", got)
	}
}

func TestDrainRefusesLandings(t *testing.T) {
	sp := newSpace(t, spaceOpts{}, "home", "s1")
	dctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := sp.servers["s1"].Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusTrapped)
	_, errText, _ := sp.servers["home"].Status(nid)
	if !strings.Contains(errText, "draining") {
		t.Fatalf("trap error = %q, want a draining refusal", errText)
	}
}

func TestCloseWithdrawsDirectoryRegistrations(t *testing.T) {
	// Regression: a closed server used to leave its directory entries
	// behind, so peers kept dispatching naplets and mail at a dead dock.
	// A naplet registers where it stays, so an entry naming the closing
	// dock may also belong to one that left it without a word since: the
	// dock re-points that one along its visit trace, and it still gets
	// its mail.
	sp := newSpace(t, spaceOpts{mode: locator.ModeDirectory, directory: true}, "home", "s1", "s2")
	sp.reg.MustRegister(&registry.Codebase{Name: "test.Reporter", New: func() naplet.Behavior {
		return behaviorFunc(func(ctx *naplet.Context) error {
			return ctx.Listener.Report(ctx.Cancel, []byte(ctx.Server))
		})
	}})
	release := make(chan struct{})
	got := make(chan string, 1)
	sp.reg.MustRegister(&registry.Codebase{Name: "test.Quiet", New: func() naplet.Behavior {
		return behaviorFunc(func(ctx *naplet.Context) error {
			select {
			case <-release:
			case <-ctx.Cancel.Done():
				return ctx.Cancel.Err()
			}
			msg, err := ctx.Messenger.Receive(ctx.Cancel)
			if err != nil {
				return err
			}
			got <- ctx.Server + ":" + msg.Subject
			return nil
		})
	}})
	// The reporter registers at s1 by reporting home from there, and ends
	// there.
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Reporter",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	// The quiet naplet's launch at s1 registers it there; it moves on to
	// s2 (hop 1, not due) and says nothing. s1 closes once the naplet has
	// landed at s2, whether or not the transfer's ack is back at s1: its
	// trace, or its open migration, then forwards to s2.
	landed := make(chan struct{})
	sp.servers["s2"].SetEventSink(func(ev Event) {
		if ev.Kind == EventArrival {
			close(landed)
		}
	})
	quiet, err := sp.servers["s1"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Quiet",
		Pattern:  itinerary.SeqVisits([]string{"s2"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-landed:
	case <-time.After(10 * time.Second):
		t.Fatal("the quiet naplet never landed at s2")
	}

	onS1 := 0
	for _, e := range sp.dir.Snapshot() {
		if e.Server == "s1" {
			onS1++
		}
	}
	if onS1 != 2 {
		t.Fatalf("%d directory entries point at s1 before close, want 2; test is vacuous", onS1)
	}

	if err := sp.servers["s1"].Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range sp.dir.Snapshot() {
		if e.Server == "s1" {
			t.Fatalf("directory still holds %v -> s1 after Close", e.NapletID)
		}
	}
	if e, ok := sp.dir.Lookup(quiet); !ok || e.Server != "s2" || e.Seq != 3 {
		t.Fatalf("quiet naplet's entry = %+v, %v; want s2 at its arrival's seq 3", e, ok)
	}

	sender := naplet.NewRecord(id.MustNew("tx", "home", time.Now()), cred.Credential{}, "test.Quiet", "home", nil)
	sender.Book.Add(quiet, "s1") // a stale hint; the directory decides
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sp.servers["home"].Messenger().Post(ctx, sender, quiet, "wake", nil); err != nil {
		t.Fatalf("post to the quiet naplet after s1 closed: %v", err)
	}
	close(release)
	select {
	case where := <-got:
		if where != "s2:wake" {
			t.Fatalf("message received at %q, want s2:wake", where)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the quiet naplet never received the message")
	}
}

// TestCloseWithAckInFlightRepointsEntry: a dock that closes while the ack
// of a transfer is still on its way back re-points the naplet's entry at
// the destination, where it already runs, instead of dropping it — the
// origin records the departure only once the ack is in.
func TestCloseWithAckInFlightRepointsEntry(t *testing.T) {
	held := &heldAckFabric{acked: make(chan struct{}), release: make(chan struct{}), withdrawn: make(chan struct{})}
	sp := newSpace(t, spaceOpts{
		mode:      locator.ModeDirectory,
		directory: true,
		mutate: func(name string, cfg *Config) {
			if name == "s1" {
				held.inner = cfg.Fabric
				cfg.Fabric = held
			}
		},
	}, "s1", "s2")
	sp.reg.MustRegister(&registry.Codebase{Name: "test.Silent", New: func() naplet.Behavior {
		return behaviorFunc(func(ctx *naplet.Context) error {
			<-ctx.Cancel.Done()
			return ctx.Cancel.Err()
		})
	}})
	nid, err := sp.servers["s1"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Silent",
		Pattern:  itinerary.SeqVisits([]string{"s2"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held.acked:
	case <-time.After(10 * time.Second):
		t.Fatal("the transfer to s2 was never acknowledged")
	}
	if e, ok := sp.dir.Lookup(nid); !ok || e.Server != "s1" {
		t.Fatalf("entry before close = %+v, %v; want the launch's at s1", e, ok)
	}
	closed := make(chan error, 1)
	go func() { closed <- sp.servers["s1"].Close() }()
	select {
	case <-held.withdrawn:
	case <-time.After(10 * time.Second):
		t.Fatal("s1 never withdrew its registrations")
	}
	e, ok := sp.dir.Lookup(nid)
	close(held.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if !ok || e.Server != "s2" || e.Seq != 3 {
		t.Fatalf("entry after close = %+v, %v; want s2 at its arrival's seq 3", e, ok)
	}
}

// heldAckFabric holds the reply to a transfer its node sends until release
// closes, telling acked once the destination has answered, and tells
// withdrawn once a directory deregistration has been answered.
type heldAckFabric struct {
	inner                     transport.Fabric
	acked, release, withdrawn chan struct{}
}

func (h *heldAckFabric) Attach(addr string, handler transport.Handler) (transport.Node, error) {
	node, err := h.inner.Attach(addr, handler)
	if err != nil {
		return nil, err
	}
	return &heldAckNode{Node: node, h: h}, nil
}

type heldAckNode struct {
	transport.Node
	h *heldAckFabric
}

func (n *heldAckNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	reply, err := n.Node.Call(ctx, to, f)
	switch f.Kind {
	case wire.KindNapletTransfer:
		close(n.h.acked)
		<-n.h.release
	case wire.KindDirDeregister:
		close(n.h.withdrawn)
	}
	return reply, err
}
