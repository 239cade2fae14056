package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/monitor"
	"repro/internal/naplet"
	"repro/internal/navigator"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/state"
	"repro/internal/wire"
)

// failSpace builds a space on a lossy/partitionable netsim with custom
// server config knobs.
func failSpace(t *testing.T, netCfg netsim.Config, mutate func(*Config), names ...string) (*netsim.Network, map[string]*Server) {
	t.Helper()
	net := netsim.New(netCfg)
	reg := newTestRegistry(t)
	servers := make(map[string]*Server, len(names))
	for _, name := range names {
		cfg := Config{Name: name, Fabric: net, Registry: reg}
		if mutate != nil {
			mutate(&cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[name] = srv
	}
	return net, servers
}

func TestDispatchRetriesSurviveLoss(t *testing.T) {
	// ~40% frame loss: without retries most migrations fail; with retries
	// every tour completes.
	netCfg := netsim.Config{
		DefaultLink: netsim.Link{Loss: 0.4},
		Seed:        3,
		CallTimeout: time.Millisecond,
	}
	_, servers := failSpace(t, netCfg, func(c *Config) {
		c.DispatchRetries = 25
		c.DispatchRetryDelay = time.Millisecond
	}, "home", "s1", "s2")

	results := make(chan string, 1)
	nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2"}, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	// The report home may itself be lost (reports do not retry), so accept
	// either a completed status or a delivered report as proof of the tour.
	select {
	case got := <-results:
		if got != "s1,s2" {
			t.Fatalf("tour = %q", got)
		}
	default:
		if st != manager.StatusCompleted {
			t.Fatalf("status = %v and no report", st)
		}
	}
}

func TestDispatchFailsWithoutRetries(t *testing.T) {
	// A partitioned destination traps the naplet and the error reaches the
	// owner.
	net, servers := failSpace(t, netsim.Config{CallTimeout: time.Millisecond}, nil, "home", "s1")
	net.Partition("home", "s1", true)

	nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusTrapped {
		t.Fatalf("status = %v", st)
	}
	_, errText, _ := servers["home"].Status(nid)
	if !strings.Contains(errText, "dispatch to s1") {
		t.Fatalf("trap error = %q", errText)
	}
}

func TestPartitionHealsMidTour(t *testing.T) {
	// The partition heals while the engine is retrying: the tour recovers.
	net, servers := failSpace(t, netsim.Config{CallTimeout: time.Millisecond}, func(c *Config) {
		c.DispatchRetries = 100
		c.DispatchRetryDelay = 5 * time.Millisecond
	}, "home", "s1")
	net.Partition("home", "s1", true)

	nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let a few attempts fail
	net.Partition("home", "s1", false)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusCompleted {
		t.Fatalf("status after heal = %v", st)
	}
}

func TestLandingDeniedDoesNotRetry(t *testing.T) {
	// Policy refusals are authoritative: the engine must trap on the first
	// attempt, zero retries recorded (a single one would stall this test
	// for an hour).
	net, servers := failSpace(t, netsim.Config{}, func(c *Config) {
		c.DispatchRetries = 1000
		c.DispatchRetryDelay = time.Hour
	}, "home")
	reg := servers["home"].reg
	deny, err := New(Config{Name: "s1", Fabric: net, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { deny.Close() })
	deny.Navigator().SetAdmitFunc(func(navigatorLandingRequest) error {
		return errNoLanding
	})

	nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusTrapped {
		t.Fatalf("status = %v", st)
	}
	if got := servers["home"].Navigator().Stats().Retries; got != 0 {
		t.Fatalf("permanent denial burned %d retries, want 0", got)
	}
}

func TestDirectoryOutageFallsBackToBookHint(t *testing.T) {
	// Directory mode with the directory detached: posting still works via
	// the sender's address-book hint.
	net := netsim.New(netsim.Config{CallTimeout: time.Millisecond})
	reg := newTestRegistry(t)
	dir := directory.NewService()
	dirNode, err := dir.Serve(net, "dir")
	if err != nil {
		t.Fatal(err)
	}
	servers := make(map[string]*Server)
	for _, name := range []string{"home", "s1"} {
		srv, err := New(Config{
			Name: name, Fabric: net, Registry: reg,
			LocatorMode: locator.ModeDirectory, DirectoryAddrs: []string{"dir"},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[name] = srv
	}

	gotMsg := make(chan string, 1)
	servers["home"].reg.MustRegister(newCodebase("test.DirReceiver", func(ctx *naplet.Context) error {
		rctx, cancel := context.WithTimeout(ctx.Cancel, 8*time.Second)
		defer cancel()
		msg, err := ctx.Messenger.Receive(rctx)
		if err != nil {
			return err
		}
		gotMsg <- msg.Subject
		return nil
	}))

	recvID, err := servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "bob",
		Codebase: "test.DirReceiver",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for residency, then kill the directory.
	deadline := time.Now().Add(5 * time.Second)
	for servers["s1"].Manager().Resident() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("receiver never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	dirNode.Close()

	// A sender with a correct book hint still delivers.
	servers["home"].reg.MustRegister(newCodebase("test.DirSender", func(ctx *naplet.Context) error {
		ctx.AddressBook().Add(recvID, "s1")
		sctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
		defer cancel()
		return ctx.Messenger.Post(sctx, recvID, "ping", nil)
	}))
	_, err = servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "alice",
		Codebase: "test.DirSender",
		Pattern:  itinerary.SeqVisits([]string{"home"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-gotMsg:
		if got != "ping" {
			t.Fatalf("msg = %q", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("message lost during directory outage")
	}
}

// ---- helpers ----

// navigatorLandingRequest aliases the admit-hook parameter type.
type navigatorLandingRequest = navigator.LandingRequestBody

var errNoLanding = errors.New("refused by admission policy")

// newCodebase wraps a behaviour function into a registrable codebase.
func newCodebase(name string, f func(ctx *naplet.Context) error) *registry.Codebase {
	return &registry.Codebase{Name: name, New: func() naplet.Behavior { return behaviorFunc(f) }}
}

func TestSuspendResumeEndToEnd(t *testing.T) {
	// Suspend a touring naplet mid-flight via a system message; the tour
	// pauses; resume lets it complete (§2.2's suspend/resume verbs).
	_, servers := failSpace(t, netsim.Config{}, func(c *Config) {
		c.ReportHome = true
		c.LocatorMode = locator.ModeHome
	}, "home", "s1", "s2")

	// slowWorker does ~200 ms of interruptible work per visit, leaving a
	// wide window for the suspend cast to land mid-tour.
	servers["home"].reg.MustRegister(newCodebase("test.SlowWorker", func(ctx *naplet.Context) error {
		for i := 0; i < 40; i++ {
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Cancel.Done():
				return ctx.Cancel.Err()
			}
		}
		return nil
	}))

	nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.SlowWorker",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Suspend while working at s1.
	deadline := time.Now().Add(5 * time.Second)
	for servers["s1"].Manager().Resident() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never arrived at s1")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := servers["home"].Control(ctx, nid, naplet.ControlSuspend); err != nil {
		t.Fatal(err)
	}

	// While suspended, the tour must not complete.
	time.Sleep(150 * time.Millisecond)
	if st, _, _ := servers["home"].Status(nid); st == manager.StatusCompleted {
		t.Fatal("suspended naplet completed its tour")
	}

	if err := servers["home"].Control(ctx, nid, naplet.ControlResume); err != nil {
		t.Fatal(err)
	}
	st, err := servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusCompleted {
		t.Fatalf("status after resume = %v", st)
	}
}

func TestStateSurvivesLossyMigration(t *testing.T) {
	// Under loss with retries, the agent's accumulated state arrives
	// intact (the transfer is atomic: all-or-nothing per attempt).
	netCfg := netsim.Config{
		DefaultLink: netsim.Link{Loss: 0.3},
		Seed:        9,
		CallTimeout: time.Millisecond,
	}
	_, servers := failSpace(t, netCfg, func(c *Config) {
		c.DispatchRetries = 50
		c.DispatchRetryDelay = time.Millisecond
	}, "home", "s1", "s2", "s3")

	results := make(chan string, 1)
	nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2", "s3"}, ""),
		InitState: func(s *state.State) error {
			return s.SetPrivate("tour", []string{"seeded"})
		},
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-results:
		if got != "seeded,s1,s2,s3" {
			t.Fatalf("state corrupted in flight: %q", got)
		}
	default:
		if st != manager.StatusCompleted {
			t.Fatalf("status %v with no report", st)
		}
	}
}

func TestBandwidthBudgetKillsChattyNaplet(t *testing.T) {
	// §5.2: the monitor tracks network bandwidth; a naplet exceeding its
	// budget is killed mid-flight and the violation reaches the owner.
	_, servers := failSpace(t, netsim.Config{}, func(c *Config) {
		c.MonitorPolicy = monitor.Policy{MaxBandwidth: 300}
	}, "home", "s1")

	peer := id.MustNew("peer", "s1", time.Unix(1e9, 0))
	servers["home"].reg.MustRegister(newCodebase("test.Chatty", func(ctx *naplet.Context) error {
		ctx.AddressBook().Add(peer, "s1")
		for i := 0; i < 100; i++ {
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			err := ctx.Messenger.Post(sctx, peer, "spam", make([]byte, 200))
			cancel()
			if err != nil {
				return err // budget violation surfaces here
			}
		}
		return nil
	}))

	nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Chatty",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusTrapped {
		t.Fatalf("status = %v, want trapped by bandwidth budget", st)
	}
	_, errText, _ := servers["home"].Status(nid)
	if !strings.Contains(errText, "budget") {
		t.Fatalf("trap error = %q", errText)
	}
}

// TestUnresolvedDispatchTrapsInsteadOfForking is the engine half of the
// ghost-split guard. Every transfer is delivered but its acknowledgement
// is lost: the naplet lands (and stays, test.Sleeper) at s1 while home's
// dispatch exhausts its budget on an outcome it cannot resolve. A
// failover policy must NOT apply — skipping s1 and touring on from home
// would fork the naplet into two live copies. The engine holds (traps)
// the local copy instead, leaving recovery to the owner, and the copy at
// s1 remains the only one.
func TestUnresolvedDispatchTrapsInsteadOfForking(t *testing.T) {
	net := netsim.New(netsim.Config{})
	inj := fault.New(fault.Config{
		Seed:  1,
		P:     fault.Probabilities{DropReply: 1},
		Kinds: func(k wire.Kind) bool { return k == wire.KindNapletTransfer },
	})
	reg := newTestRegistry(t)
	servers := make(map[string]*Server, 2)
	for _, name := range []string{"home", "s1"} {
		srv, err := New(Config{
			Name:               name,
			Fabric:             inj.Fabric(net),
			Registry:           reg,
			DispatchRetries:    2,
			DispatchRetryDelay: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[name] = srv
	}

	nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Sleeper",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
		Failover: naplet.FailoverSkip,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusTrapped {
		t.Fatalf("status = %v, want trapped (a skip here would fork the naplet)", st)
	}
	_, errText, _ := servers["home"].Status(nid)
	if !strings.Contains(errText, "dispatch to s1") {
		t.Fatalf("trap error = %q", errText)
	}
	// The other copy is alive at s1 — exactly the fork the hold prevented.
	deadline := time.Now().Add(5 * time.Second)
	for servers["s1"].Manager().Resident() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("s1 residents = %d, want the landed copy", servers["s1"].Manager().Resident())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
