package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/directory"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/monitor"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/security"
	"repro/internal/state"
	"repro/internal/stats"
)

// ---- test agents ----

// collector visits servers, appending each server name to its state, and
// reports the tour at the end of its life.
type collector struct{}

func (c *collector) OnStart(ctx *naplet.Context) error {
	var tour []string
	ctx.State().Load("tour", &tour)
	tour = append(tour, ctx.Server)
	return ctx.State().SetPrivate("tour", tour)
}

func (c *collector) OnDestroy(ctx *naplet.Context) {
	var tour []string
	ctx.State().Load("tour", &tour)
	body := []byte(strings.Join(tour, ","))
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctx.Listener.Report(rctx, body)
}

// sleeper blocks until terminated or its visit times out.
type sleeper struct{}

func (s *sleeper) OnStart(ctx *naplet.Context) error {
	<-ctx.Cancel.Done()
	return ctx.Cancel.Err()
}

// panicker crashes on its second server.
type panicker struct{}

func (p *panicker) OnStart(ctx *naplet.Context) error {
	if ctx.Log().Len() >= 2 {
		panic("agent bug at " + ctx.Server)
	}
	return nil
}

// svcUser opens the "query" service channel and stores the reply.
type svcUser struct{}

func (u *svcUser) OnStart(ctx *naplet.Context) error {
	ch, err := ctx.Services.OpenChannel("query")
	if err != nil {
		return err
	}
	defer ch.Close()
	if err := ch.WriteLine("status"); err != nil {
		return err
	}
	line, err := ch.ReadLine()
	if err != nil {
		return err
	}
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return ctx.Listener.Report(rctx, []byte(ctx.Server+"="+line))
}

// searcher looks for a "treasure" open service; guard notFound continues
// the tour until it finds one.
type searcher struct{}

func (s *searcher) OnStart(ctx *naplet.Context) error {
	got, err := ctx.Services.CallOpen("treasure", nil)
	if err == nil && got == "yes" {
		ctx.State().SetPrivate("found", true)
		rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return ctx.Listener.Report(rctx, []byte("found at "+ctx.Server))
	}
	return nil
}

func newTestRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name:       "test.Collector",
		New:        func() naplet.Behavior { return &collector{} },
		BundleSize: 1024,
		Actions: map[string]registry.ActionFunc{
			"noop": func(ctx *naplet.Context) error { return nil },
		},
	})
	reg.MustRegister(&registry.Codebase{
		Name: "test.Sleeper",
		New:  func() naplet.Behavior { return &sleeper{} },
	})
	reg.MustRegister(&registry.Codebase{
		Name: "test.Panicker",
		New:  func() naplet.Behavior { return &panicker{} },
	})
	reg.MustRegister(&registry.Codebase{
		Name: "test.SvcUser",
		New:  func() naplet.Behavior { return &svcUser{} },
	})
	reg.MustRegister(&registry.Codebase{
		Name: "test.Searcher",
		New:  func() naplet.Behavior { return &searcher{} },
		Guards: map[string]registry.GuardFunc{
			"notFound": func(ctx *naplet.Context) (bool, error) {
				_, err := ctx.State().Get("found")
				return errors.Is(err, state.ErrNoSuchKey), nil
			},
		},
	})
	return reg
}

// space is a multi-server test naplet space.
type space struct {
	net     *netsim.Network
	reg     *registry.Registry
	servers map[string]*Server
	dir     *directory.Service
}

type spaceOpts struct {
	mode      locator.Mode
	directory bool
	policy    *security.Policy
	ring      *cred.KeyRing
	monitor   monitor.Policy
	residents int
	// mutate, when set, adjusts each server's config before construction.
	mutate func(name string, cfg *Config)
}

func newSpace(t *testing.T, opts spaceOpts, names ...string) *space {
	t.Helper()
	sp := &space{
		net:     netsim.New(netsim.Config{}),
		reg:     newTestRegistry(t),
		servers: make(map[string]*Server),
	}
	dirAddr := ""
	if opts.directory {
		dirAddr = "dir"
		sp.dir = directory.NewService()
		if _, err := sp.dir.Serve(sp.net, "dir"); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		cfg := Config{
			Name:           name,
			Fabric:         sp.net,
			Registry:       sp.reg,
			KeyRing:        opts.ring,
			Policy:         opts.policy,
			LocatorMode:    opts.mode,
			DirectoryAddrs: []string{dirAddr},
			MonitorPolicy:  opts.monitor,
			MaxResidents:   opts.residents,
		}
		if opts.mutate != nil {
			opts.mutate(name, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp.servers[name] = srv
		t.Cleanup(func() { srv.Close() })
	}
	return sp
}

func waitDone(t *testing.T, s *Server, nid id.NapletID, want manager.Status) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		st2, errText, _ := s.Status(nid)
		t.Fatalf("status = %v (%v, err=%q), want %v", st, st2, errText, want)
	}
}

func TestSequentialTour(t *testing.T) {
	// Paper §3 Example 1: one agent visits the servers in sequence and
	// reports the accumulated results after the last visit.
	sp := newSpace(t, spaceOpts{}, "home", "s1", "s2", "s3")
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2", "s3"}, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	select {
	case got := <-results:
		if got != "s1,s2,s3" {
			t.Fatalf("tour = %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no report received")
	}
	// No residents remain anywhere — once every dock's dispatch goroutine
	// has run its release, which the report does not wait for.
	for name, srv := range sp.servers {
		waitResidents(t, srv, 0)
		for deadline := time.Now().Add(5 * time.Second); srv.Monitor().Resident() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s monitor still has groups", name)
			}
		}
	}
	// Footprints: each visited server recorded the alien naplet, and the
	// release that emptied it closed the footprint.
	for _, name := range []string{"s1", "s2", "s3"} {
		fps := sp.servers[name].Manager().Footprints()
		if len(fps) != 1 || !fps[0].NapletID.Equal(nid) {
			t.Fatalf("%s footprints = %+v", name, fps)
		}
		if fps[0].LeftAt.IsZero() {
			t.Fatalf("%s footprint not closed", name)
		}
	}
}

// TestItineraryShapes is §3's claim that par trades clones for time (E4 in
// EXPERIMENTS.md), read off the tours rather than a clock. Over n stops a
// seq tour is one naplet that visits all n; a par broadcast is n naplets of
// one stop each, and "the spawned naplets will report their results
// individually" (Example 2, §6.2); Example 3's par of two seqs is two
// naplets of n/2 stops. The longest reported tour is the number of visits
// on the pattern's critical path: n, 1 and n/2.
func TestItineraryShapes(t *testing.T) {
	shapes := []struct {
		name string
		// tours splits the stops into the tour each naplet makes.
		tours   func(stops []string) [][]string
		pattern func(stops []string) *itinerary.Pattern
	}{
		{
			name:    "seq",
			tours:   func(stops []string) [][]string { return [][]string{stops} },
			pattern: func(stops []string) *itinerary.Pattern { return itinerary.SeqVisits(stops, "") },
		},
		{
			name: "par",
			tours: func(stops []string) (tours [][]string) {
				for _, s := range stops {
					tours = append(tours, []string{s})
				}
				return tours
			},
			pattern: func(stops []string) *itinerary.Pattern { return itinerary.ParVisits(stops, "") },
		},
		{
			name: "par-of-seq",
			tours: func(stops []string) [][]string {
				return [][]string{stops[:len(stops)/2], stops[len(stops)/2:]}
			},
			pattern: func(stops []string) *itinerary.Pattern {
				h := len(stops) / 2
				return itinerary.Par(itinerary.SeqVisits(stops[:h], ""), itinerary.SeqVisits(stops[h:], ""))
			},
		},
	}
	table := stats.NewTable("stops", "seq", "par", "par-of-seq")
	for _, n := range []int{2, 4, 8} {
		stops := make([]string, n)
		for i := range stops {
			stops[i] = fmt.Sprintf("s%d", i)
		}
		row := []any{n}
		for _, shape := range shapes {
			var want []string
			for _, tour := range shape.tours(stops) {
				want = append(want, strings.Join(tour, ","))
			}
			sort.Strings(want)
			cell := "failed"
			t.Run(fmt.Sprintf("%s/%d", shape.name, n), func(t *testing.T) {
				sp := newSpace(t, spaceOpts{}, append([]string{"home"}, stops...)...)
				reports := make(chan string, len(want)+1)
				nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
					Owner:    "czxu",
					Codebase: "test.Collector",
					Pattern:  shape.pattern(stops),
					Listener: func(r manager.Result) { reports <- string(r.Body) },
				})
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for len(got) < len(want) {
					select {
					case tour := <-reports:
						got = append(got, tour)
					case <-time.After(10 * time.Second):
						t.Fatalf("%d of %d end reports arrived: %v", len(got), len(want), got)
					}
				}
				waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
				select {
				case tour := <-reports:
					got = append(got, tour)
				default:
				}
				sort.Strings(got)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("reported tours %q, want %q", got, want)
				}
				longest := 0
				for _, tour := range got {
					longest = max(longest, len(strings.Split(tour, ",")))
				}
				cell = fmt.Sprintf("%d / %d", len(got), longest)
			})
			row = append(row, cell)
		}
		table.AddRow(row...)
	}
	t.Logf("end reports / the longest reported tour:\n%s", table)
}

func TestConditionalSearchStopsEarly(t *testing.T) {
	// §3: sequential search — all visits except the first are conditional;
	// the agent stops when the search completes.
	sp := newSpace(t, spaceOpts{}, "home", "s1", "s2", "s3", "s4")
	// Treasure lives on s2.
	for name, srv := range sp.servers {
		yes := name == "s2"
		srv.Resources().RegisterOpen("treasure", func(args []string) (string, error) {
			if yes {
				return "yes", nil
			}
			return "no", nil
		})
	}
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Searcher",
		Pattern:  itinerary.ConditionalTour([]string{"s1", "s2", "s3", "s4"}, "notFound", ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	select {
	case got := <-results:
		if got != "found at s2" {
			t.Fatalf("result = %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result")
	}
	// s3 and s4 must never have seen the naplet.
	for _, name := range []string{"s3", "s4"} {
		if len(sp.servers[name].Manager().Footprints()) != 0 {
			t.Fatalf("search did not stop before %s", name)
		}
	}
}

func TestPanicTrappedAndReportedHome(t *testing.T) {
	sp := newSpace(t, spaceOpts{}, "home", "s1", "s2")
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Panicker",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := sp.servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusTrapped {
		t.Fatalf("status = %v, want trapped", st)
	}
	_, errText, _ := sp.servers["home"].Status(nid)
	if !strings.Contains(errText, "agent bug") {
		t.Fatalf("trap error = %q", errText)
	}
	// The trapping server released everything.
	if sp.servers["s2"].Manager().Resident() != 0 {
		t.Fatal("trapped naplet still resident")
	}
}

func TestLandingDeniedByPolicy(t *testing.T) {
	ring := cred.NewKeyRing()
	ring.Register("czxu", []byte("k"))
	ring.Register("guest", []byte("g"))
	// s1 refuses landings from guest.
	policy := security.Policy{
		Rules: []security.Rule{
			{Principal: "owner:guest", Permissions: []security.Permission{security.PermLanding}, Effect: security.Deny},
			{Principal: "*", Permissions: []security.Permission{"*"}, Effect: security.Allow},
		},
	}
	sp := newSpace(t, spaceOpts{ring: ring, policy: &policy}, "home", "s1")

	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "guest",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := sp.servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusTrapped {
		t.Fatalf("status = %v, want trapped (landing denied)", st)
	}
	if sp.servers["s1"].Navigator().Stats().Refused == 0 {
		t.Fatal("s1 must have refused the landing")
	}
	// Authorized owner passes.
	nid2, _ := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	waitDone(t, sp.servers["home"], nid2, manager.StatusCompleted)
}

func TestServiceChannelDuringVisit(t *testing.T) {
	sp := newSpace(t, spaceOpts{}, "home", "s1")
	sp.servers["s1"].Resources().RegisterPrivileged("query", func() resource.PrivilegedService {
		return resource.ServiceFunc(func(ch *resource.ServerEnd) {
			for {
				line, err := ch.ReadLine()
				if err != nil {
					return
				}
				ch.WriteLine("ok:" + line)
			}
		})
	})
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.SvcUser",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	if got := <-results; got != "s1=ok:status" {
		t.Fatalf("service result = %q", got)
	}
	if sp.servers["s1"].Resources().Stats().ChannelsOpened != 1 {
		t.Fatal("channel accounting")
	}
}

func TestTerminateRemotely(t *testing.T) {
	sp := newSpace(t, spaceOpts{mode: locator.ModeHome}, "home", "s1")
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Sleeper",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the sleeper to be resident at s1.
	deadline := time.Now().Add(5 * time.Second)
	for sp.servers["s1"].Manager().Resident() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sleeper never arrived at s1")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sp.servers["home"].Control(ctx, nid, naplet.ControlTerminate); err != nil {
		t.Fatal(err)
	}
	st, err := sp.servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusTrapped {
		t.Fatalf("status after terminate = %v", st)
	}
}

func TestMaxResidentsAdmission(t *testing.T) {
	sp := newSpace(t, spaceOpts{residents: 1}, "home", "s1")
	// First sleeper occupies s1.
	_, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Sleeper",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sp.servers["s1"].Manager().Resident() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first naplet never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Second naplet is refused: at capacity.
	nid2, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, _ := sp.servers["home"].WaitDone(ctx, nid2)
	if st != manager.StatusTrapped {
		t.Fatalf("status = %v, want trapped (capacity)", st)
	}
}

// TestLazyCodeLoadingCache: the first trip to a dock carries the 1 KiB
// bundle, which the dock caches; the second finds it there and puts at
// least the bundle fewer bytes on the fabric (E7 in EXPERIMENTS.md).
func TestLazyCodeLoadingCache(t *testing.T) {
	const bundle = 1024 // test.Collector's
	counter := newKindCounter()
	sp := newSpace(t, spaceOpts{
		mutate: func(_ string, cfg *Config) { counter.inner, cfg.Fabric = cfg.Fabric, counter },
	}, "home", "s1")
	trip := func() int64 {
		t.Helper()
		before := sp.net.TotalStats().BytesSent
		nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
			Owner:    "czxu",
			Codebase: "test.Collector",
			Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
		})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
		counter.idle()
		return sp.net.TotalStats().BytesSent - before
	}
	cold := trip()
	s1 := sp.servers["s1"].Cache().Stats()
	if s1.Misses == 0 || s1.BytesFetched != bundle {
		t.Fatalf("first visit must fetch the 1 KiB bundle: %+v", s1)
	}
	warm := trip()
	t.Logf("fabric bytes: cold trip %d, warm trip %d", cold, warm)
	if warm >= cold || cold-warm < bundle {
		t.Fatalf("cold trip %d bytes, warm %d: the warm trip must save at least the %d B bundle", cold, warm, bundle)
	}
	s2 := sp.servers["s1"].Cache().Stats()
	if s2.BytesFetched != s1.BytesFetched {
		t.Fatalf("second visit must not refetch: %+v", s2)
	}
	if s2.Hits == s1.Hits {
		t.Fatal("second visit must hit the cache")
	}
	if sp.servers["home"].Navigator().Stats().CodePushed != 1 {
		t.Fatalf("push count: %+v", sp.servers["home"].Navigator().Stats())
	}
}

func TestDirectoryModeTracksNaplet(t *testing.T) {
	sp := newSpace(t, spaceOpts{mode: locator.ModeDirectory, directory: true}, "home", "s1", "s2")
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2"}, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	<-results
	// The directory saw arrivals and departures for the whole tour.
	cnode := sp.servers["home"].Node()
	entry, err := directory.NewClient(cnode, "dir").Lookup(context.Background(), nid)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Server != "s2" {
		t.Fatalf("directory last entry = %+v", entry)
	}
}

func TestRevisitSameServer(t *testing.T) {
	// seq(s1, s1) runs the visit twice without a network dispatch.
	sp := newSpace(t, spaceOpts{}, "home", "s1")
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s1"}, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	if got := <-results; got != "s1,s1" {
		t.Fatalf("tour = %q", got)
	}
}

func TestHomeInItineraryExecutesLocally(t *testing.T) {
	sp := newSpace(t, spaceOpts{}, "home", "s1")
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"home", "s1", "home"}, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	if got := <-results; got != "home,s1,home" {
		t.Fatalf("tour = %q", got)
	}
}

func TestLaunchValidation(t *testing.T) {
	sp := newSpace(t, spaceOpts{}, "home")
	ctx := context.Background()
	if _, err := sp.servers["home"].Launch(ctx, LaunchOptions{Codebase: "x", Pattern: itinerary.SeqVisits([]string{"s"}, "")}); err == nil {
		t.Fatal("missing owner must fail")
	}
	if _, err := sp.servers["home"].Launch(ctx, LaunchOptions{Owner: "u", Codebase: "ghost", Pattern: itinerary.SeqVisits([]string{"s"}, "")}); err == nil {
		t.Fatal("unknown codebase must fail")
	}
	if _, err := sp.servers["home"].Launch(ctx, LaunchOptions{Owner: "u", Codebase: "test.Collector", Pattern: itinerary.Seq()}); err == nil {
		t.Fatal("invalid itinerary must fail")
	}
	if _, err := sp.servers["home"].Launch(ctx, LaunchOptions{Owner: "a@b", Codebase: "test.Collector", Pattern: itinerary.SeqVisits([]string{"home"}, "")}); err == nil {
		t.Fatal("an owner that is not a bare name must fail")
	}
	ring := cred.NewKeyRing()
	sp2 := newSpace(t, spaceOpts{ring: ring}, "home2")
	if _, err := sp2.servers["home2"].Launch(ctx, LaunchOptions{Owner: "nokey", Codebase: "test.Collector", Pattern: itinerary.SeqVisits([]string{"home2"}, "")}); err == nil {
		t.Fatal("launch without a signing key must fail when a ring is configured")
	}
}

// launchOnClock builds a one-dock space whose clock reads what set last
// stored, and returns a launcher that waits each naplet out: the ID
// contract of §2.1 is held at Server.Launch, its one minting point.
func launchOnClock(t *testing.T, start time.Time) (launch func() id.NapletID, set func(time.Time)) {
	var mu sync.Mutex
	now := start
	sp := newSpace(t, spaceOpts{mutate: func(_ string, cfg *Config) {
		cfg.Clock = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	}}, "home")
	home := sp.servers["home"]
	launch = func() id.NapletID {
		t.Helper()
		nid, err := home.Launch(context.Background(), LaunchOptions{
			Owner:    "czxu",
			Codebase: "test.Collector",
			Pattern:  itinerary.SeqVisits([]string{"home"}, ""),
		})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, home, nid, manager.StatusCompleted)
		return nid
	}
	set = func(at time.Time) { mu.Lock(); defer mu.Unlock(); now = at }
	return launch, set
}

// TestLaunchIDsUniqueWithinASecond: launches by one owner on a frozen
// clock still get distinct identifiers, each created after the last.
func TestLaunchIDsUniqueWithinASecond(t *testing.T) {
	launch, _ := launchOnClock(t, time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	seen := make(map[string]bool)
	var last id.NapletID
	for i := 0; i < 100; i++ {
		nid := launch()
		if seen[nid.Key()] {
			t.Fatalf("duplicate ID %v at launch %d", nid, i)
		}
		seen[nid.Key()] = true
		if i > 0 && !nid.Created().After(last.Created()) {
			t.Fatalf("launch %d: created %v, not after %v", i, nid.Created(), last.Created())
		}
		last = nid
	}
}

// TestLaunchIDsFollowTheClock: once the clock moves on, the next
// identifier is created at the new time.
func TestLaunchIDsFollowTheClock(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	launch, set := launchOnClock(t, t0)
	a := launch()
	set(t0.Add(10 * time.Second))
	b := launch()
	if !b.Created().After(a.Created()) || !b.Created().Equal(t0.Add(10*time.Second)) {
		t.Fatalf("created %v then %v, want the second at the moved clock", a.Created(), b.Created())
	}
}

func TestNavigationLogTravelsWithNaplet(t *testing.T) {
	sp := newSpace(t, spaceOpts{}, "home", "s1", "s2")
	type logReport struct {
		route string
	}
	_ = logReport{}
	results := make(chan string, 1)
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.LogReporter",
		New: func() naplet.Behavior {
			return behaviorFunc(func(ctx *naplet.Context) error {
				if ctx.Server == "s2" {
					rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					return ctx.Listener.Report(rctx, []byte(ctx.Log().String()))
				}
				return nil
			})
		},
	})
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.LogReporter",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2"}, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	got := <-results
	if got != "home -> s1 -> s2" {
		t.Fatalf("navigation log route = %q", got)
	}
}

// behaviorFunc adapts a function to naplet.Behavior for test agents.
type behaviorFunc func(ctx *naplet.Context) error

func (f behaviorFunc) OnStart(ctx *naplet.Context) error { return f(ctx) }

func TestVisitWallTimeLimitTrapsSleeper(t *testing.T) {
	sp := newSpace(t, spaceOpts{monitor: monitor.Policy{MaxWallTime: 50 * time.Millisecond}}, "home", "s1")
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Sleeper",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := sp.servers["home"].WaitDone(ctx, nid)
	if err != nil {
		t.Fatal(err)
	}
	if st != manager.StatusTrapped {
		t.Fatalf("status = %v, want trapped by wall-time policy", st)
	}
}

func TestInterAgentMessagingAcrossSpace(t *testing.T) {
	// Two long-lived agents exchange a message through the post office
	// while resident on different servers.
	sp := newSpace(t, spaceOpts{mode: locator.ModeHome}, "home", "s1", "s2")

	gotMsg := make(chan string, 1)
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.Receiver",
		New: func() naplet.Behavior {
			return behaviorFunc(func(ctx *naplet.Context) error {
				rctx, cancel := context.WithTimeout(ctx.Cancel, 8*time.Second)
				defer cancel()
				msg, err := ctx.Messenger.Receive(rctx)
				if err != nil {
					return err
				}
				gotMsg <- string(msg.Body)
				return nil
			})
		},
	})
	recvID, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "bob",
		Codebase: "test.Receiver",
		Pattern:  itinerary.SeqVisits([]string{"s2"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}

	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.Sender",
		New: func() naplet.Behavior {
			return behaviorFunc(func(ctx *naplet.Context) error {
				ctx.AddressBook().Add(recvID, "s2")
				sctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
				defer cancel()
				return ctx.Messenger.Post(sctx, recvID, "hi", []byte("hello from "+ctx.Server))
			})
		},
	})
	// Wait until the receiver is resident at s2 so the hint is fresh.
	deadline := time.Now().Add(5 * time.Second)
	for sp.servers["s2"].Manager().Resident() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("receiver never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sendID, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "alice",
		Codebase: "test.Sender",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-gotMsg:
		if got != "hello from s1" {
			t.Fatalf("message = %q", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("message never delivered")
	}
	waitDone(t, sp.servers["home"], sendID, manager.StatusCompleted)
	waitDone(t, sp.servers["home"], recvID, manager.StatusCompleted)
}

func TestParSiblingsKnowEachOther(t *testing.T) {
	// Forking a Par itinerary cross-populates the clones' address books so
	// collective post-actions work (§2.1: the book "can be altered as the
	// naplet grows" and "inherited in naplet clone").
	var mu sync.Mutex
	books := map[string]int{}
	sp2 := newSpace(t, spaceOpts{}, "home", "s1", "s2", "s3")
	sp2.reg.MustRegister(&registry.Codebase{
		Name: "test.BookInspector",
		New: func() naplet.Behavior {
			return behaviorFunc(func(ctx *naplet.Context) error {
				mu.Lock()
				books[ctx.NapletID().Key()] = ctx.AddressBook().Len()
				mu.Unlock()
				rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				return ctx.Listener.Report(rctx, []byte("ok"))
			})
		},
	})
	done := make(chan struct{}, 3)
	_, err := sp2.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.BookInspector",
		Pattern:  itinerary.ParVisits([]string{"s1", "s2", "s3"}, ""),
		Listener: func(manager.Result) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("missing report")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(books) != 3 {
		t.Fatalf("agents seen: %v", books)
	}
	// 3-way fork: parent + 2 clones; each knows the other 2.
	for nid, n := range books {
		if n != 2 {
			t.Fatalf("agent %s book size = %d, want 2", nid, n)
		}
	}
}

func TestDataCommSynchronizesCloneGroup(t *testing.T) {
	// The paper's Example 3: par(seq(s0,s1), seq(s2,s3)) with a DataComm
	// post-action after every visit. Both agents must complete two
	// exchange rounds, each receiving one message per sibling per round.
	sp := newSpace(t, spaceOpts{mode: locator.ModeHome}, "home", "s0", "s1", "s2", "s3")
	var mu sync.Mutex
	rounds := map[string]int{}
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.SyncWorker",
		New: func() naplet.Behavior {
			return behaviorFunc(func(ctx *naplet.Context) error { return nil })
		},
		Actions: map[string]registry.ActionFunc{
			"DataComm": func(ctx *naplet.Context) error {
				msgs, err := naplet.AllExchange(ctx, "sync", []byte(ctx.Server))
				if err != nil {
					return err
				}
				if len(msgs) != ctx.AddressBook().Len() {
					return fmt.Errorf("got %d messages, book has %d", len(msgs), ctx.AddressBook().Len())
				}
				mu.Lock()
				rounds[ctx.NapletID().Key()]++
				mu.Unlock()
				return nil
			},
		},
	})
	done := make(chan struct{}, 2)
	_, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.SyncWorker",
		Pattern: itinerary.Par(
			itinerary.SeqVisits([]string{"s0", "s1"}, "DataComm"),
			itinerary.SeqVisits([]string{"s2", "s3"}, "DataComm"),
		),
		Listener: func(manager.Result) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	// SyncWorker has no OnDestroy report; wait for completion via status.
	// Track completion via per-agent round counts instead.
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		total := 0
		agents := len(rounds)
		for _, r := range rounds {
			total += r
		}
		mu.Unlock()
		if agents == 2 && total == 4 {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("rounds = %v", rounds)
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for nid, r := range rounds {
		if r != 2 {
			t.Fatalf("agent %s completed %d rounds, want 2", nid, r)
		}
	}
}

func TestAltItineraryThroughEngine(t *testing.T) {
	// alt(P, Q) carried through the full engine: the guard on P's first
	// visit decides which branch the naplet takes (§3).
	sp := newSpace(t, spaceOpts{}, "home", "fast", "slow")
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.AltRunner",
		New: func() naplet.Behavior {
			return behaviorFunc(func(ctx *naplet.Context) error { return nil })
		},
		Guards: map[string]registry.GuardFunc{
			"preferFast": func(ctx *naplet.Context) (bool, error) {
				var prefer bool
				err := ctx.State().Load("preferFast", &prefer)
				return prefer, err
			},
		},
	})
	run := func(prefer bool) string {
		pattern := itinerary.Alt(
			itinerary.Singleton(itinerary.Visit{Server: "fast", Guard: "preferFast"}),
			itinerary.Singleton(itinerary.Visit{Server: "slow"}),
		)
		nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
			Owner:    "czxu",
			Codebase: "test.AltRunner",
			Pattern:  pattern,
			InitState: func(s *state.State) error {
				return s.SetPrivate("preferFast", prefer)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
		// Which server was visited?
		tr := sp.servers["fast"].Manager().TraceNaplet(nid)
		if tr.Known {
			return "fast"
		}
		if sp.servers["slow"].Manager().TraceNaplet(nid).Known {
			return "slow"
		}
		return "none"
	}
	if got := run(true); got != "fast" {
		t.Fatalf("guard true -> %q, want fast", got)
	}
	if got := run(false); got != "slow" {
		t.Fatalf("guard false -> %q, want slow", got)
	}
}

// stopTracker counts OnStop invocations (the paper's onStop() hook runs
// when the naplet departs a server after a completed visit).
type stopTracker struct{ stops *atomicCounter }

func (s stopTracker) OnStart(ctx *naplet.Context) error { return nil }
func (s stopTracker) OnStop(ctx *naplet.Context)        { s.stops.add(ctx.Server) }

type atomicCounter struct {
	mu    sync.Mutex
	calls []string
}

func (c *atomicCounter) add(s string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, s)
}

func (c *atomicCounter) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.calls...)
}

func TestOnStopHookRunsPerDeparture(t *testing.T) {
	sp := newSpace(t, spaceOpts{}, "home", "s1", "s2", "s3")
	counter := &atomicCounter{}
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.Stopper",
		New:  func() naplet.Behavior { return stopTracker{stops: counter} },
	})
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Stopper",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2", "s3"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	// OnStop fires before each dispatch: home->s1, s1->s2, s2->s3; the
	// final completion at s3 destroys rather than stops.
	calls := counter.snapshot()
	want := []string{"home", "s1", "s2"}
	if len(calls) != len(want) {
		t.Fatalf("OnStop calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("OnStop order = %v, want %v", calls, want)
		}
	}
}

// callbackAgent reacts to custom callback interrupts by recording them.
type callbackAgent struct{ got chan string }

func (c callbackAgent) OnStart(ctx *naplet.Context) error {
	select {
	case <-time.After(2 * time.Second):
		return fmt.Errorf("never interrupted")
	case <-ctx.Cancel.Done():
		return ctx.Cancel.Err()
	case s := <-c.got:
		c.got <- s // put back for the assertion
		return nil
	}
}

func (c callbackAgent) OnInterrupt(ctx *naplet.Context, msg naplet.Message) error {
	c.got <- string(msg.Control) + "@" + ctx.Server
	return nil
}

func TestCallbackInterruptReachesBehavior(t *testing.T) {
	// §2.2: "the agent behavior can also be remotely controlled by its
	// creator via onInterrupt()". A custom callback verb must reach the
	// behaviour's hook at whatever server the agent occupies.
	sp := newSpace(t, spaceOpts{mode: locator.ModeHome}, "home", "s1")
	got := make(chan string, 2)
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.Callback",
		New:  func() naplet.Behavior { return callbackAgent{got: got} },
	})
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Callback",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until resident at s1, then cast the callback.
	deadline := time.Now().Add(5 * time.Second)
	for sp.servers["s1"].Manager().Resident() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent never arrived")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sp.servers["home"].Control(ctx, nid, naplet.ControlCallback); err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	select {
	case s := <-got:
		if s != "callback@s1" {
			t.Fatalf("interrupt = %q", s)
		}
	default:
		t.Fatal("OnInterrupt never invoked")
	}
}
