package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/navigator"
	"repro/internal/registry"
	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// staleCollector tours without a word: at each stop it tells the test
// where it is over a Go channel — not through the messenger, so the dock
// registers it on due hops only — and waits to be let go. The controls it
// takes as interrupts go to the test with the dock they reached. At its
// last stop it reads its mailbox: every post that followed it, carried
// along as leftovers from dock to dock.
type staleCollector struct {
	at       chan string
	proceed  chan struct{}
	controls chan string
	mail     chan []string
}

func (c *staleCollector) OnStart(ctx *naplet.Context) error {
	c.at <- ctx.Server
	select {
	case <-c.proceed:
	case <-ctx.Cancel.Done():
		return ctx.Cancel.Err()
	}
	if !ctx.Itinerary().Done() {
		return nil
	}
	var subjects []string
	for {
		msg, ok := ctx.Messenger.TryReceive()
		if !ok {
			break
		}
		subjects = append(subjects, msg.Subject)
	}
	c.mail <- subjects
	return nil
}

func (c *staleCollector) OnInterrupt(ctx *naplet.Context, msg naplet.Message) error {
	c.controls <- ctx.Server
	return nil
}

// TestStaleEntryChase: a silent naplet is registered at its launch and on
// every registerEvery-th hop only, so between those the directory names a
// dock it has left. The home posts to it and sends it a control at every
// one of 2k+1 stops; each finds the stale entry and chases the visit
// traces, at most k-1 forwards, and is delivered exactly once — the posts
// into the mailbox the naplet reads at its last stop, the controls as
// interrupts at the stop it is at — and no dock is left holding mail.
func TestStaleEntryChase(t *testing.T) {
	stops := make([]string, 2*registerEvery+1)
	for i := range stops {
		stops[i] = "d" + strconv.Itoa(i)
	}
	sp := newSpace(t, spaceOpts{mode: locator.ModeDirectory, directory: true}, append([]string{"home"}, stops...)...)
	agent := &staleCollector{
		at:       make(chan string),
		proceed:  make(chan struct{}),
		controls: make(chan string, len(stops)),
		mail:     make(chan []string, 1),
	}
	sp.reg.MustRegister(&registry.Codebase{Name: "test.StaleCollector", New: func() naplet.Behavior { return agent }})
	departed := make(chan string, len(stops)+1)
	for _, srv := range sp.servers {
		srv.SetEventSink(func(ev Event) {
			if ev.Kind == EventDepart { // only the collector leaves a dock
				departed <- ev.From
			}
		})
	}
	home := sp.servers["home"]
	nid, err := home.Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.StaleCollector",
		Pattern:  itinerary.SeqVisits(stops, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	sender := naplet.NewRecord(id.MustNew("tx", "home", time.Now()), cred.Credential{}, "test.Collector", "home", nil)
	sender.Book.Add(nid, "home") // a stale hint; the directory decides
	forwarded := func() (n int64) {
		for _, srv := range sp.servers {
			n += srv.Messenger().Stats().Forwarded
		}
		return n
	}
	within := func() <-chan time.Time { return time.After(10 * time.Second) }

	var chased int64
	want := make([]string, len(stops))
	for i, stop := range stops {
		select {
		case where := <-agent.at:
			if where != stop {
				t.Fatalf("collector at %s, want %s", where, stop)
			}
		case <-within():
			t.Fatalf("collector never reached %s", stop)
		}
		// The dock it came from has let it go: its trace forwards, its
		// mail slot is closed.
		select {
		case <-departed:
		case <-within():
			t.Fatalf("the dock before %s never released the collector", stop)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		want[i] = "p" + strconv.Itoa(i)
		before := forwarded()
		if err := home.Messenger().Post(ctx, sender, nid, want[i], nil); err != nil {
			cancel()
			t.Fatalf("post at %s: %v", stop, err)
		}
		if n := forwarded() - before; n > registerEvery-1 {
			t.Fatalf("post at %s was forwarded %d times, want at most %d", stop, n, registerEvery-1)
		}
		chased += forwarded() - before
		before = forwarded()
		if err := home.Control(ctx, nid, naplet.ControlCallback); err != nil {
			cancel()
			t.Fatalf("control at %s: %v", stop, err)
		}
		cancel()
		if n := forwarded() - before; n > registerEvery-1 {
			t.Fatalf("control at %s was forwarded %d times, want at most %d", stop, n, registerEvery-1)
		}
		select {
		case where := <-agent.controls:
			if where != stop {
				t.Fatalf("control taken at %s, want %s", where, stop)
			}
		case <-within():
			t.Fatalf("control never reached the collector at %s", stop)
		}
		agent.proceed <- struct{}{}
	}
	waitDone(t, home, nid, manager.StatusCompleted)
	if chased == 0 {
		t.Fatal("no post chased a stale entry: the test proves nothing")
	}
	t.Logf("%d posts chased stale entries over %d forwards in all", len(stops), chased)
	got := <-agent.mail
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("collector read %v, want each post once: %v", got, want)
	}
	select {
	case where := <-agent.controls:
		t.Fatalf("a control was taken twice (at %s)", where)
	default:
	}
	for name, srv := range sp.servers {
		waitResidents(t, srv, 0)
		if held := srv.Messenger().HeldSnapshot(); len(held) != 0 {
			t.Fatalf("%s still holds mail: %v", name, held)
		}
	}
}

// unansweredFabric wraps a fabric so that calls to addr are never answered:
// they wait for the caller's context, as calls to a hung peer do.
type unansweredFabric struct {
	inner transport.Fabric
	addr  string
}

func (u *unansweredFabric) Attach(addr string, h transport.Handler) (transport.Node, error) {
	node, err := u.inner.Attach(addr, h)
	if err != nil {
		return nil, err
	}
	return &unansweredNode{Node: node, addr: u.addr}, nil
}

type unansweredNode struct {
	transport.Node
	addr string
}

func (n *unansweredNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	if to == n.addr {
		<-ctx.Done()
		return wire.Frame{}, ctx.Err()
	}
	return n.Node.Call(ctx, to, f)
}

// TestHungRegistrationHoldsNoAck: against a directory that never answers,
// a transfer is acknowledged at once — no landing waits for the directory
// — and the naplet's first post at its destination, which registers it
// there first, costs the registration's fixed bound and the post, not a
// call timeout (30 s while every landing registered before its ack).
func TestHungRegistrationHoldsNoAck(t *testing.T) {
	sp := newSpace(t, spaceOpts{
		mode:      locator.ModeForward, // posts go by the book, not the directory
		directory: true,
		mutate: func(_ string, cfg *Config) {
			cfg.Fabric = &unansweredFabric{inner: cfg.Fabric, addr: "dir"}
		},
	}, "home", "s1")
	took := make(chan time.Duration, 1)
	got := make(chan string, 1)
	sp.reg.MustRegister(&registry.Codebase{Name: "test.Poster", New: func() naplet.Behavior {
		return behaviorFunc(func(ctx *naplet.Context) error {
			var key string
			if err := ctx.State().Load("sink", &key); err != nil {
				return err
			}
			sink, err := id.Parse(key)
			if err != nil {
				return err
			}
			ctx.AddressBook().Add(sink, "home")
			pctx, cancel := context.WithTimeout(ctx.Cancel, time.Minute)
			defer cancel()
			start := time.Now()
			err = ctx.Messenger.Post(pctx, sink, "m", nil)
			took <- time.Since(start)
			return err
		})
	}})
	sp.reg.MustRegister(&registry.Codebase{Name: "test.Sink", New: func() naplet.Behavior {
		return behaviorFunc(func(ctx *naplet.Context) error {
			msg, err := ctx.Messenger.Receive(ctx.Cancel)
			if err == nil {
				got <- msg.Subject
			}
			return err
		})
	}})
	home := sp.servers["home"]
	// A launch registers under its caller's context: a short one here.
	launch := func(opts LaunchOptions) id.NapletID {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		nid, err := home.Launch(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		return nid
	}
	sink := launch(LaunchOptions{Owner: "sink", Codebase: "test.Sink", Pattern: itinerary.SeqVisits([]string{"home"}, "")})
	poster := launch(LaunchOptions{
		Owner:     "czxu",
		Codebase:  "test.Poster",
		Pattern:   itinerary.SeqVisits([]string{"s1"}, ""),
		InitState: func(s *state.State) error { return s.SetPrivate("sink", sink.Key()) },
	})
	waitDone(t, home, poster, manager.StatusCompleted)
	waitDone(t, home, sink, manager.StatusCompleted)
	if subject := <-got; subject != "m" {
		t.Fatalf("sink received %q", subject)
	}
	spans := home.Tracer().Spans(poster.Key())
	if len(spans) != 1 || spans[0].Outcome != telemetry.OutcomeOK || spans[0].Total >= navigator.RegisterTimeout {
		t.Fatalf("hop spans = %+v, want one acknowledged within %v", spans, navigator.RegisterTimeout)
	}
	if d := <-took; d < navigator.RegisterTimeout || d > navigator.RegisterTimeout+2*time.Second {
		t.Fatalf("first post at s1 took %v, want the registration bound %v and the post", d, navigator.RegisterTimeout)
	}
	// Each Close gives its withdrawal from the hung directory 2 s: close
	// both docks at once.
	var wg sync.WaitGroup
	for _, srv := range sp.servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
		}()
	}
	wg.Wait()
}

// TestLocationOrderedBySeqNotClock: one dock's clock runs a second ahead,
// the next one's a second behind. A naplet that reports home from each
// registers at each, and the location it ends at is the last one it
// registered — in directory, directory+cache and home mode. Ordered by the
// docks' clocks, the one running ahead kept the location pinned to itself.
func TestLocationOrderedBySeqNotClock(t *testing.T) {
	for _, m := range []struct {
		name string
		mode locator.Mode
		ttl  time.Duration
	}{
		{"directory", locator.ModeDirectory, 0},
		{"directory+cache", locator.ModeDirectory, time.Minute},
		{"home", locator.ModeHome, 0},
	} {
		t.Run(m.name, func(t *testing.T) {
			skew := map[string]time.Duration{"ahead": time.Second, "behind": -time.Second}
			sp := newSpace(t, spaceOpts{
				mode:      m.mode,
				directory: m.mode == locator.ModeDirectory,
				mutate: func(name string, cfg *Config) {
					cfg.LocatorTTL = m.ttl
					if d, ok := skew[name]; ok {
						cfg.Clock = func() time.Time { return time.Now().Add(d) }
					}
				},
			}, "home", "ahead", "behind")
			sp.reg.MustRegister(&registry.Codebase{Name: "test.Reporter", New: func() naplet.Behavior {
				return behaviorFunc(func(ctx *naplet.Context) error {
					return ctx.Listener.Report(ctx.Cancel, []byte(ctx.Server))
				})
			}})
			home := sp.servers["home"]
			// The tour can end before home hears its first hop's ack, and
			// until then home's own trace says the naplet is present.
			left := make(chan struct{})
			home.SetEventSink(func(ev Event) {
				if ev.Kind == EventDepart {
					close(left)
				}
			})
			nid, err := home.Launch(context.Background(), LaunchOptions{
				Owner:    "czxu",
				Codebase: "test.Reporter",
				Pattern:  itinerary.SeqVisits([]string{"ahead", "behind"}, ""),
			})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, home, nid, manager.StatusCompleted)
			select {
			case <-left:
			case <-time.After(10 * time.Second):
				t.Fatal("home never let the naplet go")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			where, err := home.Locator().Locate(ctx, nid, "")
			if err != nil && !errors.Is(err, locator.ErrNotFound) {
				t.Fatal(err)
			}
			if where != "behind" {
				t.Fatalf("located at %q (%v), want the last registered stop, behind", where, err)
			}
		})
	}
}

// TestControlDuringMigrationFollowsNaplet: a control that reaches the dock
// a naplet is leaving, while its transfer is still open, is held there and
// follows the naplet with its mail, instead of being cast on the departing
// copy, whose visit is over. The landing at s1 is held in its before-land
// hook so that the control surely arrives mid-migration.
func TestControlDuringMigrationFollowsNaplet(t *testing.T) {
	sp := newSpace(t, spaceOpts{mode: locator.ModeForward}, "home", "s1")
	got := make(chan string, 2)
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.Callback",
		New:  func() naplet.Behavior { return callbackAgent{got: got} },
	})
	home, s1 := sp.servers["home"], sp.servers["s1"]
	landing, release := make(chan struct{}), make(chan struct{})
	s1.nav.SetBeforeLandFunc(func(nid id.NapletID) {
		close(landing)
		<-release
		s1.awaitLeave(nid)
	})
	nid, err := home.Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Callback",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-landing:
	case <-time.After(10 * time.Second):
		t.Fatal("the transfer never reached s1")
	}
	// Home still traces the naplet as present: the control is delivered
	// into its slot there, mid-migration.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := home.Control(ctx, nid, naplet.ControlCallback); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitDone(t, home, nid, manager.StatusCompleted)
	if s := <-got; s != "callback@s1" {
		t.Fatalf("interrupt = %q, want it taken at s1", s)
	}
}
