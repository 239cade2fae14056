package server

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/dock"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/messenger"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestChaosRestartSeeds is the server-death chaos suite: under the same
// seeded probabilistic faults as TestChaosSeeds, a mid-tour server is
// crashed for real (process gone, only its dock directory survives) while
// naplets are visiting it and mail is parked at it, then restarted from
// the dock. Each tour also routes through a dead stop, forcing the
// failover machinery. Invariants, per seed:
//
//  1. every tour completes exactly once, with the exact expected tour and
//     the skip reroute recorded in the nav log;
//  2. every confirmed held message survives the restart exactly once — no
//     loss, no duplication;
//  3. the dead-stop dispatches show up as failovers, never as traps.
//
// The subtest names are fixed strings that CI history and the test floor
// key on. Their "snap=v2" dates from when seeds alternated between dock
// snapshot formats 1 and 2; there is one format now (dock.Version, whatever
// its number), and bumping it must not rename ten subtests.
func TestChaosRestartSeeds(t *testing.T) {
	seeds := chaosSeeds
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d/snap=v2", seed), func(t *testing.T) {
			runChaosRestart(t, seed)
		})
	}
}

// chaosGateAgent tours with reroute reporting and blocks at s2 until the
// crash gate opens, so the crash image is taken with every naplet parked
// mid-visit.
type chaosGateAgent struct {
	gate    chan struct{}
	arrived chan struct{}
}

func (a chaosGateAgent) OnStart(ctx *naplet.Context) error {
	var tour []string
	ctx.State().Load("tour", &tour)
	tour = append(tour, ctx.Server)
	if err := ctx.State().SetPrivate("tour", tour); err != nil {
		return err
	}
	if ctx.Server == "s2" {
		select {
		case a.arrived <- struct{}{}:
		default:
		}
		select {
		case <-a.gate:
		case <-ctx.Cancel.Done():
			return ctx.Cancel.Err()
		}
	}
	return nil
}

func (a chaosGateAgent) OnDestroy(ctx *naplet.Context) {
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

func runChaosRestart(t *testing.T, seed int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	inj := fault.New(fault.Config{
		Seed: seed,
		P: fault.Probabilities{
			DropRequest: 0.08,
			DropReply:   0.06,
			Duplicate:   0.08,
			Delay:       0.03,
		},
		DelaySpike: 100 * time.Microsecond,
		Kinds:      func(k wire.Kind) bool { return k != wire.KindReport },
		Telemetry:  reg,
	})
	net := netsim.New(netsim.Config{})
	codebases := newTestRegistry(t)

	gate := make(chan struct{})
	arrived := make(chan struct{}, 8)
	codebases.MustRegister(&registry.Codebase{
		Name: "test.ChaosGate",
		New:  func() naplet.Behavior { return chaosGateAgent{gate: gate, arrived: arrived} },
	})

	st, err := dock.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A tight backoff so the dead-stop dispatch exhausts quickly: the
	// failover policy, not the retry budget, is under test here.
	mkConfig := func(name string) Config {
		cfg := Config{
			Name:               name,
			Fabric:             inj.Fabric(net),
			Registry:           codebases,
			Telemetry:          reg,
			DispatchRetries:    12,
			DispatchRetryDelay: 200 * time.Microsecond,
			Messenger: messenger.Config{
				SendRetries: 8,
				RetryDelay:  200 * time.Microsecond,
				Telemetry:   reg,
			},
		}
		if name == "s2" {
			cfg.Dock = st
		}
		return cfg
	}
	servers := make(map[string]*Server)
	for _, name := range []string{"home", "s1", "s2", "s3"} {
		srv, err := New(mkConfig(name))
		if err != nil {
			t.Fatal(err)
		}
		servers[name] = srv
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			srv.Close()
		}
	})

	// Tours route through "ghost" (never attached) with the skip policy:
	// every naplet must record exactly one reroute and still complete.
	const naplets = 3
	reports := make(chan string, naplets*2)
	var nids []id.NapletID
	for i := 0; i < naplets; i++ {
		nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
			Owner:    "czxu",
			Codebase: "test.ChaosGate",
			Pattern:  itinerary.SeqVisits([]string{"s1", "ghost", "s2", "s3"}, ""),
			Failover: naplet.FailoverSkip,
			Listener: func(r manager.Result) { reports <- string(r.Body) },
		})
		if err != nil {
			t.Fatal(err)
		}
		nids = append(nids, nid)
	}

	// Mail for a naplet that never arrives: s2 parks it, and each hold is
	// committed to the dock before the sender's confirmation.
	rid := id.MustNew("rx", "s2", time.Now())
	sender := naplet.NewRecord(id.MustNew("tx", "home", time.Now()),
		cred.Credential{}, "test.Collector", "home", nil)
	sender.Book.Add(rid, "s2")
	const posts = 10
	confirmed := make(map[string]bool, posts)
	for i := 0; i < posts; i++ {
		subject := fmt.Sprintf("held%02d", i)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := servers["home"].Messenger().Post(ctx, sender, rid, subject, []byte(subject))
		cancel()
		if err == nil {
			confirmed[subject] = true
		}
	}

	// Wait until every naplet is parked mid-visit at s2, then crash it:
	// the dock image is what a surviving disk would hold.
	for i := 0; i < naplets; i++ {
		select {
		case <-arrived:
		case <-time.After(60 * time.Second):
			dumpTrail(t, inj)
			t.Fatalf("seed %d: only %d of %d naplets reached s2", seed, i, naplets)
		}
	}
	img := crashImage(t, st)
	// A dead process sends nothing. Close, which stands in for the crash,
	// kills the parked visits, and a killed visit that wins the race with
	// the node's shutdown reports "trapped" home — a terminal status the
	// restarted visit can no longer overwrite. Cut s2 off first.
	inj.Crash("s2")
	if err := servers["s2"].Close(); err != nil {
		t.Fatal(err)
	}
	restoreImage(t, st, img)
	inj.Restart("s2")

	// Restart s2 from the dock with the gate open: the interrupted visits
	// replay and the tours run through.
	close(gate)
	st2, err := dock.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := mkConfig("s2")
	cfg.Dock = st2
	s2b, err := New(cfg)
	if err != nil {
		t.Fatalf("seed %d: restart s2: %v", seed, err)
	}
	servers["s2"] = s2b

	// Invariant 1: every tour completes with the exact tour and exactly one
	// skip reroute.
	deadline := time.Now().Add(60 * time.Second)
	for _, nid := range nids {
		for {
			stt, errText, serr := servers["home"].Status(nid)
			if serr == nil && stt == manager.StatusCompleted {
				break
			}
			if time.Now().After(deadline) {
				dumpTrail(t, inj)
				t.Fatalf("seed %d: naplet %s stuck at %v (%s), want completed",
					seed, nid, stt, errText)
			}
			time.Sleep(time.Millisecond)
		}
	}
	want := "s1,s2,s3|skip@<ghost>"
	for i := 0; i < naplets; i++ {
		select {
		case got := <-reports:
			if got != want {
				dumpTrail(t, inj)
				t.Fatalf("seed %d: report = %q, want %q", seed, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: only %d of %d reports arrived", seed, i, naplets)
		}
	}
	select {
	case extra := <-reports:
		dumpTrail(t, inj)
		t.Fatalf("seed %d: duplicate report %q — a naplet survived twice", seed, extra)
	default:
	}

	// Invariant 2: the held mail crossed the crash exactly once.
	held := make(map[string]int, posts)
	for _, msgs := range s2b.Messenger().HeldSnapshot() {
		for _, m := range msgs {
			held[m.Subject]++
		}
	}
	for subject, n := range held {
		if n > 1 {
			dumpTrail(t, inj)
			t.Fatalf("seed %d: held message %q survived %d times", seed, subject, n)
		}
	}
	for subject := range confirmed {
		if held[subject] != 1 {
			dumpTrail(t, inj)
			t.Fatalf("seed %d: confirmed message %q held %d times after restart, want 1",
				seed, subject, held[subject])
		}
	}
}
