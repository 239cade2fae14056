package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/directory/shard"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestChaosDirectorySeeds kills a directory shard replica mid-tour and
// asserts the location plane's availability invariants. Runs the same
// fixed seed set as TestChaosSeeds; reproduce one seed with -chaos.seed.
func TestChaosDirectorySeeds(t *testing.T) {
	seeds := chaosSeeds
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosDirectory(t, seed)
		})
	}
}

// runChaosDirectory builds a 3-node replicated directory plane (R=2),
// registers a probe naplet whose rendezvous primary is about to die,
// crashes exactly that node mid-tour, and asserts:
//
//  1. every naplet still lands exactly once per itinerary hop (exactly
//     one final report, exact tour) — a landing waits for no directory,
//     and the launch registrations made before the crash survive on the
//     remaining replica;
//  2. the probe registered before the crash stays resolvable afterwards
//     (read-your-writes across the replica group), with the shard client
//     recording the failover;
//  3. new registrations made with one replica down remain resolvable.
func runChaosDirectory(t *testing.T, seed int64) {
	t.Helper()
	dirNodes := []string{"d1", "d2", "d3"}
	probe := id.MustNew("probe", "home", time.Now())

	// The scripted crash targets the probe's rendezvous primary, so the
	// failover path — not a lucky healthy-primary read — is what the
	// post-crash lookup exercises.
	ring := shard.NewRing(dirNodes)
	crashed := ring.Owners(shard.KeyOf(probe), 1)[0]

	reg := telemetry.NewRegistry()
	inj := fault.New(fault.Config{
		Seed: seed,
		P: fault.Probabilities{
			DropRequest: 0.05,
			DropReply:   0.04,
			Duplicate:   0.05,
			Delay:       0.03,
		},
		DelaySpike: 100 * time.Microsecond,
		// A run makes 9 to 15 calls before its three tours are under way
		// (the probe's registration and lookup, the launches' registrations,
		// the first hops) and 24 to 31 by the time they end: call 18 falls
		// inside the tours on every seed.
		Schedule: []fault.Step{
			{AfterCalls: 18, Op: fault.OpCrash, A: crashed},
		},
		Kinds:     func(k wire.Kind) bool { return k != wire.KindReport },
		Telemetry: reg,
	})
	net := netsim.New(netsim.Config{})
	fabric := inj.Fabric(net)
	for _, addr := range dirNodes {
		if _, err := directory.NewService().Serve(fabric, addr); err != nil {
			t.Fatal(err)
		}
	}

	codebases := newTestRegistry(t)
	servers := make(map[string]*Server)
	for _, name := range []string{"home", "s1", "s2", "s3"} {
		srv, err := New(Config{
			Name:               name,
			Fabric:             fabric,
			Registry:           codebases,
			Telemetry:          reg,
			LocatorMode:        locator.ModeDirectory,
			DirectoryAddrs:     dirNodes,
			DirReplicas:        2,
			DispatchRetries:    200,
			DispatchRetryDelay: 200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[name] = srv
	}

	// The injector drops individual frames throughout, so a single lookup
	// RPC may legitimately fail even against a healthy replica; like every
	// other consumer under chaos, the observation channel retries. The
	// invariant under test is that the plane keeps answering, not that one
	// frame survives a lossy network.
	lookupRetry := func(dir directory.Directory, nid id.NapletID) (directory.Entry, error) {
		var (
			e   directory.Entry
			err error
		)
		for attempt := 0; attempt < 10; attempt++ {
			e, err = dir.Lookup(context.Background(), nid)
			if err == nil || errors.Is(err, directory.ErrNotFound) {
				return e, err
			}
			time.Sleep(5 * time.Millisecond)
		}
		return e, err
	}

	// Register the probe before the crash: the write goes through to both
	// of its replicas while they are still alive.
	ctx := context.Background()
	if err := servers["s1"].Directory().RegisterEvent(ctx, directory.Registration{
		NapletID: probe, Event: directory.Arrival, Server: "s1", At: time.Now(), Seq: 1,
	}); err != nil {
		t.Fatalf("seed %d: probe registration: %v", seed, err)
	}
	if e, err := lookupRetry(servers["home"].Directory(), probe); err != nil || e.Server != "s1" {
		t.Fatalf("seed %d: pre-crash probe lookup = %+v, %v", seed, e, err)
	}

	// Tours burn through the injector's call budget and trip the scripted
	// crash; what registers afterwards runs against a degraded plane.
	const naplets = 3
	tour := []string{"s1", "s2", "s3"}
	reports := make(chan string, naplets*2)
	var nids []id.NapletID
	for i := 0; i < naplets; i++ {
		nid, err := servers["home"].Launch(ctx, LaunchOptions{
			Owner:    "czxu",
			Codebase: "test.Collector",
			Pattern:  itinerary.SeqVisits(tour, ""),
			Listener: func(r manager.Result) { reports <- string(r.Body) },
		})
		if err != nil {
			t.Fatal(err)
		}
		nids = append(nids, nid)
	}

	// Invariant 1: exactly-once landing, every tour complete.
	for _, nid := range nids {
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		st, err := servers["home"].WaitDone(wctx, nid)
		cancel()
		if err != nil {
			dumpTrail(t, inj)
			t.Fatalf("seed %d: naplet %s did not finish: %v", seed, nid, err)
		}
		if st != manager.StatusCompleted {
			_, errText, _ := servers["home"].Status(nid)
			dumpTrail(t, inj)
			t.Fatalf("seed %d: naplet %s status = %v (%s)", seed, nid, st, errText)
		}
	}
	want := "s1,s2,s3"
	for i := 0; i < naplets; i++ {
		select {
		case got := <-reports:
			if got != want {
				dumpTrail(t, inj)
				t.Fatalf("seed %d: tour = %q, want %q", seed, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: only %d of %d reports arrived", seed, i, naplets)
		}
	}
	select {
	case extra := <-reports:
		dumpTrail(t, inj)
		t.Fatalf("seed %d: duplicate report %q — a naplet landed twice", seed, extra)
	default:
	}

	// The crash must actually have fired (the tours always generate more
	// than enough fabric calls); otherwise the test proved nothing.
	crashedFired := false
	for _, ev := range inj.Trail() {
		if ev.Fault == fault.FaultCrash {
			crashedFired = true
		}
	}
	if !crashedFired {
		t.Fatalf("seed %d: scripted crash of %s never fired", seed, crashed)
	}

	// Invariant 2: the pre-crash registration is still readable with its
	// primary dead, served by the surviving replica.
	if e, err := lookupRetry(servers["home"].Directory(), probe); err != nil || e.Server != "s1" {
		dumpTrail(t, inj)
		t.Fatalf("seed %d: post-crash probe lookup = %+v, %v (primary %s down)",
			seed, e, err, crashed)
	}
	sc, ok := servers["home"].Directory().(*shard.Client)
	if !ok {
		t.Fatalf("seed %d: directory plane is %T, want *shard.Client", seed, servers["home"].Directory())
	}
	if sc.Stats().Failovers == 0 {
		t.Fatalf("seed %d: probe resolved with its primary dead but no failover was recorded", seed)
	}

	// Invariant 3: writes made against the degraded plane stay readable.
	// The write retries like the lookups do — under frame loss a single
	// fan-out may miss every live replica.
	late := id.MustNew("late", "home", time.Now())
	var regErr error
	for attempt := 0; attempt < 10; attempt++ {
		regErr = servers["s2"].Directory().RegisterEvent(ctx, directory.Registration{
			NapletID: late, Event: directory.Arrival, Server: "s2", At: time.Now(), Seq: 1,
		})
		if regErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if regErr != nil {
		dumpTrail(t, inj)
		t.Fatalf("seed %d: degraded-plane registration: %v", seed, regErr)
	}
	if e, err := lookupRetry(servers["s3"].Directory(), late); err != nil || e.Server != "s2" {
		dumpTrail(t, inj)
		t.Fatalf("seed %d: degraded-plane lookup = %+v, %v", seed, e, err)
	}

	// Every tour naplet registered where it stayed, its launch at least;
	// each must still resolve to a server inside the space.
	inSpace := map[string]bool{"home": true, "s1": true, "s2": true, "s3": true}
	for _, nid := range nids {
		e, err := lookupRetry(servers["home"].Directory(), nid)
		if err != nil {
			dumpTrail(t, inj)
			t.Fatalf("seed %d: tour naplet %s lookup: %v", seed, nid, err)
		}
		where := e.Server
		if !inSpace[where] {
			dumpTrail(t, inj)
			t.Fatalf("seed %d: tour naplet %s resolves to %q, outside the space", seed, nid, where)
		}
	}
}
