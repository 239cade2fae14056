package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/messenger"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestChaosOverloadSeeds runs the chaos tour/message workload with the
// whole overload stack live — admission gates and retry budgets — while
// the injector synthesizes typed overload sheds, twice per seed: once on
// top of the usual drop/duplicate mix, and once with sheds and duplicates
// only. The invariants:
//
//  1. synthesized sheds are transient: every tour still lands exactly
//     once and every confirmed message is delivered exactly once;
//  2. every injected shed is accounted: trail == counts == telemetry
//     for FaultOverload (and every other fault kind);
//  3. every server's admission gate balances its books: arrivals ==
//     admitted + shed per class, with the shared telemetry counters
//     agreeing with the summed gate stats;
//  4. overload sheds are proof of life: in the shed-only pass, where no
//     frame is lost, no server's failure detector records a single
//     transition, so nothing counted a shed as a miss.
//
// Reproduce one seed with -chaos.seed, as with TestChaosSeeds.
func TestChaosOverloadSeeds(t *testing.T) {
	seeds := chaosSeeds
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosOverload(t, seed, fault.Probabilities{
				DropRequest: 0.05,
				DropReply:   0.04,
				Duplicate:   0.05,
				Overload:    0.08, // synthesized admission-gate sheds
			})
			// Invariant 4 over the shed-only pass.
			servers := runChaosOverload(t, seed, fault.Probabilities{Overload: 0.3, Duplicate: 0.05})
			for name, srv := range servers {
				if trail := srv.Health().Trail(); len(trail) != 0 {
					t.Fatalf("seed %d: %s detector counted sheds as misses: %+v", seed, name, trail)
				}
			}
		})
	}
}

// runChaosOverload drives one pass of the workload under fault rates p,
// checks invariants 1–3, and returns the servers for further checks.
func runChaosOverload(t *testing.T, seed int64, p fault.Probabilities) map[string]*Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	inj := fault.New(fault.Config{
		Seed:      seed,
		P:         p,
		Kinds:     func(k wire.Kind) bool { return k != wire.KindReport },
		Telemetry: reg,
	})
	net := netsim.New(netsim.Config{})
	codebases := newTestRegistry(t)

	// The stack is live but sized so only the injector sheds: the suite
	// proves typed sheds are survivable and accounted, not that the gate
	// sheds its own traffic (the loadgen overload profile proves that).
	// The retry budget earns a full token per attempt so the
	// crash-bridging retry schedules the chaos suites depend on stay
	// intact.
	overloadOpts := func() *overload.Options {
		return &overload.Options{
			MaxInFlight: 64,
			MaxQueue:    128,
			MaxWait:     5 * time.Second,
			RetryRatio:  1,
			RetryBurst:  1 << 20,
		}
	}

	names := []string{"home", "s1", "s2", "s3"}
	servers := make(map[string]*Server)
	for _, name := range names {
		srv, err := New(Config{
			Name:               name,
			Fabric:             inj.Fabric(net),
			Registry:           codebases,
			Telemetry:          reg,
			Overload:           overloadOpts(),
			DispatchRetries:    200,
			DispatchRetryDelay: 200 * time.Microsecond,
			Messenger: messenger.Config{
				SendRetries: 8,
				RetryDelay:  200 * time.Microsecond,
				Telemetry:   reg,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[name] = srv
	}

	rid := id.MustNew("rx", "s1", time.Now())
	servers["s1"].mgr.RecordArrival(rid, "test.Collector", "home", time.Now())
	mb := servers["s1"].Messenger().CreateMailbox(rid)
	sender := naplet.NewRecord(id.MustNew("tx", "home", time.Now()),
		cred.Credential{}, "test.Collector", "home", nil)
	sender.Book.Add(rid, "s1")

	const naplets = 3
	tour := []string{"s1", "s2", "s3"}
	reports := make(chan string, naplets*2)
	var nids []id.NapletID
	for i := 0; i < naplets; i++ {
		nid, err := servers["home"].Launch(context.Background(), LaunchOptions{
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

	const posts = 40
	confirmed := make(map[string]bool, posts)
	for i := 0; i < posts; i++ {
		subject := fmt.Sprintf("m%02d", i)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := servers["home"].Messenger().Post(ctx, sender, rid, subject, []byte(subject))
		cancel()
		if err == nil {
			confirmed[subject] = true
		}
	}

	// Invariant 1: exactly-once tours and reports, straight through the
	// synthesized sheds.
	for _, nid := range nids {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		st, err := servers["home"].WaitDone(ctx, nid)
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

	got := make(map[string]int, posts)
	for {
		msg, ok := mb.TryReceive()
		if !ok {
			break
		}
		got[msg.Subject]++
	}
	for subject, n := range got {
		if n > 1 {
			dumpTrail(t, inj)
			t.Fatalf("seed %d: message %q delivered %d times", seed, subject, n)
		}
	}
	for subject := range confirmed {
		if got[subject] != 1 {
			dumpTrail(t, inj)
			t.Fatalf("seed %d: confirmed message %q delivered %d times, want 1",
				seed, subject, got[subject])
		}
	}

	// Invariant 2: the fault ledger reconciles three ways, and the
	// overload scenario actually fired.
	if dropped := inj.TrailDropped(); dropped != 0 {
		t.Fatalf("seed %d: trail overflowed (%d dropped); raise MaxTrail", seed, dropped)
	}
	tally := make(map[string]int64)
	for _, ev := range inj.Trail() {
		tally[ev.Fault]++
	}
	counts := inj.Counts()
	if counts[fault.FaultOverload] == 0 {
		t.Fatalf("seed %d: no overload sheds injected — the scenario never fired", seed)
	}
	for kind, n := range counts {
		if tally[kind] != n {
			t.Fatalf("seed %d: %s: trail=%d counts=%d", seed, kind, tally[kind], n)
		}
		met := reg.Counter("naplet_fault_injected_total",
			"faults injected by the chaos harness", "fault", kind)
		if met.Value() != n {
			t.Fatalf("seed %d: %s: telemetry=%d counts=%d", seed, kind, met.Value(), n)
		}
	}

	// Invariant 3: every gate balances its books once in-flight work
	// drains (polled: handlers observe completion asynchronously).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if gatesBalanced(servers) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var sum overload.GateStats
	sum.Shed = make(map[string]int64)
	for name, srv := range servers {
		st := srv.OverloadGate().Stats()
		if st.BulkArrivals != st.BulkAdmitted+st.TotalShed() {
			t.Fatalf("seed %d: %s gate leak: bulk arrivals %d != admitted %d + shed %d",
				seed, name, st.BulkArrivals, st.BulkAdmitted, st.TotalShed())
		}
		if st.ControlArrivals != st.ControlAdmitted {
			t.Fatalf("seed %d: %s shed control traffic: %+v", seed, name, st)
		}
		sum.ControlAdmitted += st.ControlAdmitted
		sum.BulkAdmitted += st.BulkAdmitted
		for r, n := range st.Shed {
			sum.Shed[r] += n
		}
	}
	for class, want := range map[overload.Class]int64{
		overload.ClassControl: sum.ControlAdmitted,
		overload.ClassBulk:    sum.BulkAdmitted,
	} {
		met := reg.Counter("naplet_overload_admitted_total",
			"requests admitted by the gate", "class", class.String())
		if met.Value() != want {
			t.Fatalf("seed %d: admitted %s: telemetry=%d gates=%d", seed, class, met.Value(), want)
		}
	}
	for _, reason := range overload.ShedReasons {
		met := reg.Counter("naplet_overload_shed_total",
			"requests shed by the admission gate",
			"class", overload.ClassBulk.String(), "reason", reason)
		if met.Value() != sum.Shed[reason] {
			t.Fatalf("seed %d: shed %s: telemetry=%d gates=%d", seed, reason, met.Value(), sum.Shed[reason])
		}
	}
	return servers
}

// gatesBalanced reports whether every server's gate has drained and its
// arrival ledger balances.
func gatesBalanced(servers map[string]*Server) bool {
	for _, srv := range servers {
		st := srv.OverloadGate().Stats()
		if st.InFlight != 0 || st.Queued != 0 {
			return false
		}
		if st.BulkArrivals != st.BulkAdmitted+st.TotalShed() {
			return false
		}
		if st.ControlArrivals != st.ControlAdmitted {
			return false
		}
	}
	return true
}
