package server

import (
	"context"
	"flag"
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
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// chaosSeed reruns the chaos suite with one specific seed, reproducing a
// CI failure locally:
//
//	go test ./internal/server/ -run TestChaosSeeds -chaos.seed=23 -v
var chaosSeed = flag.Int64("chaos.seed", 0, "run the chaos suite with this single seed only")

// chaosSeeds is the fixed CI seed set. Every seed must uphold the
// invariants; a failing seed is reproducible bit for bit via -chaos.seed.
var chaosSeeds = []int64{11, 23, 37, 41, 59, 67, 73, 89, 97, 103}

func TestChaosSeeds(t *testing.T) {
	seeds := chaosSeeds
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}

// runChaos drives naplet tours and a message stream through a faulty
// space — probabilistic drops, dropped replies, duplicated frames,
// latency spikes, plus a scripted crash window and a scripted partition
// window — and asserts the end-to-end invariants:
//
//  1. every naplet lands exactly once per itinerary hop (exact tour,
//     exactly one final report);
//  2. no naplet record is lost or duplicated (all tours complete);
//  3. every confirmed message is delivered exactly once, and no message
//     is ever delivered twice;
//  4. telemetry fault counters reconcile with the injector's event trail.
func runChaos(t *testing.T, seed int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	inj := fault.New(fault.Config{
		Seed: seed,
		P: fault.Probabilities{
			DropRequest: 0.08,
			DropReply:   0.06, // the side effect happens, the ack is lost
			Duplicate:   0.08,
			Delay:       0.03,
		},
		DelaySpike: 100 * time.Microsecond,
		Schedule: []fault.Step{
			{AfterCalls: 25, Op: fault.OpCrash, A: "s2"},
			{AfterCalls: 55, Op: fault.OpRestart, A: "s2"},
			{AfterCalls: 70, Op: fault.OpPartition, A: "home", B: "s1"},
			{AfterCalls: 100, Op: fault.OpHeal, A: "home", B: "s1"},
		},
		// Owner reports are the test's observation channel, not part of
		// the protocols under test: keep them reliable so "exactly one
		// report" stays a sharp invariant.
		Kinds:     func(k wire.Kind) bool { return k != wire.KindReport },
		Telemetry: reg,
	})
	net := netsim.New(netsim.Config{})
	codebases := newTestRegistry(t)

	servers := make(map[string]*Server)
	for _, name := range []string{"home", "s1", "s2", "s3"} {
		srv, err := New(Config{
			Name:               name,
			Fabric:             inj.Fabric(net),
			Registry:           codebases,
			Telemetry:          reg,
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

	// A static message receiver resident at s1, and a synthetic sender at
	// home posting through the faulty fabric.
	rid := id.MustNew("rx", "s1", time.Now())
	servers["s1"].mgr.RecordArrival(rid, "test.Collector", "home", time.Now())
	mb := servers["s1"].Messenger().CreateMailbox(rid)
	sender := naplet.NewRecord(id.MustNew("tx", "home", time.Now()),
		cred.Credential{}, "test.Collector", "home", nil)
	sender.Book.Add(rid, "s1")

	// Launch the tours. Each collector appends every server it lands on,
	// so a double-landing or a lost hop corrupts the report.
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

	// Post a message stream while the tours run; remember which sends were
	// confirmed. An unconfirmed send may still have been delivered (its
	// confirmation may be the lost frame) — that is exactly what the
	// receiver-side dedup must absorb.
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

	// Invariants 1 and 2: every tour completes, with exactly one report of
	// the exact itinerary.
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

	// Invariant 3: drain the receiver's mailbox. Confirmed messages appear
	// exactly once; nothing appears more than once.
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

	// Replayed transfers (a duplicated TRANSFER frame, or a retry after a
	// dropped ack) must show up as dedup hits, never as second landings. A
	// replayed code-less transfer to a cold dock landed nothing the first
	// time either: it is a re-ask for the code, not a dedup hit. A copy
	// whose ack was dropped lands and tours on while its origin is still
	// between retries: the dedup hit comes with the retry, which may be
	// sent after the tour ended. Read the counters once every migration
	// has settled.
	waitMigrationsSettled(t, servers)
	var transferReplays, dedupHits, codeReasks int64
	for _, ev := range inj.Trail() {
		if ev.Frame == wire.KindNapletTransfer &&
			(ev.Fault == fault.FaultDuplicate || ev.Fault == fault.FaultDropReply) {
			transferReplays++
		}
	}
	for _, srv := range servers {
		st := srv.Navigator().Stats()
		dedupHits += st.DupTransfers
		codeReasks += st.CodeReasks
	}
	if dedupHits+codeReasks < transferReplays {
		dumpTrail(t, inj)
		t.Fatalf("seed %d: %d transfer replays injected but only %d dedup hits and %d code re-asks",
			seed, transferReplays, dedupHits, codeReasks)
	}

	// Invariant 4: the telemetry counters, the injector's own totals and a
	// tally of the event trail must agree fault by fault.
	if dropped := inj.TrailDropped(); dropped != 0 {
		t.Fatalf("seed %d: trail overflowed (%d dropped); raise MaxTrail", seed, dropped)
	}
	tally := make(map[string]int64)
	for _, ev := range inj.Trail() {
		tally[ev.Fault]++
	}
	for kind, n := range inj.Counts() {
		if tally[kind] != n {
			t.Fatalf("seed %d: %s: trail=%d counts=%d", seed, kind, tally[kind], n)
		}
		met := reg.Counter("naplet_fault_injected_total",
			"faults injected by the chaos harness", "fault", kind)
		if met.Value() != n {
			t.Fatalf("seed %d: %s: telemetry=%d counts=%d", seed, kind, met.Value(), n)
		}
	}
}

// waitMigrationsSettled waits until no server has a migration open: every
// dispatch, retries included, has had its last answer.
func waitMigrationsSettled(t *testing.T, servers map[string]*Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for name, srv := range servers {
		for {
			srv.leaveMu.Lock()
			open := len(srv.leaving)
			srv.leaveMu.Unlock()
			if open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still has %d migrations open", name, open)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// dumpTrail logs the injector's fault trail for post-mortem replay.
func dumpTrail(t *testing.T, inj *fault.Injector) {
	t.Helper()
	trail := inj.Trail()
	max := len(trail)
	if max > 60 {
		max = 60
	}
	for _, ev := range trail[:max] {
		t.Logf("fault trail: call=%d %s->%s %s %s %s", ev.Seq, ev.From, ev.To, ev.Frame, ev.Fault, ev.Detail)
	}
	if len(trail) > max {
		t.Logf("fault trail: ... %d more events", len(trail)-max)
	}
}
