package fleet_test

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// chaosSeed reruns the fleet chaos suite with one specific seed:
//
//	go test ./internal/fleet/ -run TestChaosFleetSeeds -chaos.seed=23 -v
var chaosSeed = flag.Int64("chaos.seed", 0, "run the fleet chaos suite with this single seed only")

// chaosSeeds is the fixed CI seed set, shared with the server chaos
// suite so a failure is reproducible bit for bit.
var chaosSeeds = []int64{11, 23, 37, 41, 59, 67, 73, 89, 97, 103}

func TestChaosFleetSeeds(t *testing.T) {
	seeds := chaosSeeds
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Seeds share nothing (each builds its own netsim fabric,
			// injector, and master); run them in parallel so the suite's
			// wall-clock is the slowest seed, not the sum.
			t.Parallel()
			runFleetChaos(t, seed)
		})
	}
}

// landings counts per-(naplet, server) landings — the exactly-once probe.
// Each landing also records its hop context, so a duplicate is
// diagnosable post-mortem (same hop = a replayed transfer; different
// hops = a forked naplet touring twice).
type landings struct {
	mu     sync.Mutex
	m      map[string]int
	detail map[string][]string
}

func (l *landings) inc(ctx *naplet.Context) {
	key := ctx.NapletID().String() + "@" + ctx.Server
	hop, rem := -1, "?"
	if ctx.Record.Log != nil {
		hop = ctx.Record.Log.Len()
	}
	if ctx.Record.Itin != nil {
		rem = ctx.Record.Itin.String()
	}
	d := fmt.Sprintf("hop=%d rem=%s at=%s",
		hop, rem, time.Now().Format("15:04:05.000000"))
	l.mu.Lock()
	l.m[key]++
	l.detail[key] = append(l.detail[key], d)
	l.mu.Unlock()
}

func (l *landings) doubles() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for k, n := range l.m {
		if n > 1 {
			out = append(out, fmt.Sprintf("%s landed %d times: %s",
				k, n, strings.Join(l.detail[k], " | ")))
		}
	}
	return out
}

// runFleetChaos drives one launch wave through a faulty fabric while one
// dock crash-kills mid-wave, and asserts the control-plane invariants:
//
//  1. the master marks the crashed dock dead from missed heartbeats;
//  2. its unfinished launches are rescheduled and the wave completes —
//     every assignment terminal, none failed;
//  3. landings stay exactly-once per (naplet, server): reschedules are
//     new naplet identities, never replays;
//  4. a deliberately slow event subscriber is dropped without stalling
//     the broadcaster, the wave, or a healthy subscriber.
func runFleetChaos(t *testing.T, seed int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	inj := fault.New(fault.Config{
		Seed: seed,
		P: fault.Probabilities{
			DropRequest: 0.04,
			DropReply:   0.03,
			Duplicate:   0.04,
			Delay:       0.03,
		},
		DelaySpike: 100 * time.Microsecond,
		// Owner reports stay reliable (the observation channel), as in
		// the server chaos suite.
		Kinds:     func(k wire.Kind) bool { return k != wire.KindReport },
		Telemetry: reg,
	})
	net := netsim.New(netsim.Config{})
	fabric := inj.Fabric(net)

	land := &landings{m: make(map[string]int), detail: make(map[string][]string)}
	codebases := registry.New()
	codebases.MustRegister(&registry.Codebase{
		Name: "chaos.Recorder",
		New: func() naplet.Behavior {
			return &recorder{land: land}
		},
	})

	const heartbeat = 25 * time.Millisecond
	master, err := fleet.NewMaster(fleet.Config{
		Name:           "m",
		Fabric:         fabric,
		HeartbeatEvery: heartbeat,
		StatusPoll:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	dockNames := []string{"d1", "d2", "d3", "d4"}
	for _, name := range dockNames {
		srv, err := server.New(server.Config{
			Name:               name,
			Fabric:             fabric,
			Registry:           codebases,
			Telemetry:          reg,
			DispatchRetries:    200,
			DispatchRetryDelay: 200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		ag, err := fleet.NewAgent(fleet.AgentConfig{
			Node:       srv.Node(),
			Master:     "m",
			FlushEvery: 10 * time.Millisecond,
			Stats: func() fleet.NodeStats {
				return fleet.NodeStats{Residents: srv.Manager().Resident()}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetEventSink(func(e server.Event) { ag.Publish(fleet.NavEvent(e)) })
		srv.Tracer().SetSink(func(sp telemetry.HopSpan) { ag.Publish(fleet.SpanEvent(sp)) })
		ag.Run()
		t.Cleanup(ag.Close)
	}
	waitRegistered(t, master, len(dockNames))

	// A deliberately slow subscriber (tiny ring, never polled during the
	// wave) and a healthy one.
	slow := master.Broadcaster().Subscribe(4, fleet.DropSlow)
	healthy := master.Broadcaster().Subscribe(4096, fleet.DropSlow)

	// The wave: routes crossing all four docks, enough launches that d3
	// holds work when it dies.
	spec := fleet.WaveSpec{
		Name:       fmt.Sprintf("chaos-%d", seed),
		Count:      3,
		Routes:     []string{"seq(d1,d2)", "seq(d2,d4)", "seq(d3,d1)", "seq(d4,d3)"},
		Codebase:   "chaos.Recorder",
		Failover:   "skip",
		PerNodeCap: 2,
		Retries:    4,
		// A naplet resident on the crashed dock keeps running but cannot
		// migrate or report; its assignment rides out this timeout before
		// rescheduling. Keep it short — healthy tours finish in ms.
		WaitTimeout: 10 * time.Second,
	}
	type waveOut struct {
		res *fleet.WaveResult
		err error
	}
	waveDone := make(chan waveOut, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	go func() {
		res, err := master.Wave(ctx, spec)
		waveDone <- waveOut{res, err}
	}()

	// Crash-kill d3 once the wave is visibly under way (a few landings
	// recorded): calls from and to it fail, its heartbeats stop, and the
	// master must walk it to dead and reroute its pending launches.
	waitLandings(t, land, 3)
	inj.Crash("d3")

	var out waveOut
	select {
	case out = <-waveDone:
	case <-time.After(100 * time.Second):
		t.Fatal("wave never finished")
	}
	if out.err != nil {
		t.Fatalf("wave error: %v", out.err)
	}
	res := out.res
	if res.Completed != res.Total || res.Failed != 0 {
		for _, l := range res.Launches {
			if l.Status != "completed" {
				t.Logf("launch %d at %s: %s (%s)", l.Index, l.Node, l.Status, l.Err)
			}
		}
		t.Fatalf("wave = %d/%d completed, %d failed, %d rescheduled",
			res.Completed, res.Total, res.Failed, res.Rescheduled)
	}
	// The crashed dock is dead in the master's books.
	if !master.Health().Dead("d3") {
		t.Fatalf("d3 not presumed dead; state = %v", master.Health().State("d3"))
	}
	if res.PerNode["d3"] != 0 {
		// d3 may have completed launches before the crash — but only
		// before. Completed-at-d3 entries must predate the crash, which
		// we can't timestamp here; what must hold is that every launch
		// completed and landed exactly once (checked below).
		t.Logf("d3 completed %d launches before the crash", res.PerNode["d3"])
	}

	// Exactly-once landings, wave-wide: no (naplet, server) pair saw a
	// second landing. Rescheduled launches carry fresh naplet IDs, so a
	// replayed assignment shows up here as a double landing.
	if doubles := land.doubles(); len(doubles) > 0 {
		t.Fatalf("duplicate landings:\n%s", strings.Join(doubles, "\n"))
	}

	// The slow subscriber overflowed its 4-slot ring and was dropped —
	// ingest and the healthy subscriber, which got more events than the
	// slow one's ring holds, never stalled.
	if _, _, err := master.Broadcaster().Poll(slow, 0); err == nil {
		t.Fatal("slow subscriber survived a full wave without polling")
	}
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got <= 4 {
		evs, _, err := master.Broadcaster().Poll(healthy, 0)
		if err != nil {
			t.Fatalf("healthy subscriber: %v", err)
		}
		got += len(evs)
		if time.Now().After(deadline) {
			t.Fatalf("healthy subscriber saw %d events, want more than 4", got)
		}
	}
}

// recorder is the chaos probe behavior: every landing increments the
// shared per-(naplet, server) count, and the tour reports home.
type recorder struct {
	land *landings
}

func (r *recorder) OnStart(ctx *naplet.Context) error {
	r.land.inc(ctx)
	var tour []string
	ctx.State().Load("tour", &tour)
	tour = append(tour, ctx.Server)
	return ctx.State().SetPrivate("tour", tour)
}

func (r *recorder) OnDestroy(ctx *naplet.Context) {
	var tour []string
	ctx.State().Load("tour", &tour)
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctx.Listener.Report(rctx, []byte(strings.Join(tour, " -> ")))
}

func waitRegistered(t *testing.T, m *fleet.Master, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.Registry().Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d docks registered", m.Registry().Len(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitLandings(t *testing.T, l *landings, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		l.mu.Lock()
		total := len(l.m)
		l.mu.Unlock()
		if total >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d landings before crash window", total)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
