package fleet_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// tourist visits servers appending each name to its tour, reporting the
// tour when it dies — the landing trail doubles as an exactly-once probe.
type tourist struct{}

func (tourist) OnStart(ctx *naplet.Context) error {
	var tour []string
	ctx.State().Load("tour", &tour)
	tour = append(tour, ctx.Server)
	return ctx.State().SetPrivate("tour", tour)
}

func (tourist) OnDestroy(ctx *naplet.Context) {
	var tour []string
	ctx.State().Load("tour", &tour)
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctx.Listener.Report(rctx, []byte(strings.Join(tour, " -> ")))
}

func newFleetRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name: "test.Tourist",
		New:  func() naplet.Behavior { return tourist{} },
	})
	return reg
}

// testFleet is a master plus N agent-wired docks on one netsim fabric.
type testFleet struct {
	net    *netsim.Network
	master *fleet.Master
	docks  map[string]*server.Server
	agents map[string]*fleet.Agent
}

func newTestFleet(t *testing.T, masterCfg fleet.Config, docks ...string) *testFleet {
	t.Helper()
	tf := &testFleet{
		net:    netsim.New(netsim.Config{}),
		docks:  make(map[string]*server.Server),
		agents: make(map[string]*fleet.Agent),
	}
	reg := newFleetRegistry(t)
	masterCfg.Fabric = tf.net
	if masterCfg.Name == "" {
		masterCfg.Name = "m"
	}
	if masterCfg.HeartbeatEvery <= 0 {
		masterCfg.HeartbeatEvery = 20 * time.Millisecond
	}
	if masterCfg.StatusPoll <= 0 {
		masterCfg.StatusPoll = 5 * time.Millisecond
	}
	m, err := fleet.NewMaster(masterCfg)
	if err != nil {
		t.Fatal(err)
	}
	tf.master = m
	t.Cleanup(func() { m.Close() })
	for _, name := range docks {
		srv, err := server.New(server.Config{Name: name, Fabric: tf.net, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		tf.docks[name] = srv
		t.Cleanup(func() { srv.Close() })
		ag, err := fleet.NewAgent(fleet.AgentConfig{
			Node:   srv.Node(),
			Master: masterCfg.Name,
			Stats: func() fleet.NodeStats {
				return fleet.NodeStats{
					Residents: srv.Manager().Resident(),
					Draining:  srv.Draining(),
				}
			},
			HeartbeatEvery: masterCfg.HeartbeatEvery,
			FlushEvery:     10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetEventSink(func(e server.Event) { ag.Publish(fleet.NavEvent(e)) })
		srv.Tracer().SetSink(func(sp telemetry.HopSpan) { ag.Publish(fleet.SpanEvent(sp)) })
		tf.agents[name] = ag
		ag.Run()
		t.Cleanup(ag.Close)
	}
	return tf
}

// waitNodes blocks until the master sees n registered nodes.
func (tf *testFleet) waitNodes(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tf.master.Registry().Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d nodes registered", tf.master.Registry().Len(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMasterRegistrationAndNodesOverWire(t *testing.T) {
	tf := newTestFleet(t, fleet.Config{}, "d1", "d2", "d3")
	tf.waitNodes(t, 3)

	// Operator node listing over the fleet protocol.
	ctl, err := tf.net.Attach("ctl", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	f, err := wire.NewFrame(wire.KindFleetNodes, "ctl", "m", fleet.NodesBody{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ctl.Call(context.Background(), "m", f)
	if err != nil {
		t.Fatal(err)
	}
	var rb fleet.NodesReplyBody
	if err := resp.Body(&rb); err != nil {
		t.Fatal(err)
	}
	if len(rb.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(rb.Nodes))
	}
	for i, want := range []string{"d1", "d2", "d3"} {
		n := rb.Nodes[i]
		if n.Name != want || n.State != "alive" {
			t.Fatalf("node %d = %+v", i, n)
		}
	}
}

func TestMasterWaveLaunchesAcrossFleet(t *testing.T) {
	tf := newTestFleet(t, fleet.Config{}, "d1", "d2", "d3")
	tf.waitNodes(t, 3)

	sub := tf.master.Broadcaster().SubscribeDefault()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tf.master.Wave(ctx, fleet.WaveSpec{
		Name:     "smoke",
		Count:    2,
		Routes:   []string{"seq(d1,d2)", "seq(d2,d3)"},
		Codebase: "test.Tourist",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 4 || res.Completed != 4 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	wantTours := map[string]string{"seq(d1,d2)": "d1 -> d2", "seq(d2,d3)": "d2 -> d3"}
	for _, l := range res.Launches {
		if string(l.Result) != wantTours[l.Route] {
			t.Fatalf("launch %d tour = %q, want %q", l.Index, l.Result, wantTours[l.Route])
		}
	}

	// The nav-log events streamed to the master: every launch produced
	// launch/arrival/complete events with the node stamped.
	deadline := time.Now().Add(5 * time.Second)
	kinds := map[string]int{}
	for {
		evs, _, err := tf.master.Broadcaster().Poll(sub, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.Node == "" {
				t.Fatalf("event without node: %+v", ev)
			}
			kinds[ev.Kind]++
		}
		if kinds[fleet.EventComplete] >= 4 && kinds[fleet.EventLaunch] >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("event stream incomplete: %v", kinds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if kinds[fleet.EventArrival] == 0 {
		t.Fatalf("no arrival events: %v", kinds)
	}
}

func TestMasterWaveOverWire(t *testing.T) {
	tf := newTestFleet(t, fleet.Config{}, "d1", "d2")
	tf.waitNodes(t, 2)
	ctl, err := tf.net.Attach("ctl", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	f, err := wire.NewFrame(wire.KindFleetWave, "ctl", "m", fleet.WaveBody{Spec: fleet.WaveSpec{
		Count:    1,
		Routes:   []string{"seq(d1,d2)"},
		Codebase: "test.Tourist",
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := ctl.Call(ctx, "m", f)
	if err != nil {
		t.Fatal(err)
	}
	var rb fleet.WaveReplyBody
	if err := resp.Body(&rb); err != nil {
		t.Fatal(err)
	}
	if !rb.OK || rb.Result == nil || rb.Result.Completed != 1 {
		t.Fatalf("wave reply = %+v (result %+v)", rb, rb.Result)
	}
}

func TestMasterSubscribeOverWire(t *testing.T) {
	tf := newTestFleet(t, fleet.Config{}, "d1")
	tf.waitNodes(t, 1)
	ctl, err := tf.net.Attach("ctl", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	subscribe := func(body *fleet.SubscribeBody) fleet.SubscribeReplyBody {
		t.Helper()
		f := wire.BinaryFrame(wire.KindFleetSubscribe, "ctl", "m", body)
		resp, err := ctl.Call(context.Background(), "m", f)
		if err != nil {
			t.Fatal(err)
		}
		var rb fleet.SubscribeReplyBody
		if err := rb.Decode(resp.Payload); err != nil {
			t.Fatal(err)
		}
		return rb
	}
	created := subscribe(&fleet.SubscribeBody{})
	if created.ID == "" {
		t.Fatalf("no subscription id: %+v", created)
	}
	// Run a tiny wave so events flow.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := tf.master.Wave(ctx, fleet.WaveSpec{
		Count: 1, Routes: []string{"seq(d1)"}, Codebase: "test.Tourist",
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	total := 0
	for total == 0 {
		rb := subscribe(&fleet.SubscribeBody{ID: created.ID})
		if rb.Closed || rb.Err != "" {
			t.Fatalf("poll reply = %+v", rb)
		}
		total += len(rb.Events)
		if time.Now().After(deadline) {
			t.Fatal("no events over wire subscription")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMasterMarksSilentNodeDeadAndThrottleSignal(t *testing.T) {
	tf := newTestFleet(t, fleet.Config{
		Watchdog: fleet.WatchdogConfig{DiskWatermarkBytes: 1000},
	}, "d1", "d2")
	tf.waitNodes(t, 2)

	// Stop d2's agent: heartbeats cease and the liveness sweep walks it
	// to dead within a few intervals.
	tf.agents["d2"].Close()
	deadline := time.Now().Add(5 * time.Second)
	for !tf.master.Registry().Dead("d2") {
		if time.Now().After(deadline) {
			t.Fatal("silent node never marked dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tf.master.Registry().Dead("d1") {
		t.Fatal("live node marked dead")
	}
	if got := tf.master.Registry().Schedulable(); len(got) != 1 || got[0] != "d1" {
		t.Fatalf("schedulable = %v", got)
	}

	// Watchdog: a heartbeat reporting disk over the watermark flips the
	// throttle signal served back to that node.
	tf.master.Watchdog().ObserveDisk("d1", 5000)
	if got := tf.master.Registry().Schedulable(); len(got) != 0 {
		t.Fatalf("over-watermark node still schedulable: %v", got)
	}
}
