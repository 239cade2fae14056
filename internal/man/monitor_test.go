package man

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/snmp"
)

func TestEventPollService(t *testing.T) {
	dev := snmp.NewDevice(snmp.DeviceConfig{Name: "r1", Seed: 3})
	mgr := resource.NewManager(nil)
	mgr.RegisterPrivileged(EventServiceName, NewEventPollService(dev))

	ch, err := mgr.OpenChannel(nil, EventServiceName)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	// Before any workload: empty poll, round 0.
	ch.WriteLine("poll")
	if line, _ := ch.ReadLine(); line != "" {
		t.Fatalf("fresh poll = %q", line)
	}
	ch.WriteLine("round")
	if line, _ := ch.ReadLine(); line != "0" {
		t.Fatalf("round = %q", line)
	}

	for i := 0; i < 5; i++ {
		dev.TickEvents(time.Second)
	}
	ch.WriteLine("poll")
	line, _ := ch.ReadLine()
	events := strings.Split(line, ";")
	if len(events) < 5 {
		t.Fatalf("poll after 5 rounds: %d events", len(events))
	}
	for _, ev := range events {
		if strings.Count(ev, "|") != 3 {
			t.Fatalf("malformed event %q", ev)
		}
	}
	ch.WriteLine("round")
	if rline, _ := ch.ReadLine(); rline != "5" {
		t.Fatalf("round = %q", rline)
	}
	// Unknown command errors without killing the loop.
	ch.WriteLine("bogus")
	if eline, _ := ch.ReadLine(); !strings.Contains(eline, "error") {
		t.Fatalf("bogus command reply: %q", eline)
	}
}

func TestMonitorAllFiltersOnSite(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Devices: 3, Seed: 6, Link: netsim.LAN})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	const rounds = 15
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			tb.TickEvents(time.Second)
			time.Sleep(time.Millisecond)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := tb.Station.MonitorAll(ctx, tb.DeviceNames, rounds)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	total, signif := tb.TrapTotals()
	if res.Seen != total {
		t.Fatalf("monitors saw %d of %d events", res.Seen, total)
	}
	alerts := 0
	for _, a := range res.Alerts {
		alerts += len(a)
	}
	if alerts != signif {
		t.Fatalf("alerts %d != significant %d", alerts, signif)
	}
	if res.Filtered != total-signif {
		t.Fatalf("filtered %d != noise %d", res.Filtered, total-signif)
	}
	if len(res.Alerts) != 3 {
		t.Fatalf("device coverage: %v", res.Alerts)
	}
}

func TestMonitorAllCutsStationFrames(t *testing.T) {
	// Trap forwarding hauls every event to the station, one frame each;
	// resident monitors filter on site and ship home only the significant
	// alerts. Each path runs the same seeded workload on a testbed of its
	// own.
	const devices, rounds = 4, 20
	newTestbed := func() *Testbed {
		tb, err := NewTestbed(TestbedConfig{Devices: devices, Seed: 2, Link: netsim.LAN, BundleSize: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tb.Close)
		tb.Net.ResetStats()
		return tb
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cn := newTestbed()
	for r := 0; r < rounds; r++ {
		cn.TickEvents(time.Second)
		if _, err := cn.ForwardAllTraps(ctx, CNMPHost); err != nil {
			t.Fatal(err)
		}
	}
	events, signif := cn.TrapTotals()
	if got := len(cn.CNMP.SignificantTraps()); got != signif {
		t.Fatalf("trap forwarding delivered %d of %d significant events", got, signif)
	}
	cnFrames := cn.Net.HostStats(CNMPHost).FramesRecv
	if cnFrames != int64(events) {
		t.Fatalf("CNMP station frames %d != events %d", cnFrames, events)
	}

	mn := newTestbed()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			mn.TickEvents(time.Second)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	res, err := mn.Station.MonitorAll(ctx, mn.DeviceNames, rounds)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if e, s := mn.TrapTotals(); e != events || s != signif {
		t.Fatalf("workloads diverged: %d/%d events vs %d/%d", e, s, events, signif)
	}
	alerts := 0
	for _, a := range res.Alerts {
		alerts += len(a)
	}
	if alerts != signif {
		t.Fatalf("monitors delivered %d of %d significant events", alerts, signif)
	}
	mnFrames := mn.Net.HostStats(StationHost).FramesRecv
	if mnFrames*4 > cnFrames {
		t.Fatalf("filtering shape violated: MAN station %d frames, CNMP %d", mnFrames, cnFrames)
	}
	t.Logf("station frames over %d events: CNMP=%d MAN=%d", events, cnFrames, mnFrames)
}
