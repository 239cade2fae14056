package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/locator"
	"repro/internal/netsim"
)

// TestAllExperimentsQuick runs every experiment end to end in quick mode:
// the integration smoke test for the whole reproduction harness.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{Quick: true, Seed: 42}); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("e3"); !ok {
		t.Fatal("e3 must exist")
	}
	if _, ok := Lookup("e99"); ok {
		t.Fatal("e99 must not exist")
	}
	if len(All()) != 11 {
		t.Fatalf("experiment count = %d", len(All()))
	}
}

func TestE3ShapesHold(t *testing.T) {
	// Station traffic: CNMP micro-management must dominate MAN at high
	// variable counts.
	cnmpCell, err := RunE3Cell(StratCNMPMicro, 8, 32, netsim.LAN, E3BundleSize, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	manCell, err := RunE3Cell(StratMANSeq, 8, 32, netsim.LAN, E3BundleSize, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cnmpCell.StationBytes < 2*manCell.StationBytes {
		t.Fatalf("station shape: cnmp=%d man=%d", cnmpCell.StationBytes, manCell.StationBytes)
	}
	// Crossover: at one variable, total traffic favors CNMP.
	cnmp1, err := RunE3Cell(StratCNMPMicro, 4, 1, netsim.LAN, 64<<10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	man1, err := RunE3Cell(StratMANSeq, 4, 1, netsim.LAN, 64<<10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cnmp1.TotalBytes >= man1.TotalBytes {
		t.Fatalf("crossover shape: cnmp=%d man=%d", cnmp1.TotalBytes, man1.TotalBytes)
	}
	// WAN latency: man-seq must beat cnmp-micro at high V (fewer
	// round trips over the slow link).
	cnmpWAN, err := RunE3Cell(StratCNMPMicro, 8, 32, netsim.WAN, E3BundleSize, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	manWAN, err := RunE3Cell(StratMANSeq, 8, 32, netsim.WAN, E3BundleSize, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if manWAN.ModeledLatency >= cnmpWAN.ModeledLatency {
		t.Fatalf("WAN latency shape: man=%v cnmp=%v", manWAN.ModeledLatency, cnmpWAN.ModeledLatency)
	}
}

func TestE4ParBeatsSeq(t *testing.T) {
	seq, err := RunE4(ShapeSeq, 4, 20, netsim.LAN, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunE4(ShapePar, 4, 20, netsim.LAN, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if par >= seq {
		t.Fatalf("par (%v) must beat seq (%v) with 4x20ms of work", par, seq)
	}
}

func TestE5AllModesComplete(t *testing.T) {
	for _, mode := range []locator.Mode{locator.ModeDirectory, locator.ModeHome, locator.ModeForward} {
		if _, err := RunE5(mode, 3, 1); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestE6ExactlyOnce(t *testing.T) {
	res, err := RunE6(4, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received != 12 || res.Dups != 0 {
		t.Fatalf("delivery: %+v", res)
	}
}

func TestE7WarmCheaperThanCold(t *testing.T) {
	rig, err := NewE7Rig(64<<10, 0, netsim.LAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := rig.Dispatch(0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := rig.Dispatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.FabricBytes >= cold.FabricBytes {
		t.Fatalf("warm (%d) must be cheaper than cold (%d)", warm.FabricBytes, cold.FabricBytes)
	}
	if cold.FabricBytes < 64<<10 {
		t.Fatalf("cold dispatch must carry the 64 KiB bundle: %d", cold.FabricBytes)
	}
}

func TestE2TourCoversAllServers(t *testing.T) {
	res, err := RunRoundTrip(3, netsim.Loopback, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(res.Tour, ",")) != 3 {
		t.Fatalf("tour = %q", res.Tour)
	}
	if res.FramesSent == 0 {
		t.Fatal("no protocol traffic recorded")
	}
}

func TestE10ShapesHold(t *testing.T) {
	cn, err := RunE10(StratCNMPTraps, 4, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	mn, err := RunE10(StratMANFilter, 4, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Identical seeded workloads.
	if cn.EventsTotal != mn.EventsTotal || cn.Significant != mn.Significant {
		t.Fatalf("workloads diverged: %+v vs %+v", cn, mn)
	}
	// No missed alerts on either path.
	if cn.AlertsGot != cn.Significant || mn.AlertsGot != mn.Significant {
		t.Fatalf("missed alerts: cnmp %d/%d, man %d/%d",
			cn.AlertsGot, cn.Significant, mn.AlertsGot, mn.Significant)
	}
	// The centralized station receives the full event stream; the MAN
	// station only the per-device reports.
	if cn.StationFrames != int64(cn.EventsTotal) {
		t.Fatalf("cnmp station frames %d != events %d", cn.StationFrames, cn.EventsTotal)
	}
	if mn.StationFrames*4 > cn.StationFrames {
		t.Fatalf("filtering shape violated: man %d frames vs cnmp %d", mn.StationFrames, cn.StationFrames)
	}
}
