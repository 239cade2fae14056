package experiments

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/server"
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
	if _, ok := Lookup("e4"); !ok {
		t.Fatal("e4 must exist")
	}
	if _, ok := Lookup("e3"); ok {
		t.Fatal("e3 must not exist")
	}
	if len(All()) != 5 {
		t.Fatalf("experiment count = %d", len(All()))
	}
}

func TestE4ParBeatsSeq(t *testing.T) {
	seq, err := RunE4(ShapeSeq, 4, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunE4(ShapePar, 4, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if par >= seq {
		t.Fatalf("par (%v) must beat seq (%v) with 4x20ms of work", par, seq)
	}
}

func TestE5AllModesComplete(t *testing.T) {
	for _, mode := range []locator.Mode{locator.ModeDirectory, locator.ModeHome, locator.ModeForward} {
		if _, err := RunE5(mode, 3, 0, 1); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

// TestE7WarmCheaperThanCold launches the same 64 KiB codebase from home to
// one stop twice: the first (cold) trip carries the bundle, the second finds
// it cached at the stop and puts fewer bytes on the fabric.
func TestE7WarmCheaperThanCold(t *testing.T) {
	const bundle = 64 << 10
	net := netsim.New(netsim.Config{DefaultLink: netsim.LAN, Seed: 1})
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name:       "exp.Mig",
		New:        func() naplet.Behavior { return workerAgent{} },
		BundleSize: bundle,
	})
	docks, stops, err := fleet(net, server.Config{Registry: reg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(docks)

	trip := func() int64 {
		t.Helper()
		reports := make(chan struct{}, 1)
		before := net.TotalStats().BytesSent
		if _, err := docks[0].Launch(context.Background(), server.LaunchOptions{
			Owner:    "czxu",
			Codebase: "exp.Mig",
			Pattern:  itinerary.SeqVisits(stops, ""),
			Listener: func(manager.Result) { reports <- struct{}{} },
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-reports:
		case <-time.After(10 * time.Second):
			t.Fatal("naplet never reported")
		}
		return net.TotalStats().BytesSent - before
	}
	cold := trip()
	warm := trip()
	if warm >= cold {
		t.Fatalf("warm (%d) must be cheaper than cold (%d)", warm, cold)
	}
	if cold < bundle {
		t.Fatalf("cold dispatch must carry the 64 KiB bundle: %d", cold)
	}
}
