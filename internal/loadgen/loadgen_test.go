package loadgen

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"
)

// checkGoroutines wraps a test body with a goroutine-leak check: every
// goroutine the run spawns (server loops, chase senders, sweep waves)
// must drain after the testbed closes. Polled because close is
// asynchronous — workers observe shutdown at their next select.
func checkGoroutines(t *testing.T, body func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	body()
	deadline := time.Now().Add(10 * time.Second)
	var after int
	for {
		runtime.GC() // finalize dropped timers before counting
		after = runtime.NumGoroutine()
		if after <= before+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if after > before+2 {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after drain\n%s", before, after, buf[:n])
	}
}

func TestPlanDeterministic(t *testing.T) {
	prof := Profiles["short"]
	a := BuildPlan(prof, 42, true)
	b := BuildPlan(prof, 42, true)
	if a.Digest() != b.Digest() {
		t.Fatalf("same seed, digests differ: %s vs %s", a.Digest(), b.Digest())
	}
	if c := BuildPlan(prof, 43, true); c.Digest() == a.Digest() {
		t.Fatalf("different seeds collided on digest %s", a.Digest())
	}
	if len(a.Tours) != prof.SeqTours+prof.ParTours {
		t.Fatalf("plan has %d tours, want %d", len(a.Tours), prof.SeqTours+prof.ParTours)
	}
	if len(a.Schedule) == 0 {
		t.Fatal("fault plan has no scripted schedule")
	}
	for _, s := range a.Schedule {
		if s.AfterCalls <= 0 {
			t.Fatalf("schedule step at call %d never fires", s.AfterCalls)
		}
	}
}

// TestShortProfileNetsim is loadgen's trajectory gate: short /
// netsim-wan / seed 1 is deterministic, so its plan and work totals are
// pinned exactly and the §6 station byte counts are held within 15 % of
// the readings they were last recorded at (the naplet side varies by a
// few bytes with the timestamps its records carry).
func TestShortProfileNetsim(t *testing.T) {
	const (
		digest      = "8ba06f744dcef2b1"
		tours       = 28
		landings    = 124
		messages    = 16
		cnmpBytes   = 22742
		napletBytes = 69603
		byteRatio   = 0.3267
		tolerance   = 0.15
	)
	checkGoroutines(t, func() {
		var out bytes.Buffer
		res, err := Run(context.Background(), Config{
			Profile: Profiles["short"],
			Fabric:  FabricNetsimWAN,
			Seed:    1,
			Out:     &out,
		})
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations: %v\n%s", res.Violations, out.String())
		}
		if res.PlanDigest != digest {
			t.Errorf("plan digest %s, want %s", res.PlanDigest, digest)
		}
		if res.ToursCompleted != tours || res.Landings != landings || res.MessagesDelivered != messages {
			t.Errorf("tours/landings/messages %d/%d/%d, want %d/%d/%d",
				res.ToursCompleted, res.Landings, res.MessagesDelivered, tours, landings, messages)
		}
		if limit := cnmpBytes * (1 + tolerance); float64(res.CNMPBytes) > limit {
			t.Errorf("cnmp station bytes %d, limit %.0f", res.CNMPBytes, limit)
		}
		if limit := napletBytes * (1 + tolerance); float64(res.NapletBytes) > limit {
			t.Errorf("naplet station bytes %d, limit %.0f", res.NapletBytes, limit)
		}
		if floor := byteRatio * (1 - tolerance); res.ByteRatio < floor {
			t.Errorf("byte ratio %.4f, floor %.4f", res.ByteRatio, floor)
		}
	})
}

func TestShortProfileTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp rig in -short mode")
	}
	checkGoroutines(t, func() {
		var out bytes.Buffer
		res, err := Run(context.Background(), Config{
			Profile: Profiles["short"],
			Fabric:  FabricTCP,
			Seed:    1,
			Out:     &out,
		})
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations: %v\n%s", res.Violations, out.String())
		}
		// TCP has no netsim byte accounting; work totals must still hold.
		prof := Profiles["short"]
		if res.ToursCompleted != prof.SeqTours+prof.ParTours {
			t.Fatalf("tours %d, want %d", res.ToursCompleted, prof.SeqTours+prof.ParTours)
		}
	})
}

// TestSeededFaultReplay is the chaos-style determinism contract: the same
// seed must build the same fault schedule (byte-identical plan digest),
// and the run must reconcile exactly-once delivery through the injected
// crash, partition, drop and duplicate faults.
func TestSeededFaultReplay(t *testing.T) {
	run := func() (*Result, string) {
		var out bytes.Buffer
		res, err := Run(context.Background(), Config{
			Profile: Profiles["short"],
			Fabric:  FabricNetsimLAN,
			Seed:    7,
			Faults:  true,
			Out:     &out,
		})
		if err != nil {
			t.Fatalf("fault run: %v\n%s", err, out.String())
		}
		if len(res.Violations) != 0 {
			t.Fatalf("fault run violations: %v\n%s", res.Violations, out.String())
		}
		return res, out.String()
	}
	checkGoroutines(t, func() {
		a, _ := run()
		b, _ := run()
		if a.PlanDigest != b.PlanDigest {
			t.Fatalf("replay digest drifted: %s vs %s", a.PlanDigest, b.PlanDigest)
		}
		// Work totals are part of the exactly-once contract and must
		// replay exactly even though fault timing interleaves differently.
		if a.ToursCompleted != b.ToursCompleted || a.Landings != b.Landings || a.MessagesDelivered != b.MessagesDelivered {
			t.Errorf("replay tours/landings/messages drifted: %d/%d/%d vs %d/%d/%d",
				a.ToursCompleted, a.Landings, a.MessagesDelivered, b.ToursCompleted, b.Landings, b.MessagesDelivered)
		}
	})
}

func TestFaultsRejectedOnTCP(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Profile: Profiles["short"],
		Fabric:  FabricTCP,
		Faults:  true,
	})
	if err == nil {
		t.Fatal("faults on TCP should be rejected")
	}
}
