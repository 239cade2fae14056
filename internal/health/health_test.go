package health

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time               { return c.now }
func (c *fakeClock) Advance(d time.Duration)      { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock                    { return &fakeClock{now: time.Unix(1000, 0)} }
func detector(c *fakeClock, cfg Config) *Detector { cfg.Clock = c.Now; return New(cfg) }

func TestEscalation(t *testing.T) {
	clk := newFakeClock()
	d := detector(clk, Config{SuspectThreshold: 2, DeadThreshold: 4})

	if got := d.State("peer"); got != StateAlive {
		t.Fatalf("unknown peer state = %v, want alive", got)
	}
	d.ReportFailure("peer")
	if got := d.State("peer"); got != StateAlive {
		t.Fatalf("after 1 miss state = %v, want alive", got)
	}
	d.ReportFailure("peer")
	if got := d.State("peer"); got != StateSuspect {
		t.Fatalf("after 2 misses state = %v, want suspect", got)
	}
	d.ReportFailure("peer")
	d.ReportFailure("peer")
	if !d.Dead("peer") {
		t.Fatalf("after 4 misses peer should be dead, state = %v", d.State("peer"))
	}

	// A single success resurrects the peer and resets the miss counter.
	d.ReportSuccess("peer")
	if got := d.State("peer"); got != StateAlive {
		t.Fatalf("after success state = %v, want alive", got)
	}
	d.ReportFailure("peer")
	if got := d.State("peer"); got != StateAlive {
		t.Fatalf("miss counter not reset: state = %v", got)
	}
}

func TestProbeGate(t *testing.T) {
	clk := newFakeClock()
	d := detector(clk, Config{SuspectThreshold: 1, DeadThreshold: 2, ProbeInterval: time.Second})
	d.ReportFailure("peer")
	d.ReportFailure("peer")
	if !d.Dead("peer") {
		t.Fatal("peer should be dead")
	}

	// First caller in the interval gets the probe slot; the rest fail fast.
	if !d.Allow("peer") {
		t.Fatal("first probe should be allowed")
	}
	if d.Allow("peer") {
		t.Fatal("second probe within the interval should be denied")
	}
	clk.Advance(time.Second)
	if !d.Allow("peer") {
		t.Fatal("probe should be allowed again after ProbeInterval")
	}

	// Live peers are never gated.
	if !d.Allow("other") {
		t.Fatal("unknown peer should always be allowed")
	}
}

func TestTrailAndTelemetry(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	d := detector(clk, Config{SuspectThreshold: 1, DeadThreshold: 2, Telemetry: reg, TrailCap: 8})

	d.ReportFailure("a")
	d.ReportFailure("a")
	d.ReportSuccess("a")

	trail := d.Trail()
	if len(trail) != 3 {
		t.Fatalf("trail length = %d, want 3 (suspect, dead, alive)", len(trail))
	}
	want := []State{StateSuspect, StateDead, StateAlive}
	for i, tr := range trail {
		if tr.Peer != "a" || tr.To != want[i] {
			t.Fatalf("trail[%d] = %+v, want transition to %v", i, tr, want[i])
		}
	}
	if got := d.State("a"); got != StateAlive {
		t.Fatalf("state = %v, want alive", got)
	}
}

func TestTrailBounded(t *testing.T) {
	clk := newFakeClock()
	d := detector(clk, Config{SuspectThreshold: 1, DeadThreshold: 1, TrailCap: 4})
	for i := 0; i < 20; i++ {
		d.ReportFailure("p")
		d.ReportSuccess("p")
	}
	if got := len(d.Trail()); got != 4 {
		t.Fatalf("trail length = %d, want cap 4", got)
	}
}

func TestNilDetectorSafe(t *testing.T) {
	var d *Detector
	d.ReportSuccess("x")
	d.ReportFailure("x")
	if d.Dead("x") || d.State("x") != StateAlive || !d.Allow("x") {
		t.Fatal("nil detector should behave as all-alive")
	}
	if d.Trail() != nil {
		t.Fatal("nil detector trail should be nil")
	}
}
