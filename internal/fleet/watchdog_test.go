package fleet

import (
	"math"
	"testing"
	"time"
)

func TestRateEstimatorConvergesToSteadyRate(t *testing.T) {
	// 1000 bytes every 10ms against a 5s half-life must converge to
	// ~100 KB/s.
	e := NewRateEstimator(5 * time.Second)
	now := time.Unix(0, 0)
	for i := 0; i < 5000; i++ {
		now = now.Add(10 * time.Millisecond)
		e.Observe(1000, now)
	}
	got := e.Rate(now)
	want := 100_000.0
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("rate = %.0f B/s, want ~%.0f", got, want)
	}
}

func TestRateEstimatorDecays(t *testing.T) {
	e := NewRateEstimator(time.Second)
	now := time.Unix(0, 0)
	e.Observe(1<<20, now)
	r0 := e.Rate(now)
	// One half-life later the rate has halved; ten later it is gone.
	r1 := e.Rate(now.Add(time.Second))
	if math.Abs(r1-r0/2)/r0 > 0.01 {
		t.Fatalf("after one half-life: %.1f, want ~%.1f", r1, r0/2)
	}
	if r10 := e.Rate(now.Add(10 * time.Second)); r10 > r0/500 {
		t.Fatalf("after ten half-lives: %.1f, want ~0", r10)
	}
}

func TestWatchdogDiskWatermarkLatch(t *testing.T) {
	now := time.Unix(0, 0)
	w := NewWatchdog(WatchdogConfig{
		DiskWatermarkBytes: 1000,
		Clock:              func() time.Time { return now },
	})
	w.ObserveDisk("d1", 500)
	if w.Over("d1") {
		t.Fatal("under watermark but over")
	}
	w.ObserveDisk("d1", 1000)
	if !w.Over("d1") {
		t.Fatal("at watermark but not latched")
	}
	// Hysteresis: dipping just below the watermark is not enough.
	w.ObserveDisk("d1", 900)
	if !w.Over("d1") {
		t.Fatal("unlatched inside the hysteresis band")
	}
	// Below watermark*0.85 the latch releases.
	w.ObserveDisk("d1", 840)
	if w.Over("d1") {
		t.Fatal("still latched below the resume threshold")
	}
}

func TestWatchdogIngestWatermarkUnlatchesByDecay(t *testing.T) {
	now := time.Unix(0, 0)
	w := NewWatchdog(WatchdogConfig{
		IngestWatermarkBps: 1000,
		Clock:              func() time.Time { return now },
	})
	// A burst pushes the estimated rate over 1000 B/s.
	w.ObserveIngest("d1", 100_000)
	if !w.Over("d1") {
		t.Fatalf("rate %.0f B/s did not trip the watermark", w.Rate("d1"))
	}
	// With no further traffic the rate decays (5 s half-life); Over
	// re-evaluates and the latch releases on its own.
	now = now.Add(60 * time.Second)
	if w.Over("d1") {
		t.Fatalf("still latched at %.2f B/s", w.Rate("d1"))
	}
}

func TestWatchdogAlarmsCount(t *testing.T) {
	now := time.Unix(0, 0)
	w := NewWatchdog(WatchdogConfig{
		DiskWatermarkBytes: 10,
		Clock:              func() time.Time { return now },
	})
	w.ObserveDisk("d1", 20)
	w.ObserveDisk("d1", 30) // already latched: no second alarm
	w.ObserveDisk("d2", 20)
	if n := w.overCount(); n != 2 {
		t.Fatalf("over count = %d, want 2", n)
	}
}

func TestWatchdogZeroConfigNeverTrips(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{})
	w.ObserveDisk("d1", math.MaxUint64)
	w.ObserveIngest("d1", 1<<30)
	if w.Over("d1") {
		t.Fatal("disabled watermarks tripped")
	}
}
