package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestHistogramQuantileConcurrent hammers one histogram from many
// goroutines while others read quantiles from snapshots. A mid-flight
// snapshot may miss in-flight samples, but it must never read a value
// outside the observed buckets; once the writers finish, the cumulative
// buckets must account for every observation. Run under -race this also
// proves the observe/snapshot paths are data-race free.
func TestHistogramQuantileConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	const (
		goroutines = 8
		perG       = 4096
	)

	var readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := h.Snapshot().Quantile(0.99); math.IsNaN(v) || v < 0 || v > 10 {
					t.Errorf("mid-flight p99 = %v, want within [0, 10]", v)
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(v float64) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				h.Observe(v)
			}
		}(float64(g + 1)) // 1..8 s: buckets (0.5, 1] through (5, 10]
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	snap := h.Snapshot()
	if got, want := snap.Cumulative[len(snap.Cumulative)-1], uint64(goroutines*perG); got != want || snap.Count != want {
		t.Fatalf("cumulative total = %d, count = %d, want %d", got, snap.Count, want)
	}
	if lo, hi := snap.Quantile(0), snap.Quantile(1); lo != 0.5 || hi != 10 {
		t.Fatalf("min/max = %v/%v, want the outer bounds 0.5/10 of the observed buckets", lo, hi)
	}
}

// TestQuantileErrorBound holds the bucket estimator to its contract on
// large skewed and multimodal samples: at each gated quantile the estimate
// lies in the LatencyBuckets bucket that holds the exact order statistic
// over all samples. That bucket is the whole error an SLO verdict carries.
func TestQuantileErrorBound(t *testing.T) {
	const n = 20000
	for seed, d := range []struct {
		name string
		draw func(r *rand.Rand) float64
	}{
		{"uniform 0.1-50ms", func(r *rand.Rand) float64 { return 1e-4 + r.Float64()*0.05 }},
		{"exponential 5ms", func(r *rand.Rand) float64 { return r.ExpFloat64() * 5e-3 }},
		// Skewed: median 2 ms, a tail two orders of magnitude out.
		{"lognormal 2ms", func(r *rand.Rand) float64 { return 2e-3 * math.Exp(r.NormFloat64()) }},
		// Bimodal: 90 % local calls near 200 µs, 10 % WAN hops near 40 ms.
		{"bimodal 200us/40ms", func(r *rand.Rand) float64 {
			if r.Float64() < 0.9 {
				return math.Abs(2e-4 + 3e-5*r.NormFloat64())
			}
			return math.Abs(4e-2 + 8e-3*r.NormFloat64())
		}},
	} {
		r := rand.New(rand.NewSource(int64(seed + 1)))
		h := newHistogram(LatencyBuckets)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = d.draw(r)
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		snap := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := stats.Quantile(samples, q)
			i := sort.SearchFloat64s(LatencyBuckets, exact) // first bound ≥ exact
			lo, hi := 0.0, LatencyBuckets[i]
			if i > 0 {
				lo = LatencyBuckets[i-1]
			}
			if est := snap.Quantile(q); est < lo || est > hi {
				t.Errorf("%s p%g: estimate %v outside the bucket [%v, %v] of the exact %v",
					d.name, q*100, est, lo, hi, exact)
			}
		}
	}
}

// TestQuantileEdges pins the reads that are not interpolations: an empty
// histogram, the extreme quantiles, and a quantile in the overflow bucket,
// which must fail any finite bound.
func TestQuantileEdges(t *testing.T) {
	if v := newHistogram(LatencyBuckets).Snapshot().Quantile(0.99); v != 0 {
		t.Fatalf("empty p99 = %v, want 0", v)
	}
	h := newHistogram(LatencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.003) // bucket (2.5ms, 5ms]
	}
	snap := h.Snapshot()
	if lo, mid, hi := snap.Quantile(0), snap.Quantile(0.5), snap.Quantile(1); lo != 2.5e-3 || math.Abs(mid-3.75e-3) > 1e-12 || hi != 5e-3 {
		t.Fatalf("p0/p50/p100 = %v/%v/%v, want 2.5ms/3.75ms/5ms", lo, mid, hi)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.007) // bucket (5ms, 10ms]
	}
	// Rank 150 is the 50th of the 100 in (5ms, 10ms]: halfway through it.
	if v := h.Snapshot().Quantile(0.75); math.Abs(v-7.5e-3) > 1e-12 {
		t.Fatalf("p75 = %v, want 7.5ms", v)
	}
	for i := 0; i < 5; i++ {
		h.Observe(20) // past the last bound (10 s)
	}
	snap = h.Snapshot()
	if v := snap.Quantile(0.99); !math.IsInf(v, 1) {
		t.Fatalf("overflow p99 = %v, want +Inf", v)
	}
	if v := snap.Quantile(0.5); v > 10e-3 {
		t.Fatalf("p50 = %v, want it in its bucket, unmoved by the overflow tail", v)
	}
	res := CheckSLO(h, SLO{Name: "overflow", Quantile: 0.99, Max: 10})
	if !res.Violated {
		t.Fatalf("an overflow-bucket quantile passed a finite bound: %+v", res)
	}
	if got := res.String(); got != "overflow: p99 +Inf over 205 obs, max 10s — VIOLATED" {
		t.Fatalf("String() = %q", got)
	}
}

func TestCheckSLO(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("naplet_test_latency_seconds", "", LatencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.010) // 10ms flat
	}
	for i := 0; i < 5; i++ {
		h.Observe(0.500) // outlier tail: past the p99 of 105 samples
	}
	// A slow start followed by a long fast run: the p99 over the whole run
	// is in the slow start. A gate that reads only recent observations
	// would see 2 ms here and pass.
	early := reg.Histogram("naplet_test_early_tail_seconds", "", LatencyBuckets)
	for i := 0; i < 1000; i++ {
		early.Observe(0.300)
	}
	for i := 0; i < 10000; i++ {
		early.Observe(0.002)
	}

	all, violated := reg.CheckSLOs([]SLO{
		{Name: "p50-ok", Series: "naplet_test_latency_seconds", Quantile: 0.50, Max: 0.020},
		{Name: "p99-violated", Series: "naplet_test_latency_seconds", Quantile: 0.99, Max: 0.020},
		{Name: "missing-series", Series: "naplet_test_nosuch_seconds", Quantile: 0.99, Max: 1},
		{Name: "early-tail-p99", Series: "naplet_test_early_tail_seconds", Quantile: 0.99, Max: 0.100},
	})
	if len(all) != 4 {
		t.Fatalf("got %d results", len(all))
	}
	if all[0].Violated || all[0].Skipped {
		t.Fatalf("p50 objective should pass: %+v", all[0])
	}
	if !all[1].Violated {
		t.Fatalf("p99 objective should be violated: %+v", all[1])
	}
	if !all[2].Skipped {
		t.Fatalf("missing series should be skipped, not judged: %+v", all[2])
	}
	if !all[3].Violated || all[3].Count != 11000 {
		t.Fatalf("a slow first 1 000 of 11 000 observations must violate a 100ms p99: %+v", all[3])
	}
	if len(violated) != 2 || violated[0].Name != "p99-violated" || violated[1].Name != "early-tail-p99" {
		t.Fatalf("violated = %+v", violated)
	}
}
