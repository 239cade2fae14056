package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("naplet_test_events_total", "events")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("naplet_test_residents", "residents")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("naplet_test_total", "")
	b := r.Counter("naplet_test_total", "")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	// Distinct label sets are distinct series.
	l1 := r.Counter("naplet_test_labeled_total", "", "kind", "a")
	l2 := r.Counter("naplet_test_labeled_total", "", "kind", "b")
	if l1 == l2 {
		t.Fatal("distinct labels must return distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different type must panic")
		}
	}()
	r.Gauge("naplet_test_total", "")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("naplet_test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	wantCum := []uint64{1, 2, 3, 4}
	for i, want := range wantCum {
		if snap.Cumulative[i] != want {
			t.Fatalf("cumulative[%d] = %d, want %d (%+v)", i, snap.Cumulative[i], want, snap)
		}
	}
	if snap.Count != 4 {
		t.Fatalf("count = %d, want 4", snap.Count)
	}
	if math.Abs(snap.Sum-5.555) > 1e-9 {
		t.Fatalf("sum = %g, want 5.555", snap.Sum)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Sum(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("sum = %g, want 0.25", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("naplet_test_posted_total", "messages posted").Add(7)
	r.Gauge("naplet_test_residents", "resident naplets").Set(2)
	r.GaugeFunc("naplet_test_uptime_seconds", "uptime", func() float64 { return 1.5 })
	r.CounterFunc("naplet_test_pool_gets_total", "pool gets", func() float64 { return 9 })
	h := r.Histogram("naplet_test_rtt_seconds", "round trips", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	r.Counter("naplet_test_calls_total", "calls by kind", "kind", "messenger.post").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE naplet_test_posted_total counter",
		"naplet_test_posted_total 7",
		"# TYPE naplet_test_residents gauge",
		"naplet_test_residents 2",
		"naplet_test_uptime_seconds 1.5",
		"# TYPE naplet_test_pool_gets_total counter",
		"naplet_test_pool_gets_total 9",
		"# TYPE naplet_test_rtt_seconds histogram",
		`naplet_test_rtt_seconds_bucket{le="0.1"} 1`,
		`naplet_test_rtt_seconds_bucket{le="1"} 2`,
		`naplet_test_rtt_seconds_bucket{le="+Inf"} 2`,
		"naplet_test_rtt_seconds_sum 0.55",
		"naplet_test_rtt_seconds_count 2",
		`naplet_test_calls_total{kind="messenger.post"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE must precede the family's samples exactly once.
	if strings.Count(out, "# TYPE naplet_test_rtt_seconds histogram") != 1 {
		t.Fatalf("duplicate TYPE header:\n%s", out)
	}
}

func TestConcurrentHotPaths(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("naplet_test_conc_total", "")
	h := r.Histogram("naplet_test_conc_seconds", "", LatencyBuckets)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-workers*per*0.001) > 1e-6 {
		t.Fatalf("histogram sum = %g", h.Sum())
	}
}

// TestHotPathsAllocateNothing is the package's cost contract: what runs on
// every frame, call and hop — a counter increment, a histogram observation,
// a hop span record — takes nothing from the heap.
func TestHotPathsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector say nothing about the code")
	}
	r := NewRegistry()
	c := r.Counter("naplet_test_events_total", "")
	h := r.Histogram("naplet_test_seconds", "", LatencyBuckets)
	tr := NewHopTracer(1024)
	span := HopSpan{Naplet: "czxu:home:20260805120000", Hop: 1, From: "a", To: "b", Outcome: OutcomeOK}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", c.Inc},
		{"Histogram.Observe", func() { h.Observe(0.0042) }},
		{"HopTracer.Record", func() { tr.Record(span) }},
	} {
		if n := testing.AllocsPerRun(200, tc.f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, n)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("naplet_bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("naplet_bench_seconds", "", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkHopRecord(b *testing.B) {
	tr := NewHopTracer(1024)
	span := HopSpan{Naplet: "czxu:home:20260805120000", Hop: 1, From: "a", To: "b", Outcome: OutcomeOK}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(span)
	}
}

// BenchmarkScrape renders a registry with a realistic series population:
// the cost a /metrics poll puts on the daemon.
func BenchmarkScrape(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 30; i++ {
		reg.Counter(fmt.Sprintf("naplet_bench_c%d_total", i), "bench").Add(int64(i))
	}
	for i := 0; i < 5; i++ {
		h := reg.Histogram(fmt.Sprintf("naplet_bench_h%d_seconds", i), "bench", LatencyBuckets)
		for j := 0; j < 100; j++ {
			h.Observe(float64(j) * 1e-5)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
