// Command telemetrybench benchmarks the telemetry hot paths and writes
// BENCH_telemetry.json in the same schema as BENCH_wire.json (see
// cmd/wirebench), so successive PRs can watch the instrumentation
// overhead trajectory.
//
// Beyond recording samples it enforces the subsystem's cost contract:
//
//   - a counter increment stays ≤ 25 ns/op with 0 allocs/op, and a
//     histogram observation allocates nothing;
//   - the instrumented TCP frame round trip stays within 5% of the
//     uninstrumented fabric/tcp-roundtrip median recorded in
//     BENCH_wire.json (pass -baseline "" to skip the comparison).
//
// Violations exit non-zero so `make bench-telemetry` fails loudly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

type sample struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type result struct {
	Name    string   `json:"name"`
	Samples []sample `json:"samples"`
	Median  sample   `json:"median"`
}

type report struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	Count       int      `json:"count"`
	Results     []result `json:"results"`
}

// Cost-contract limits.
const (
	maxCounterNsPerOp    = 25.0
	maxRoundTripOverhead = 0.05 // vs the BENCH_wire.json baseline
)

func main() {
	count := flag.Int("count", 5, "samples per benchmark")
	out := flag.String("o", "BENCH_telemetry.json", "output JSON path")
	baseline := flag.String("baseline", "BENCH_wire.json", "wire benchmark baseline to compare the instrumented round trip against (empty = skip)")
	flag.Parse()

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"telemetry/counter-inc", benchCounterInc},
		{"telemetry/histogram-observe", benchHistogramObserve},
		{"telemetry/hop-record", benchHopRecord},
		{"telemetry/scrape", benchScrape},
		{"fabric/tcp-roundtrip-instrumented", benchTCPRoundTripInstrumented},
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Count:       *count,
	}
	medians := make(map[string]sample)
	for _, bm := range benches {
		res := result{Name: bm.name}
		for i := 0; i < *count; i++ {
			r := testing.Benchmark(bm.fn)
			res.Samples = append(res.Samples, sample{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
		}
		res.Median = median(res.Samples)
		medians[bm.name] = res.Median
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-36s %12.1f ns/op %8d B/op %6d allocs/op  (median of %d)\n",
			bm.name, res.Median.NsPerOp, res.Median.BytesPerOp, res.Median.AllocsPerOp, *count)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	ok := true
	if m := medians["telemetry/counter-inc"]; m.NsPerOp > maxCounterNsPerOp || m.AllocsPerOp != 0 {
		fmt.Fprintf(os.Stderr, "telemetrybench: counter increment %.1f ns/op, %d allocs/op exceeds contract (≤%.0f ns/op, 0 allocs)\n",
			m.NsPerOp, m.AllocsPerOp, maxCounterNsPerOp)
		ok = false
	}
	if m := medians["telemetry/histogram-observe"]; m.AllocsPerOp != 0 {
		fmt.Fprintf(os.Stderr, "telemetrybench: histogram observe allocates (%d allocs/op); hot path must be alloc-free\n", m.AllocsPerOp)
		ok = false
	}
	if *baseline != "" {
		if err := checkRoundTrip(*baseline, medians["fabric/tcp-roundtrip-instrumented"]); err != nil {
			fmt.Fprintln(os.Stderr, "telemetrybench:", err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// checkRoundTrip compares the instrumented round trip against the
// uninstrumented fabric/tcp-roundtrip median from the wire baseline.
func checkRoundTrip(path string, instrumented sample) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	for _, r := range base.Results {
		if r.Name != "fabric/tcp-roundtrip" {
			continue
		}
		limit := r.Median.NsPerOp * (1 + maxRoundTripOverhead)
		fmt.Printf("round-trip overhead: %.1f ns/op instrumented vs %.1f baseline (limit %.1f)\n",
			instrumented.NsPerOp, r.Median.NsPerOp, limit)
		if instrumented.NsPerOp > limit {
			return fmt.Errorf("instrumented round trip %.1f ns/op exceeds %.0f%% over baseline %.1f ns/op",
				instrumented.NsPerOp, 100*maxRoundTripOverhead, r.Median.NsPerOp)
		}
		return nil
	}
	return fmt.Errorf("baseline %s has no fabric/tcp-roundtrip result", path)
}

func median(s []sample) sample {
	sorted := append([]sample(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NsPerOp < sorted[j].NsPerOp })
	return sorted[len(sorted)/2]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "telemetrybench:", err)
	os.Exit(1)
}

func benchCounterInc(b *testing.B) {
	c := telemetry.NewRegistry().Counter("bench_counter_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func benchHistogramObserve(b *testing.B) {
	h := telemetry.NewRegistry().Histogram("bench_hist_seconds", "bench", telemetry.LatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func benchHopRecord(b *testing.B) {
	tr := telemetry.NewHopTracer(1024)
	span := telemetry.HopSpan{
		Naplet:  "bench@host:000000000000",
		From:    "a",
		To:      "b",
		Total:   3 * time.Millisecond,
		Outcome: telemetry.OutcomeOK,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span.Hop = i
		tr.Record(span)
	}
}

// benchScrape renders a registry with a realistic series population, the
// cost a /metrics poll puts on the daemon.
func benchScrape(b *testing.B) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 30; i++ {
		reg.Counter(fmt.Sprintf("bench_scrape_c%d_total", i), "bench").Add(int64(i))
	}
	for i := 0; i < 5; i++ {
		h := reg.Histogram(fmt.Sprintf("bench_scrape_h%d_seconds", i), "bench", telemetry.LatencyBuckets)
		for j := 0; j < 100; j++ {
			h.Observe(float64(j) * 1e-5)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// benchTCPRoundTripInstrumented mirrors wirebench's fabric/tcp-roundtrip
// with the fabric instrumented, so the two medians isolate the metering
// overhead on the frame path.
func benchTCPRoundTripInstrumented(b *testing.B) {
	fabric := transport.NewTCPFabric()
	fabric.Instrument(telemetry.NewRegistry())
	srv, err := fabric.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From, Payload: []byte{1}}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := fabric.Attach("127.0.0.1:0", func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	req := wire.Frame{Kind: wire.KindPost, Payload: []byte{7}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(ctx, srv.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
}
