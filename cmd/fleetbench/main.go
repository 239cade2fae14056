// Command fleetbench benchmarks the fleet control plane at
// hundreds-of-docks scale, in-process:
//
//   - codec: the fleet protocol's binary bodies on the heartbeat and
//     event-export hot paths (encode, decode, round-trip).
//   - broadcast: Publish fan-out with 64 live subscribers (the
//     O(subscribers) cost every ingested event pays), plus a concurrent
//     publish/poll throughput sample.
//   - watchdog: the decaying ingest-rate estimator.
//   - wave: scheduler throughput driving a launch wave across 200
//     simulated nodes with an in-memory launcher — the control-plane
//     overhead per launch with the dock round-trips taken out.
//
// Results land in BENCH_fleet.json via `make bench-fleet`. With -check
// <file>, the deterministic codec/broadcast/watchdog benchmarks re-run
// against the committed baseline: a >10% regression in allocs/op fails
// the run (ns/op is reported but not gated).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchcheck"
	"repro/internal/fleet"
	"repro/internal/wire"
)

// report extends the shared envelope with the workload shape.
type report struct {
	benchcheck.Report
	Nodes       int `json:"nodes"`
	Subscribers int `json:"subscribers"`
}

func main() {
	count := flag.Int("count", 5, "samples per benchmark")
	nodes := flag.Int("nodes", 200, "simulated docks in the wave benchmark")
	launches := flag.Int("launches", 4000, "launches per wave sample")
	subs := flag.Int("subs", 64, "live subscribers in the broadcast benchmarks")
	out := flag.String("o", "BENCH_fleet.json", "output JSON path")
	check := flag.String("check", "", "baseline JSON to regression-check against (deterministic benches only)")
	flag.Parse()

	benches := []benchcheck.Bench{
		{Name: "codec/heartbeat-roundtrip", Fn: benchHeartbeatRoundTrip, Deterministic: true},
		{Name: "codec/event-batch-encode", Fn: benchEventBatchEncode, Deterministic: true},
		{Name: "codec/event-batch-decode", Fn: benchEventBatchDecode, Deterministic: true},
		{Name: fmt.Sprintf("broadcast/publish-%dsubs", *subs), Fn: benchPublish(*subs), Deterministic: true},
		{Name: "watchdog/rate-observe", Fn: benchRateObserve, Deterministic: true},
	}
	if *check != "" {
		if err := benchcheck.Check("fleetbench", *check, benches, *count); err != nil {
			fatal(err)
		}
		fmt.Println("fleetbench: regression check passed")
		return
	}

	rep := report{
		Report:      benchcheck.NewReport(*count),
		Nodes:       *nodes,
		Subscribers: *subs,
	}
	for _, bm := range benches {
		res := benchcheck.Run(bm, *count)
		rep.Results = append(rep.Results, res)
		printRow(res)
	}

	for _, res := range []benchcheck.Result{
		waveThroughput(*nodes, *launches, *count),
		broadcastThroughput(*subs, *count),
	} {
		rep.Results = append(rep.Results, res)
		printRow(res)
	}

	if err := benchcheck.WriteFile(*out, &rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func printRow(res benchcheck.Result) {
	if res.Median.OpsPerSec > 0 {
		fmt.Printf("%-36s %12.0f ops/s %6d allocs/op\n",
			res.Name, res.Median.OpsPerSec, res.Median.AllocsPerOp)
		return
	}
	fmt.Printf("%-36s %12.1f ns/op %8d B/op %6d allocs/op\n",
		res.Name, res.Median.NsPerOp, res.Median.BytesPerOp, res.Median.AllocsPerOp)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetbench:", err)
	os.Exit(1)
}

// benchTime is fixed so encoded bodies are identical across runs.
var benchTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// ---- Deterministic codec, broadcast, and watchdog benchmarks ----

func benchEvent(i int) fleet.Event {
	return fleet.Event{
		Node:    "dock7:7001",
		Kind:    fleet.EventSpan,
		Naplet:  "czxu:sa:12345",
		Hop:     i,
		From:    "dock7:7001",
		To:      "dock8:7001",
		At:      benchTime.Add(time.Duration(i) * time.Millisecond),
		Outcome: "ok",
		Bytes:   2048,
		Elapsed: 3 * time.Millisecond,
	}
}

func benchBatch() fleet.EventBatchBody {
	b := fleet.EventBatchBody{Node: "dock7:7001"}
	for i := 0; i < 16; i++ {
		b.Events = append(b.Events, benchEvent(i))
	}
	return b
}

func benchHeartbeatRoundTrip(b *testing.B) {
	hb := fleet.HeartbeatBody{
		Node: "dock7:7001", Seq: 42, Residents: 17,
		DiskUsedBytes: 1 << 30, Draining: false,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := wire.EncodeBody(&hb)
		var dec fleet.HeartbeatBody
		if err := dec.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEventBatchEncode(b *testing.B) {
	batch := benchBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.EncodeBody(&batch)
	}
}

func benchEventBatchDecode(b *testing.B) {
	batch := benchBatch()
	buf := wire.EncodeBody(&batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dec fleet.EventBatchBody
		if err := dec.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPublish measures one Publish against n live DownSample
// subscribers — the per-event fan-out cost on the ingest path. Rings
// overwrite in place, so the steady state allocates nothing.
func benchPublish(n int) func(b *testing.B) {
	return func(b *testing.B) {
		bc := fleet.NewBroadcaster(fleet.BroadcasterConfig{Buf: 1024})
		for i := 0; i < n; i++ {
			bc.Subscribe(1024, fleet.DownSample)
		}
		ev := benchEvent(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bc.Publish(ev)
		}
	}
}

func benchRateObserve(b *testing.B) {
	est := fleet.NewRateEstimator(5 * time.Second)
	now := benchTime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Millisecond)
		est.Observe(512, now)
		est.Rate(now)
	}
}

// ---- Throughput samples (not -check gated) ----

// benchLauncher is an instant in-memory Launcher + NodeSource: every
// wait completes immediately, so the measured rate is the scheduler's
// own dispatch/bookkeeping overhead per launch.
type benchLauncher struct {
	nodes  []string
	nextID atomic.Uint64
}

func (l *benchLauncher) Schedulable() []string { return l.nodes }
func (l *benchLauncher) Dead(string) bool      { return false }

func (l *benchLauncher) Launch(context.Context, string, fleet.LaunchSpec) (string, error) {
	return fmt.Sprintf("n%d", l.nextID.Add(1)), nil
}

func (l *benchLauncher) Wait(context.Context, string, string) (string, string, error) {
	return "completed", "ok", nil
}

// waveThroughput measures scheduler launches/second across a simulated
// fleet of nodes docks.
func waveThroughput(nodes, launches, count int) benchcheck.Result {
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("dock%d:7001", i)
	}
	res := benchcheck.Result{Name: fmt.Sprintf("wave/%dnodes-launches", nodes)}
	for s := 0; s < count; s++ {
		l := &benchLauncher{nodes: names}
		sched, err := fleet.NewScheduler(fleet.SchedulerConfig{
			Nodes: l, Launcher: l, PollEvery: 50 * time.Microsecond,
		})
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		wr, err := sched.Run(context.Background(), fleet.WaveSpec{
			Name:       "bench",
			Count:      launches,
			Routes:     []string{"seq(a,b)"},
			Codebase:   "bench.Noop",
			PerNodeCap: 4,
		})
		if err != nil {
			fatal(err)
		}
		if wr.Completed != launches {
			fatal(fmt.Errorf("wave completed %d/%d", wr.Completed, launches))
		}
		elapsed := time.Since(start)
		res.Samples = append(res.Samples, benchcheck.Sample{
			OpsPerSec: float64(launches) / elapsed.Seconds(),
			NsPerOp:   float64(elapsed.Nanoseconds()) / float64(launches),
		})
	}
	res.Median = benchcheck.Median(res.Samples, func(s benchcheck.Sample) float64 { return -s.OpsPerSec })
	return res
}

// broadcastThroughput measures sustained publish rate with subs
// subscribers being drained concurrently by pollers — the whole
// fan-out/consume loop, not just the publish hot path.
func broadcastThroughput(subs, count int) benchcheck.Result {
	const events = 200_000
	res := benchcheck.Result{Name: fmt.Sprintf("broadcast/publish-poll-%dsubs", subs)}
	for s := 0; s < count; s++ {
		bc := fleet.NewBroadcaster(fleet.BroadcasterConfig{Buf: 1024})
		ids := make([]string, subs)
		for i := range ids {
			ids[i] = bc.Subscribe(1024, fleet.DownSample)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				for !stop.Load() {
					evs, _, err := bc.Poll(id, 512)
					if err != nil {
						return
					}
					// Back off when drained: a spinning poller would only
					// measure mutex contention, not fan-out capacity.
					if len(evs) == 0 {
						time.Sleep(100 * time.Microsecond)
					}
				}
			}(id)
		}
		ev := benchEvent(0)
		start := time.Now()
		for i := 0; i < events; i++ {
			bc.Publish(ev)
		}
		elapsed := time.Since(start)
		stop.Store(true)
		wg.Wait()
		res.Samples = append(res.Samples, benchcheck.Sample{
			OpsPerSec: float64(events) / elapsed.Seconds(),
			NsPerOp:   float64(elapsed.Nanoseconds()) / float64(events),
		})
	}
	res.Median = benchcheck.Median(res.Samples, func(s benchcheck.Sample) float64 { return -s.OpsPerSec })
	return res
}
