package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// spanEvent is what a dock exports per hop: a span with no detail text.
func spanEvent(i int) Event {
	ev := testEvent(i)
	ev.Detail = ""
	return ev
}

func subscribers(bc *Broadcaster, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = bc.Subscribe(1024, DownSample)
	}
	return ids
}

// TestHotPathAllocations holds what the control plane's per-heartbeat and
// per-event paths take from the heap: a payload to encode, six strings per
// decoded event (plus the batch's node and slice), and nothing at all to fan
// an event out to 64 subscribers — rings overwrite in place — or to feed the
// watchdog's rate estimator.
func TestHotPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector say nothing about the code")
	}
	hb := HeartbeatBody{Node: "dock7:7001", Seq: 42, Residents: 17, DiskUsedBytes: 1 << 30}
	batch := EventBatchBody{Node: "dock7:7001"}
	for i := 0; i < 16; i++ {
		batch.Events = append(batch.Events, spanEvent(i))
	}
	batchEnc := wire.EncodeBody(&batch)
	bc := NewBroadcaster(BroadcasterConfig{Buf: 1024})
	subscribers(bc, 64)
	est, now := NewRateEstimator(5*time.Second), time.Unix(1700000000, 0)
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"heartbeat round trip", 2, func() { new(HeartbeatBody).Decode(wire.EncodeBody(&hb)) }},
		{"event batch encode", 1, func() { wire.EncodeBody(&batch) }},
		{"event batch decode", 98, func() { new(EventBatchBody).Decode(batchEnc) }},
		{"publish to 64 subscribers", 0, func() { bc.Publish(batch.Events[0]) }},
		{"rate observe", 0, func() {
			now = now.Add(time.Millisecond)
			est.Observe(512, now)
			est.Rate(now)
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n > tc.max {
			t.Errorf("%s: %v allocs, want at most %v", tc.name, n, tc.max)
		}
	}
}

// instantFleet is a Launcher + NodeSource whose every launch and wait
// returns at once and costs next to nothing (fakeFleet scripts faults under a
// mutex and rebuilds the node list per call, which would be most of the
// measurement).
type instantFleet struct {
	nodes  []string
	nextID atomic.Uint64
}

func (f *instantFleet) Schedulable() []string { return f.nodes }

func (f *instantFleet) Launch(context.Context, string, LaunchSpec) (string, error) {
	return fmt.Sprintf("n%d", f.nextID.Add(1)), nil
}

func (f *instantFleet) Wait(context.Context, string, string) (string, string, error) {
	return "completed", "ok", nil
}

// BenchmarkWave200Nodes is one launch of a wave spread over 200 docks: the
// scheduler's own dispatch and bookkeeping per launch, with the dock round
// trips taken out.
func BenchmarkWave200Nodes(b *testing.B) {
	f := &instantFleet{nodes: make([]string, 200)}
	for i := range f.nodes {
		f.nodes[i] = fmt.Sprintf("dock%d:7001", i)
	}
	sched, err := NewScheduler(SchedulerConfig{Nodes: f, Launcher: f, PollEvery: 50 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	wr, err := sched.Run(context.Background(), WaveSpec{
		Name: "bench", Count: b.N, Routes: []string{"seq(a,b)"}, Codebase: "bench.Noop", PerNodeCap: 4,
	})
	if err != nil || wr.Completed != b.N {
		b.Fatalf("wave completed %d/%d: %v", wr.Completed, b.N, err)
	}
}

// BenchmarkPublishPoll64Subs is one Publish while 64 subscribers drain their
// rings concurrently: the whole fan-out/consume loop, where
// TestHotPathAllocations covers the publish path alone.
func BenchmarkPublishPoll64Subs(b *testing.B) {
	bc := NewBroadcaster(BroadcasterConfig{Buf: 1024})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, id := range subscribers(bc, 64) {
		wg.Add(1)
		go func() {
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
		}()
	}
	ev := spanEvent(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.Publish(ev)
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}
