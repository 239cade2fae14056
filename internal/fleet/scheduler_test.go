package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeFleet is an in-memory Launcher + NodeSource for scheduler tests.
type fakeFleet struct {
	mu      sync.Mutex
	nodes   []string
	dead    map[string]bool
	nextID  int
	running map[string]int // node -> currently waiting launches
	maxSeen map[string]int // node -> max concurrent launches observed
	byNode  map[string]int // node -> completed launches
	// failAt makes Wait fail with ErrNodeDead for launches at this
	// node (simulating a crash mid-wave); with failKills, that failure
	// also takes the node out of the schedulable set, as a failure
	// detector would.
	failAt    string
	failKills bool
	// trapFirst makes the first N waits report a trapped naplet.
	trapFirst int
	// terminateAll makes every wait report a terminated naplet.
	terminateAll bool
	// launchErrAt makes Launch itself error at this node.
	launchErrAt string
	// waitDelay simulates naplet run time.
	waitDelay time.Duration
	// holdUntil, with released, keeps every Wait from completing before
	// this many launches are placed: no completion frees a node while the
	// wave is still being spread.
	holdUntil int
	released  chan struct{}
}

func newFakeFleet(nodes ...string) *fakeFleet {
	return &fakeFleet{
		nodes:   nodes,
		dead:    make(map[string]bool),
		running: make(map[string]int),
		maxSeen: make(map[string]int),
		byNode:  make(map[string]int),
	}
}

func (f *fakeFleet) Schedulable() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, n := range f.nodes {
		if !f.dead[n] {
			out = append(out, n)
		}
	}
	return out
}

func (f *fakeFleet) Launch(_ context.Context, node string, spec LaunchSpec) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if node == f.launchErrAt {
		return "", errors.New("connection refused")
	}
	f.nextID++
	if f.nextID == f.holdUntil {
		close(f.released)
	}
	f.running[node]++
	if f.running[node] > f.maxSeen[node] {
		f.maxSeen[node] = f.running[node]
	}
	return fmt.Sprintf("n%d@%s", f.nextID, node), nil
}

func (f *fakeFleet) Wait(ctx context.Context, node, nid string) (string, string, error) {
	if f.released != nil {
		select {
		case <-f.released:
		case <-ctx.Done():
			return "", "", ctx.Err()
		}
	}
	if f.waitDelay > 0 {
		select {
		case <-time.After(f.waitDelay):
		case <-ctx.Done():
			return "", "", ctx.Err()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.running[node]--
	if f.dead[node] || node == f.failAt {
		f.dead[node] = f.dead[node] || f.failKills
		return "", "", fmt.Errorf("%w: %s", ErrNodeDead, node)
	}
	if f.trapFirst > 0 {
		f.trapFirst--
		return "trapped", "agent bug", nil
	}
	if f.terminateAll {
		return "terminated", "killed by owner", nil
	}
	f.byNode[node]++
	return "completed", "toured from " + node, nil
}

func newTestScheduler(t *testing.T, f *fakeFleet) *Scheduler {
	t.Helper()
	s, err := NewScheduler(SchedulerConfig{Nodes: f, Launcher: f, PollEvery: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchedulerSpreadsWaveAcrossNodes(t *testing.T) {
	f := newFakeFleet("d1", "d2", "d3")
	// The even spread below is what least-loaded placement gives while
	// load only rises; the default cap of 4 a node holds all 12 at once.
	f.holdUntil, f.released = 12, make(chan struct{})
	s := newTestScheduler(t, f)
	res, err := s.Run(context.Background(), WaveSpec{
		Name:     "w",
		Count:    4,
		Routes:   []string{"seq(a,b)", "seq(b,c)", "seq(c,a)"},
		Codebase: "test.Collector",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 12 || res.Completed != 12 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	// Least-loaded placement spreads evenly over identical nodes.
	for _, n := range []string{"d1", "d2", "d3"} {
		if res.PerNode[n] != 4 {
			t.Fatalf("per-node = %v", res.PerNode)
		}
	}
	for i, l := range res.Launches {
		if l.Status != "completed" || l.NapletID == "" || len(l.Result) == 0 {
			t.Fatalf("launch %d = %+v", i, l)
		}
		if want := []string{"seq(a,b)", "seq(b,c)", "seq(c,a)"}[i%3]; l.Route != want {
			t.Fatalf("launch %d route = %q, want %q", i, l.Route, want)
		}
	}
}

func TestSchedulerRespectsPerNodeCap(t *testing.T) {
	f := newFakeFleet("d1", "d2")
	f.waitDelay = 5 * time.Millisecond
	s := newTestScheduler(t, f)
	res, err := s.Run(context.Background(), WaveSpec{
		Count:      10,
		Routes:     []string{"seq(a)"},
		Codebase:   "test.Collector",
		PerNodeCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Fatalf("completed = %d", res.Completed)
	}
	for n, max := range f.maxSeen {
		if max > 2 {
			t.Fatalf("%s saw %d concurrent launches, cap 2", n, max)
		}
	}
}

func TestSchedulerReschedulesOffDeadNode(t *testing.T) {
	f := newFakeFleet("d1", "d2", "d3")
	f.waitDelay = 2 * time.Millisecond
	// Launches placed at d3 die mid-wave (Wait reports ErrNodeDead), and
	// the first death drops the node out of the schedulable set — failover
	// seen from the control plane. No wait ends before all six launches
	// are placed, so least-loaded placement gives d3 two of them.
	f.failAt, f.failKills = "d3", true
	f.holdUntil, f.released = 6, make(chan struct{})
	s := newTestScheduler(t, f)
	res, err := s.Run(context.Background(), WaveSpec{
		Count:    6,
		Routes:   []string{"seq(a,b)"},
		Codebase: "test.Collector",
		Retries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.PerNode["d3"] != 0 {
		t.Fatalf("dead node completed launches: %v", res.PerNode)
	}
	if res.Rescheduled == 0 {
		t.Fatal("no reschedules recorded despite a dead node")
	}
}

func TestSchedulerAlternativeNodeAbsorbsLaunchErrors(t *testing.T) {
	// d2 refuses every launch and, with no failure detector behind this
	// fake, stays schedulable. An assignment that failed there never
	// goes back while d1 is schedulable, so one budget of a single
	// retry carries every assignment to d1.
	f := newFakeFleet("d1", "d2")
	f.launchErrAt = "d2"
	s := newTestScheduler(t, f)
	res, err := s.Run(context.Background(), WaveSpec{
		Count:    8,
		Routes:   []string{"seq(a)"},
		Codebase: "test.Collector",
		Retries:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 {
		t.Fatalf("result = %+v", res)
	}
	if res.PerNode["d1"] != 8 {
		t.Fatalf("per-node = %v", res.PerNode)
	}
	for _, l := range res.Launches {
		if l.Attempts > 2 {
			t.Fatalf("launch %d took %d attempts, want at most 2", l.Index, l.Attempts)
		}
	}
}

func TestPickNodeAvoidsLastFailedNode(t *testing.T) {
	s := newTestScheduler(t, newFakeFleet())
	for _, tc := range []struct {
		name     string
		nodes    []string
		inflight map[string]int
		avoid    string
		want     string
	}{
		{"least loaded", []string{"d1", "d2", "d3"}, map[string]int{"d1": 1, "d3": 1}, "", "d2"},
		{"avoided although idle", []string{"d1", "d2"}, map[string]int{"d1": 1}, "d2", "d1"},
		{"waits while the other is at cap", []string{"d1", "d2"}, map[string]int{"d1": 2}, "d2", ""},
		{"only schedulable node", []string{"d2"}, nil, "d2", "d2"},
		{"avoided node already gone", []string{"d1"}, nil, "d2", "d1"},
		{"everyone at cap", []string{"d1", "d2"}, map[string]int{"d1": 2, "d2": 2}, "", ""},
	} {
		if got := s.pickNode(tc.nodes, tc.inflight, 2, tc.avoid); got != tc.want {
			t.Errorf("%s: picked %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestSchedulerRetriesTrappedLaunches(t *testing.T) {
	f := newFakeFleet("d1", "d2")
	f.trapFirst = 3 // transient traps; later attempts complete
	s := newTestScheduler(t, f)
	res, err := s.Run(context.Background(), WaveSpec{
		Count:    4,
		Routes:   []string{"seq(a)"},
		Codebase: "test.Collector",
		Retries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 || res.Failed != 0 || res.Rescheduled != 3 {
		t.Fatalf("result = %+v", res)
	}
}

func TestSchedulerTerminatedIsFinal(t *testing.T) {
	f := newFakeFleet("d1")
	f.terminateAll = true
	s := newTestScheduler(t, f)
	res, err := s.Run(context.Background(), WaveSpec{
		Count:    2,
		Routes:   []string{"seq(a)"},
		Codebase: "test.Collector",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Owner termination is an outcome, not an infra failure to retry.
	if res.Failed != 2 || res.Rescheduled != 0 {
		t.Fatalf("result = %+v", res)
	}
	for _, l := range res.Launches {
		if l.Status != "terminated" || l.Err != "killed by owner" {
			t.Fatalf("launch = %+v", l)
		}
	}
}

func TestSchedulerFailsWaveWhenBudgetExhausted(t *testing.T) {
	f := newFakeFleet("d1")
	f.failAt = "d1" // every wait fails, nowhere else to go
	s := newTestScheduler(t, f)
	res, err := s.Run(context.Background(), WaveSpec{
		Count:    2,
		Routes:   []string{"seq(a)"},
		Codebase: "test.Collector",
		Retries:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Failed != 2 {
		t.Fatalf("result = %+v", res)
	}
	for _, l := range res.Launches {
		if l.Status != "failed" || l.Err == "" {
			t.Fatalf("launch = %+v", l)
		}
	}
}

func TestSchedulerContextCancelFailsRemainder(t *testing.T) {
	f := newFakeFleet("d1")
	f.waitDelay = 50 * time.Millisecond
	s := newTestScheduler(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := s.Run(ctx, WaveSpec{
		Count:      20,
		Routes:     []string{"seq(a)"},
		Codebase:   "test.Collector",
		PerNodeCap: 1,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if res.Completed+res.Failed != res.Total {
		t.Fatalf("outcomes do not partition: %+v", res)
	}
}

func TestSchedulerFailsWaveWhenFleetStaysEmpty(t *testing.T) {
	f := newFakeFleet("d1")
	f.dead["d1"] = true
	s, err := NewScheduler(SchedulerConfig{
		Nodes:        f,
		Launcher:     f,
		PollEvery:    100 * time.Microsecond,
		NoNodesAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var res *WaveResult
	go func() {
		defer close(done)
		res, err = s.Run(context.Background(), WaveSpec{
			Count:    3,
			Routes:   []string{"seq(a)"},
			Codebase: "test.Collector",
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wave with zero schedulable nodes never terminated")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Failed != 3 {
		t.Fatalf("result = %+v", res)
	}
	for _, l := range res.Launches {
		if l.Status != "failed" || l.Err != "no schedulable nodes" {
			t.Fatalf("launch = %+v", l)
		}
	}
}

func TestSchedulerRejectsBadSpecs(t *testing.T) {
	f := newFakeFleet("d1")
	s := newTestScheduler(t, f)
	if _, err := s.Run(context.Background(), WaveSpec{Codebase: "x"}); err == nil {
		t.Fatal("routeless wave accepted")
	}
	if _, err := s.Run(context.Background(), WaveSpec{Routes: []string{"seq(a)"}}); err == nil {
		t.Fatal("codebase-less wave accepted")
	}
}
