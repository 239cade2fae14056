package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ErrNodeDead is returned by a Launcher's Wait when the launch node was
// presumed dead before the naplet reached a terminal status; the
// scheduler reschedules the assignment elsewhere.
var ErrNodeDead = errors.New("fleet: launch node presumed dead")

// LaunchSpec is one naplet launch: the control-plane subset of the
// server's launch options.
type LaunchSpec struct {
	Owner    string
	Codebase string
	Route    string
	Failover string
	Params   []string
	StateKV  map[string]string
}

// Launcher launches naplets at a named node and waits for their terminal
// status. The Master implements it over KindControl frames; tests and
// benchmarks substitute fakes.
type Launcher interface {
	// Launch starts one naplet at node, returning its identifier.
	Launch(ctx context.Context, node string, spec LaunchSpec) (string, error)
	// Wait blocks until the naplet reaches a terminal status
	// ("completed", "terminated", "trapped"), returning it and, for
	// completed naplets, the first report body. Returns ErrNodeDead when
	// the node is presumed dead first.
	Wait(ctx context.Context, node, napletID string) (status, result string, err error)
}

// NodeSource supplies the scheduler's view of the fleet: who can take a
// launch. The Registry implements it.
type NodeSource interface {
	Schedulable() []string
}

// WaveSpec describes one launch wave: Count naplets per route, fanned
// across the schedulable docks.
type WaveSpec struct {
	// Name labels the wave in results and logs.
	Name string
	// Count is the number of naplets launched per route.
	Count int
	// Routes are itineraries in the paper's operator notation.
	Routes []string
	// Owner, Codebase, Failover, Params and StateKV pass through to
	// every launch. Failover defaults to "skip" so a dead stop degrades
	// the tour instead of trapping the wave.
	Owner    string
	Codebase string
	Failover string
	Params   []string
	StateKV  map[string]string
	// PerNodeCap bounds concurrently running launches per node
	// (default 4).
	PerNodeCap int
	// Retries is the reschedule budget per assignment (default 3): every
	// failed attempt — a launch call that failed, a dead node, a lost or
	// trapped naplet — spends one. A dock whose calls keep failing leaves
	// rotation through the master's failure detector, so its failures
	// stop costing budget once it is presumed dead.
	Retries int
	// LaunchTimeout bounds one launch call (default 10s); WaitTimeout
	// bounds one naplet's run (default 2m).
	LaunchTimeout time.Duration
	WaitTimeout   time.Duration
	// Timeout bounds the whole wave (default 10m). The master derives
	// the wave context's deadline from it, so a wave that can never
	// dispatch does not spin in the scheduler forever.
	Timeout time.Duration
}

// withDefaults fills the spec's zero values.
func (s WaveSpec) withDefaults() WaveSpec {
	if s.Owner == "" {
		s.Owner = "fleet"
	}
	if s.Failover == "" {
		s.Failover = "skip"
	}
	if s.Count <= 0 {
		s.Count = 1
	}
	if s.PerNodeCap <= 0 {
		s.PerNodeCap = 4
	}
	if s.Retries <= 0 {
		s.Retries = 3
	}
	if s.LaunchTimeout <= 0 {
		s.LaunchTimeout = 10 * time.Second
	}
	if s.WaitTimeout <= 0 {
		s.WaitTimeout = 2 * time.Minute
	}
	if s.Timeout <= 0 {
		s.Timeout = 10 * time.Minute
	}
	return s
}

// Launch is one assignment's outcome within a wave result.
type Launch struct {
	// Index identifies the assignment (0..Total-1).
	Index int
	// Route is the assignment's itinerary.
	Route string
	// Node is the dock the naplet finally launched at.
	Node string
	// NapletID is the launched naplet's identifier (last attempt).
	NapletID string
	// Status is the terminal status, or "failed" when the budget ran
	// out; Err carries the last error.
	Status string
	Err    string
	// Result is the naplet's first report body, fetched for completed
	// launches. It is bytes, not text: a report body need not be UTF-8,
	// and JSON carries []byte exactly (as base64).
	Result []byte
	// Attempts counts launch attempts consumed (1 = no retry).
	Attempts int
}

// WaveResult aggregates one wave.
type WaveResult struct {
	Name  string
	Total int
	// Completed, Failed and Rescheduled partition the outcomes:
	// Completed + Failed == Total; Rescheduled counts requeues.
	Completed   int
	Failed      int
	Rescheduled int
	// PerNode counts completed launches by launch node.
	PerNode map[string]int
	// Launches is the per-assignment detail, by Index.
	Launches []Launch
	// Elapsed is the wall-clock wave duration.
	Elapsed time.Duration
}

// SchedulerConfig parameterises a Scheduler.
type SchedulerConfig struct {
	Nodes    NodeSource
	Launcher Launcher
	// PollEvery paces the dispatch loop while it waits for capacity or
	// requeues (default 2ms).
	PollEvery time.Duration
	// NoNodesAfter fails a wave's pending assignments once the fleet has
	// had zero schedulable nodes for this long (default 10s) — all-at-cap
	// is a normal wait, an empty fleet is not worth spinning on.
	NoNodesAfter time.Duration
	// Telemetry, when set, exports wave and launch counters.
	Telemetry *telemetry.Registry
}

// Scheduler fans launch waves across the schedulable docks: per-node
// concurrency caps, least-loaded placement, and retry-on-dead-node by
// relaunching the assignment elsewhere as a fresh naplet.
type Scheduler struct {
	cfg SchedulerConfig

	waves       *telemetry.Counter
	launches    *telemetry.Counter
	reschedules *telemetry.Counter
}

// NewScheduler builds a scheduler.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.Nodes == nil || cfg.Launcher == nil {
		return nil, errors.New("fleet: scheduler needs a node source and a launcher")
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 2 * time.Millisecond
	}
	if cfg.NoNodesAfter <= 0 {
		cfg.NoNodesAfter = 10 * time.Second
	}
	s := &Scheduler{cfg: cfg}
	if reg := cfg.Telemetry; reg != nil {
		s.waves = reg.Counter("naplet_fleet_waves_total", "launch waves run")
		s.launches = reg.Counter("naplet_fleet_launches_total",
			"naplet launch attempts issued by the wave scheduler")
		s.reschedules = reg.Counter("naplet_fleet_reschedules_total",
			"wave assignments requeued after a failed or dead node")
	}
	return s, nil
}

// assignment is one queued launch.
type assignment struct {
	idx   int
	route string
	// attempts counts the attempts made, failed ones against Retries.
	attempts int
	// lastNode is the node the last attempt failed on; the next pick
	// avoids it while any other node is schedulable.
	lastNode string
}

// Run executes one wave, blocking until every assignment reaches a
// terminal outcome or ctx expires. The returned result is complete even
// on context error: undispatched assignments are marked failed.
func (s *Scheduler) Run(ctx context.Context, spec WaveSpec) (*WaveResult, error) {
	spec = spec.withDefaults()
	if len(spec.Routes) == 0 {
		return nil, errors.New("fleet: wave without routes")
	}
	if spec.Codebase == "" {
		return nil, errors.New("fleet: wave without a codebase")
	}
	if s.waves != nil {
		s.waves.Inc()
	}
	start := time.Now()
	total := spec.Count * len(spec.Routes)

	res := &WaveResult{
		Name:     spec.Name,
		Total:    total,
		PerNode:  make(map[string]int),
		Launches: make([]Launch, total),
	}
	var (
		mu       sync.Mutex
		pending  []assignment
		inflight = make(map[string]int)
		done     int
		wg       sync.WaitGroup
	)
	for i := 0; i < total; i++ {
		route := spec.Routes[i%len(spec.Routes)]
		pending = append(pending, assignment{idx: i, route: route})
		res.Launches[i] = Launch{Index: i, Route: route}
	}

	// finish records a terminal outcome. Callers hold mu.
	finish := func(a assignment, node, nid, status, errText, result string) {
		l := &res.Launches[a.idx]
		l.Node, l.NapletID, l.Status, l.Err = node, nid, status, errText
		if result != "" {
			l.Result = []byte(result)
		}
		l.Attempts = a.attempts
		if status == "completed" {
			res.Completed++
			res.PerNode[node]++
		} else {
			res.Failed++
		}
		done++
	}
	// requeue returns the assignment to the queue, or fails it when its
	// budget ran out. Callers hold mu.
	requeue := func(a assignment, node, nid, errText string) {
		a.lastNode = node
		a.attempts++
		if a.attempts > spec.Retries {
			finish(a, node, nid, "failed", errText, "")
			return
		}
		res.Rescheduled++
		if s.reschedules != nil {
			s.reschedules.Inc()
		}
		pending = append(pending, a)
	}

	lspec := LaunchSpec{
		Owner:    spec.Owner,
		Codebase: spec.Codebase,
		Failover: spec.Failover,
		Params:   spec.Params,
		StateKV:  spec.StateKV,
	}

	// noNodesSince marks when the fleet last went empty of schedulable
	// nodes; sustained emptiness fails the pending assignments instead
	// of polling forever.
	var noNodesSince time.Time
	for {
		mu.Lock()
		if done >= total {
			mu.Unlock()
			break
		}
		if ctx.Err() != nil {
			// Fail what never dispatched; in-flight launches report
			// through their own workers.
			for _, a := range pending {
				finish(a, a.lastNode, "", "failed", ctx.Err().Error(), "")
			}
			pending = nil
			if done >= total {
				mu.Unlock()
				break
			}
			mu.Unlock()
			time.Sleep(s.cfg.PollEvery)
			continue
		}
		if len(pending) == 0 {
			mu.Unlock()
			time.Sleep(s.cfg.PollEvery)
			continue
		}
		nodes := s.cfg.Nodes.Schedulable()
		if len(nodes) == 0 {
			now := time.Now()
			if noNodesSince.IsZero() {
				noNodesSince = now
			} else if now.Sub(noNodesSince) >= s.cfg.NoNodesAfter {
				for _, a := range pending {
					finish(a, a.lastNode, "", "failed", "no schedulable nodes", "")
				}
				pending = nil
			}
			mu.Unlock()
			time.Sleep(s.cfg.PollEvery)
			continue
		}
		noNodesSince = time.Time{}
		a := pending[len(pending)-1]
		node := s.pickNode(nodes, inflight, spec.PerNodeCap, a.lastNode)
		if node == "" {
			mu.Unlock()
			time.Sleep(s.cfg.PollEvery)
			continue
		}
		pending = pending[:len(pending)-1]
		inflight[node]++
		mu.Unlock()

		wg.Add(1)
		go func(a assignment, node string) {
			defer wg.Done()
			nid, status, result, err := s.runOne(ctx, node, lspec, spec, a)
			mu.Lock()
			defer mu.Unlock()
			inflight[node]--
			switch {
			case err == nil && status == "trapped":
				// An execution exception. From the control plane a trap
				// is usually infrastructure (a dead stop, an exhausted
				// dispatch) — relaunch on the wave's budget; a
				// deterministic agent bug burns the budget and fails.
				requeue(a, node, nid, "trapped: "+result)
			case err == nil:
				a.attempts++
				if status == "completed" {
					finish(a, node, nid, status, "", result)
				} else {
					// Terminated by its owner: final, no retry. Result
					// carried the manager's reason; record it as the
					// error.
					finish(a, node, nid, status, result, "")
				}
			default:
				requeue(a, node, nid, err.Error())
			}
		}(a, node)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, ctx.Err()
}

// pickNode chooses the least-loaded node with spare capacity from the
// schedulable set. It never picks avoid, the node the assignment last
// failed on, while another node is schedulable: if those are all at
// their cap the assignment waits for one of them, rather than spending
// its budget on the node that just failed it.
func (s *Scheduler) pickNode(nodes []string, inflight map[string]int, cap int, avoid string) string {
	best, bestLoad := "", 0
	for _, n := range nodes {
		load := inflight[n]
		if load >= cap || (n == avoid && len(nodes) > 1) {
			continue
		}
		if best == "" || load < bestLoad {
			best, bestLoad = n, load
		}
	}
	return best
}

// runOne performs one launch attempt end to end. A launch-call failure
// returns an empty naplet ID; a wait-phase failure returns the ID it
// was waiting on.
func (s *Scheduler) runOne(ctx context.Context, node string, lspec LaunchSpec, spec WaveSpec, a assignment) (nid, status, result string, err error) {
	if s.launches != nil {
		s.launches.Inc()
	}
	lspec.Route = a.route
	lctx, lcancel := context.WithTimeout(ctx, spec.LaunchTimeout)
	nid, err = s.cfg.Launcher.Launch(lctx, node, lspec)
	lcancel()
	if err != nil {
		return "", "", "", fmt.Errorf("launch at %s: %w", node, err)
	}
	wctx, wcancel := context.WithTimeout(ctx, spec.WaitTimeout)
	status, result, err = s.cfg.Launcher.Wait(wctx, node, nid)
	wcancel()
	if err != nil {
		return nid, "", "", fmt.Errorf("wait for %s at %s: %w", nid, node, err)
	}
	return nid, status, result, nil
}
