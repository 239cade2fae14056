package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/telemetry"
)

// RegistryConfig parameterises the master's node table.
type RegistryConfig struct {
	// HeartbeatEvery is the cadence the master serves to registering
	// agents and the interval liveness misses are judged against.
	HeartbeatEvery time.Duration
	// Health judges liveness; required. The registry feeds it the
	// heartbeat stream, the master its control calls.
	Health *health.Detector
	// Watchdog, when set, gates Schedulable on watermark latches.
	Watchdog *Watchdog
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// Telemetry, when set, exports node counters and gauges.
	Telemetry *telemetry.Registry
}

// NodeInfo is the registry's record of one dock.
type NodeInfo struct {
	// Name is the dock's fabric address.
	Name string
	// MetricsAddr is the dock's HTTP telemetry endpoint.
	MetricsAddr string
	// Labels are free-form operator tags.
	Labels []string
	// RegisteredAt and LastSeen bracket the heartbeat stream.
	RegisteredAt time.Time
	LastSeen     time.Time
	// Seq is the latest heartbeat sequence accepted.
	Seq uint64
	// Residents, DiskUsedBytes and Draining echo the last heartbeat.
	Residents     int
	DiskUsedBytes uint64
	Draining      bool
}

// NodeStatus is a NodeInfo joined with the liveness and watchdog
// verdicts — the operator-facing listing.
type NodeStatus struct {
	NodeInfo
	// State is the failure detector's verdict: alive, suspect, or dead.
	State string
	// IngestRate is the watchdog's event byte-rate estimate (bytes/s).
	IngestRate float64
	// Over reports a latched watchdog watermark.
	Over bool
}

// Registry is the master's node table: registrations, heartbeat
// bookkeeping, and the liveness sweep that converts silence into
// failure-detector misses.
type Registry struct {
	cfg RegistryConfig

	mu    sync.Mutex
	nodes map[string]*nodeEntry

	registrations *telemetry.Counter
	heartbeats    *telemetry.Counter
}

type nodeEntry struct {
	info NodeInfo
	// missed counts the heartbeat intervals already reported as
	// failures since the last heartbeat, so the sweep is idempotent.
	missed int
}

// NewRegistry builds the node table.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &Registry{cfg: cfg, nodes: make(map[string]*nodeEntry)}
	if reg := cfg.Telemetry; reg != nil {
		r.registrations = reg.Counter("naplet_fleet_registrations_total",
			"node registrations accepted by the master")
		r.heartbeats = reg.Counter("naplet_fleet_heartbeats_total",
			"node heartbeats accepted by the master")
		reg.GaugeFunc("naplet_fleet_nodes", "docks registered with the master",
			func() float64 { return float64(r.Len()) })
		reg.GaugeFunc("naplet_fleet_nodes_schedulable",
			"docks currently eligible for wave launches",
			func() float64 { return float64(len(r.Schedulable())) })
	}
	return r
}

// HeartbeatEvery returns the cadence the registry expects.
func (r *Registry) HeartbeatEvery() time.Duration { return r.cfg.HeartbeatEvery }

// Register records (or refreshes) a node. Registration is a success
// signal: a re-registering node comes back alive.
func (r *Registry) Register(b RegisterBody) error {
	if b.Node == "" {
		return fmt.Errorf("fleet: register without a node name")
	}
	now := r.cfg.Clock()
	r.mu.Lock()
	e, ok := r.nodes[b.Node]
	if !ok {
		e = &nodeEntry{info: NodeInfo{Name: b.Node, RegisteredAt: now}}
		r.nodes[b.Node] = e
	}
	// A registration is a fresh start: a restarted dock's heartbeat
	// counter begins again at 1, so the stored Seq (and the stats the
	// old incarnation reported) must reset or every new beacon would be
	// dropped as a stale replay until the counter outran the pre-restart
	// value — freezing LastSeen and letting the liveness sweep declare a
	// healthy node dead.
	e.info.Seq = 0
	e.info.Residents = 0
	e.info.DiskUsedBytes = 0
	e.info.Draining = false
	e.info.MetricsAddr = b.MetricsAddr
	e.info.Labels = append([]string(nil), b.Labels...)
	e.info.LastSeen = now
	e.missed = 0
	r.mu.Unlock()
	r.cfg.Health.ReportSuccess(b.Node)
	if r.registrations != nil {
		r.registrations.Inc()
	}
	return nil
}

// Heartbeat folds one beacon into the table. An unknown node errors so
// the agent re-registers (the master restarted and lost its table).
// Stale (reordered) beacons are dropped silently.
func (r *Registry) Heartbeat(b HeartbeatBody) error {
	now := r.cfg.Clock()
	r.mu.Lock()
	e, ok := r.nodes[b.Node]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("fleet: unknown node %q", b.Node)
	}
	if b.Seq != 0 && b.Seq <= e.info.Seq {
		r.mu.Unlock()
		return nil
	}
	e.info.Seq = b.Seq
	e.info.LastSeen = now
	e.info.Residents = b.Residents
	e.info.DiskUsedBytes = b.DiskUsedBytes
	e.info.Draining = b.Draining
	e.missed = 0
	r.mu.Unlock()
	r.cfg.Health.ReportSuccess(b.Node)
	if wd := r.cfg.Watchdog; wd != nil {
		wd.ObserveDisk(b.Node, b.DiskUsedBytes)
	}
	if r.heartbeats != nil {
		r.heartbeats.Inc()
	}
	return nil
}

// CheckLiveness sweeps the table, reporting one failure-detector miss
// per heartbeat interval a node has stayed silent beyond a one-interval
// grace. Consecutive sweeps are idempotent: an interval is reported at
// most once, so the detector's suspect/dead thresholds translate
// directly into missed-heartbeat counts.
func (r *Registry) CheckLiveness() {
	now := r.cfg.Clock()
	type miss struct {
		node string
		n    int
	}
	var misses []miss
	r.mu.Lock()
	for name, e := range r.nodes {
		if e.info.LastSeen.IsZero() {
			continue
		}
		intervals := int(now.Sub(e.info.LastSeen)/r.cfg.HeartbeatEvery) - 1
		if intervals > e.missed {
			misses = append(misses, miss{node: name, n: intervals - e.missed})
			e.missed = intervals
		}
	}
	r.mu.Unlock()
	for _, m := range misses {
		for i := 0; i < m.n; i++ {
			r.cfg.Health.ReportFailure(m.node)
		}
	}
}

// Schedulable lists the nodes eligible for wave launches: registered,
// not presumed dead, not draining, and not latched over a watchdog
// watermark. Sorted for deterministic scheduling.
func (r *Registry) Schedulable() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.nodes))
	for name, e := range r.nodes {
		if !e.info.Draining {
			names = append(names, name)
		}
	}
	r.mu.Unlock()
	out := names[:0]
	for _, name := range names {
		if r.cfg.Health.Dead(name) {
			continue
		}
		if wd := r.cfg.Watchdog; wd != nil && wd.Over(name) {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Dead reports whether node is registered but presumed dead (or not
// registered at all — an unknown node is no launch target either).
func (r *Registry) Dead(node string) bool {
	r.mu.Lock()
	_, ok := r.nodes[node]
	r.mu.Unlock()
	if !ok {
		return true
	}
	return r.cfg.Health.Dead(node)
}

// Nodes returns every registered node's status, sorted by name.
func (r *Registry) Nodes() []NodeStatus {
	r.mu.Lock()
	out := make([]NodeStatus, 0, len(r.nodes))
	for name, e := range r.nodes {
		st := NodeStatus{NodeInfo: e.info}
		st.Name = name
		out = append(out, st)
	}
	r.mu.Unlock()
	for i := range out {
		out[i].State = r.cfg.Health.State(out[i].Name).String()
		if wd := r.cfg.Watchdog; wd != nil {
			out[i].IngestRate = wd.Rate(out[i].Name)
			out[i].Over = wd.Over(out[i].Name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the registered node count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.nodes)
}
