// Package health implements a lightweight per-peer failure detector.
//
// The detector is passive by default: callers that already talk to peers
// (the Navigator's dispatch path, the Messenger's forwarding path) report
// the outcome of each exchange via ReportSuccess/ReportFailure, and the
// detector folds those observations into a per-address state machine:
//
//	alive --misses >= SuspectThreshold--> suspect
//	suspect --misses >= DeadThreshold--> dead
//	any --success--> alive
//
// A dead peer is not attempted again until ProbeInterval has elapsed since
// the last attempt; Allow grants exactly one probe per interval so a
// recovered peer is rediscovered without every dispatcher burning its full
// retry budget against a corpse. All state transitions are recorded on a
// bounded trail and exported as telemetry gauges, mirroring the fault
// injector's observability contract.
package health

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// State is the detector's opinion of one peer address.
type State int

const (
	// StateAlive means the peer answered its most recent exchange.
	StateAlive State = iota
	// StateSuspect means the peer missed at least SuspectThreshold
	// consecutive exchanges but is not yet presumed dead.
	StateSuspect
	// StateDead means the peer missed DeadThreshold consecutive
	// exchanges; dispatchers should fail fast instead of retrying.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Defaults applied by Config.withDefaults.
const (
	DefaultSuspectThreshold = 2
	DefaultDeadThreshold    = 4
	DefaultProbeInterval    = 2 * time.Second
	DefaultTrailCap         = 256
)

// Config parameterises a Detector.
type Config struct {
	// SuspectThreshold is the number of consecutive misses that move a
	// peer from alive to suspect.
	SuspectThreshold int
	// DeadThreshold is the number of consecutive misses that move a peer
	// to dead. Must be >= SuspectThreshold.
	DeadThreshold int
	// ProbeInterval is how often a single probe attempt is allowed
	// against a dead peer.
	ProbeInterval time.Duration
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// TrailCap bounds the retained state-transition trail.
	TrailCap int
	// Telemetry, when set, exports per-state peer counts and a
	// transition counter.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.SuspectThreshold <= 0 {
		c.SuspectThreshold = DefaultSuspectThreshold
	}
	if c.DeadThreshold <= 0 {
		c.DeadThreshold = DefaultDeadThreshold
	}
	if c.DeadThreshold < c.SuspectThreshold {
		c.DeadThreshold = c.SuspectThreshold
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.TrailCap <= 0 {
		c.TrailCap = DefaultTrailCap
	}
	return c
}

// Transition records one state change for one peer.
type Transition struct {
	Peer   string
	From   State
	To     State
	Misses int
	At     time.Time
}

type peer struct {
	state     State
	misses    int
	lastProbe time.Time
}

// Detector tracks liveness verdicts for a set of peer addresses.
type Detector struct {
	cfg Config

	mu    sync.Mutex
	peers map[string]*peer
	trail []Transition

	transitions *telemetry.Counter
}

// New builds a Detector from cfg (zero values take defaults).
func New(cfg Config) *Detector {
	d := &Detector{
		cfg:   cfg.withDefaults(),
		peers: make(map[string]*peer),
	}
	if reg := d.cfg.Telemetry; reg != nil {
		d.transitions = reg.Counter("naplet_health_transitions_total",
			"peer liveness state transitions observed by the failure detector")
		for _, st := range []State{StateAlive, StateSuspect, StateDead} {
			st := st
			reg.GaugeFunc("naplet_health_peers",
				"peers per failure-detector state",
				func() float64 { return float64(d.count(st)) },
				"state", st.String())
		}
	}
	return d
}

func (d *Detector) count(st State) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, p := range d.peers {
		if p.state == st {
			n++
		}
	}
	return n
}

func (d *Detector) get(addr string) *peer {
	p, ok := d.peers[addr]
	if !ok {
		p = &peer{state: StateAlive}
		d.peers[addr] = p
	}
	return p
}

func (d *Detector) transition(addr string, p *peer, to State) {
	if p.state == to {
		return
	}
	tr := Transition{Peer: addr, From: p.state, To: to, Misses: p.misses, At: d.cfg.Clock()}
	p.state = to
	d.trail = append(d.trail, tr)
	if len(d.trail) > d.cfg.TrailCap {
		d.trail = d.trail[len(d.trail)-d.cfg.TrailCap:]
	}
	if d.transitions != nil {
		d.transitions.Inc()
	}
}

// ReportSuccess records a completed exchange with addr: the peer is alive
// and its miss counter resets.
func (d *Detector) ReportSuccess(addr string) {
	if d == nil || addr == "" {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.get(addr)
	p.misses = 0
	d.transition(addr, p, StateAlive)
}

// ReportFailure records a missed exchange with addr (timeout, connection
// refused, dropped frame). Consecutive misses escalate the peer through
// suspect to dead.
func (d *Detector) ReportFailure(addr string) {
	if d == nil || addr == "" {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.get(addr)
	p.misses++
	switch {
	case p.misses >= d.cfg.DeadThreshold:
		d.transition(addr, p, StateDead)
	case p.misses >= d.cfg.SuspectThreshold:
		d.transition(addr, p, StateSuspect)
	}
}

// State returns the detector's current verdict for addr. Unknown peers are
// presumed alive.
func (d *Detector) State(addr string) State {
	if d == nil {
		return StateAlive
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.peers[addr]; ok {
		return p.state
	}
	return StateAlive
}

// Dead reports whether addr is currently presumed dead.
func (d *Detector) Dead(addr string) bool { return d.State(addr) == StateDead }

// Allow reports whether a dispatch attempt against addr should proceed
// right now. Alive and suspect peers are always allowed. A dead peer is
// allowed exactly one probe attempt per ProbeInterval; other callers in the
// same interval should fail fast without touching the network.
func (d *Detector) Allow(addr string) bool {
	if d == nil || addr == "" {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.peers[addr]
	if !ok || p.state != StateDead {
		return true
	}
	now := d.cfg.Clock()
	if p.lastProbe.IsZero() || now.Sub(p.lastProbe) >= d.cfg.ProbeInterval {
		p.lastProbe = now
		return true
	}
	return false
}

// Trail returns a copy of the retained state transitions, oldest first.
func (d *Detector) Trail() []Transition {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Transition, len(d.trail))
	copy(out, d.trail)
	return out
}
