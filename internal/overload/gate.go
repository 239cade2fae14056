package overload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Shed reasons, fixed so counters, trail and telemetry all reconcile
// over the same vocabulary.
const (
	// ReasonQueueFull: the bulk queue was at capacity on arrival.
	ReasonQueueFull = "queue-full"
	// ReasonQueueDelay: the CoDel controller is in dropping mode —
	// queue delay has stayed above target for a full interval.
	ReasonQueueDelay = "queue-delay"
	// ReasonQueueTimeout: the request waited MaxWait without a slot.
	ReasonQueueTimeout = "queue-timeout"
	// ReasonBudgetExpired: the caller's propagated budget ran out while
	// the request sat in the queue.
	ReasonBudgetExpired = "budget-expired"
	// ReasonCanceled: the caller's context was canceled in the queue.
	ReasonCanceled = "canceled"
)

// ShedReasons lists every reason a Gate can emit, in a stable order.
var ShedReasons = []string{
	ReasonQueueFull, ReasonQueueDelay, ReasonQueueTimeout,
	ReasonBudgetExpired, ReasonCanceled,
}

// GateConfig parameterizes an admission gate. Zero values take the
// defaults noted per field.
type GateConfig struct {
	// MaxInFlight bounds concurrently executing bulk requests
	// (default 64). Control traffic is never bounded by the gate.
	MaxInFlight int
	// MaxQueue bounds bulk requests waiting for a slot (default
	// 2*MaxInFlight). Arrivals beyond it are shed immediately.
	MaxQueue int
	// Target is the acceptable standing queue delay (default 5ms).
	Target time.Duration
	// Interval is how long queue delay must stay above Target before
	// the gate starts shedding new bulk arrivals (default 100ms) —
	// CoDel's interval, applied at admission instead of at the head.
	Interval time.Duration
	// MaxWait caps how long a queued request may wait even when its
	// caller sent no budget (default 1s).
	MaxWait time.Duration
	// Clock overrides time.Now for the delay controller (tests).
	Clock func() time.Time
	// MaxTrail bounds the shed-event trail (default 8192).
	MaxTrail int
	// Telemetry, when set, exports shed/admit counters and occupancy
	// gauges.
	Telemetry *telemetry.Registry
}

func (c GateConfig) withDefaults() GateConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.Target <= 0 {
		c.Target = 5 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.MaxWait <= 0 {
		c.MaxWait = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.MaxTrail <= 0 {
		c.MaxTrail = 8192
	}
	return c
}

// ShedEvent is one shed request, recorded for post-mortem
// reconciliation against counters and telemetry.
type ShedEvent struct {
	At     time.Time
	Class  Class
	Reason string
}

// Gate is a per-dock, two-class admission controller. Control-class
// requests are admitted immediately; bulk requests run under a bounded
// in-flight count, wait in a bounded queue, and are shed with a typed,
// retryable error when the queue is full or its delay has stayed above
// target for a full interval.
type Gate struct {
	cfg   GateConfig
	slots chan struct{}
	// room holds one token per bulk request from arrival to release,
	// waiting or running: MaxInFlight+MaxQueue of them, so a full room
	// is a full queue and each request is counted exactly once. A slot
	// is taken after its room token and returned before it.
	room chan struct{}

	mu         sync.Mutex
	firstAbove time.Time // first sojourn observation at/above Target
	dropping   bool
	trail      []ShedEvent
	trailDrop  int64

	ctlArrivals  atomic.Int64
	bulkArrivals atomic.Int64
	ctlAdmitted  atomic.Int64
	bulkAdmitted atomic.Int64
	ctlInFlight  atomic.Int64
	bulkInFlight atomic.Int64
	shed         map[string]*atomic.Int64

	metShed     map[string]*telemetry.Counter
	metAdmitted map[Class]*telemetry.Counter
}

// NewGate builds a gate from cfg (zero values take defaults).
func NewGate(cfg GateConfig) *Gate {
	g := &Gate{cfg: cfg.withDefaults()}
	g.slots = make(chan struct{}, g.cfg.MaxInFlight)
	g.room = make(chan struct{}, g.cfg.MaxInFlight+g.cfg.MaxQueue)
	g.shed = make(map[string]*atomic.Int64, len(ShedReasons))
	for _, r := range ShedReasons {
		g.shed[r] = new(atomic.Int64)
	}
	if reg := g.cfg.Telemetry; reg != nil {
		g.metShed = make(map[string]*telemetry.Counter, len(ShedReasons))
		for _, r := range ShedReasons {
			g.metShed[r] = reg.Counter("naplet_overload_shed_total",
				"requests shed by the admission gate", "class", ClassBulk.String(), "reason", r)
		}
		g.metAdmitted = map[Class]*telemetry.Counter{
			ClassControl: reg.Counter("naplet_overload_admitted_total",
				"requests admitted by the gate", "class", ClassControl.String()),
			ClassBulk: reg.Counter("naplet_overload_admitted_total",
				"requests admitted by the gate", "class", ClassBulk.String()),
		}
		reg.GaugeFunc("naplet_overload_inflight",
			"requests currently executing", func() float64 { return float64(g.bulkInFlight.Load()) },
			"class", ClassBulk.String())
		reg.GaugeFunc("naplet_overload_inflight",
			"requests currently executing", func() float64 { return float64(g.ctlInFlight.Load()) },
			"class", ClassControl.String())
		reg.GaugeFunc("naplet_overload_queued",
			"bulk requests waiting for an in-flight slot", func() float64 { return float64(g.queued()) })
	}
	return g
}

// Ticket is an admitted request's hold on the gate: its in-flight count
// and, for bulk, its slot and its room. Release hands them back. A Ticket
// is a value the caller keeps in a variable: releasing allocates nothing,
// and a second Release through the same variable, or a Release of the
// zero Ticket (a nil gate's), does nothing. Release it from one goroutine.
type Ticket struct {
	g     *Gate
	class Class
}

// Release returns what the admission took. Idempotent.
func (t *Ticket) Release() {
	g := t.g
	if g == nil {
		return
	}
	t.g = nil
	if t.class == ClassControl {
		g.ctlInFlight.Add(-1)
		return
	}
	g.bulkInFlight.Add(-1)
	<-g.slots
	<-g.room
}

// AdmitBy asks the gate for permission to run a request of the given
// class whose caller gives up at deadline (zero: the caller sent no
// budget). It is the serving side's admission: a frame carries its
// deadline, not a context, and a request that finds a free slot builds
// nothing — only one that has to queue arms a timer, for MaxWait or until
// the deadline, whichever comes first. On admission it returns a Ticket
// the caller must Release when the request finishes. On shed it returns a
// typed error: ErrOverloaded for capacity sheds, ErrDeadlinePast when the
// deadline passes in the queue. A nil gate admits everything.
func (g *Gate) AdmitBy(deadline time.Time, class Class) (Ticket, error) {
	return g.admit(context.Background(), class, deadline)
}

// Admit is AdmitBy for a caller that holds a context: the context's
// deadline bounds the wait, and a cancel in the queue sheds the request
// as ReasonCanceled. It returns the ticket's Release as a func, which
// costs the allocations AdmitBy's callers do not pay.
func (g *Gate) Admit(ctx context.Context, class Class) (func(), error) {
	deadline, _ := ctx.Deadline()
	t, err := g.admit(ctx, class, deadline)
	if err != nil {
		return nil, err
	}
	return t.Release, nil
}

// admit is the one admission path. ctx is watched only while the request
// queues; context.Background, whose Done is nil, watches nothing.
func (g *Gate) admit(ctx context.Context, class Class, deadline time.Time) (Ticket, error) {
	if g == nil {
		return Ticket{}, nil
	}
	if class == ClassControl {
		g.ctlArrivals.Add(1)
		g.ctlAdmitted.Add(1)
		g.ctlInFlight.Add(1)
		if c := g.metAdmitted[ClassControl]; c != nil {
			c.Inc()
		}
		return Ticket{g: g, class: ClassControl}, nil
	}

	g.bulkArrivals.Add(1)
	select {
	case g.room <- struct{}{}:
	default:
		return Ticket{}, g.shedLocked(ReasonQueueFull, ErrOverloaded)
	}
	// Fast path: a free slot means the queue is empty — take it and
	// clear any standing-delay history.
	select {
	case g.slots <- struct{}{}:
		g.noteSojourn(0)
		return g.admitBulk(), nil
	default:
	}

	g.mu.Lock()
	dropping := g.dropping
	g.mu.Unlock()
	if dropping {
		<-g.room
		return Ticket{}, g.shedLocked(ReasonQueueDelay, ErrOverloaded)
	}

	// One timer bounds the wait: MaxWait, or the caller's deadline when
	// that comes first — and then its firing is the budget running out.
	wait, budgeted := g.cfg.MaxWait, false
	if !deadline.IsZero() {
		if left := time.Until(deadline); left < wait {
			wait, budgeted = left, true
		}
	}
	if budgeted && wait <= 0 {
		<-g.room
		return Ticket{}, g.shedLocked(ReasonBudgetExpired, ErrDeadlinePast)
	}
	enqueued := g.cfg.Clock()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		g.noteSojourn(g.cfg.Clock().Sub(enqueued))
		return g.admitBulk(), nil
	case <-ctx.Done():
		<-g.room
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return Ticket{}, g.shedLocked(ReasonBudgetExpired, ErrDeadlinePast)
		}
		return Ticket{}, g.shedLocked(ReasonCanceled, ErrOverloaded)
	case <-timer.C:
		<-g.room
		if budgeted {
			return Ticket{}, g.shedLocked(ReasonBudgetExpired, ErrDeadlinePast)
		}
		return Ticket{}, g.shedLocked(ReasonQueueTimeout, ErrOverloaded)
	}
}

// queued counts bulk requests holding room but no slot: those waiting.
// The two lengths are read apart, so under churn it is an estimate; it is
// exact once the gate is idle.
func (g *Gate) queued() int {
	return max(len(g.room)-len(g.slots), 0)
}

func (g *Gate) admitBulk() Ticket {
	g.bulkAdmitted.Add(1)
	g.bulkInFlight.Add(1)
	if c := g.metAdmitted[ClassBulk]; c != nil {
		c.Inc()
	}
	return Ticket{g: g, class: ClassBulk}
}

// noteSojourn feeds one observed queue delay into the CoDel-style
// controller: a single below-target observation resets it; staying at
// or above target for a whole Interval flips the gate into dropping
// mode until the queue drains enough for delay to recover.
func (g *Gate) noteSojourn(d time.Duration) {
	now := g.cfg.Clock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if d < g.cfg.Target {
		g.firstAbove = time.Time{}
		g.dropping = false
		return
	}
	if g.firstAbove.IsZero() {
		g.firstAbove = now
		return
	}
	if now.Sub(g.firstAbove) >= g.cfg.Interval {
		g.dropping = true
	}
}

// shedLocked accounts one shed (counter, trail, telemetry) and returns
// the typed error. Named for the trail lock it takes, not a
// precondition.
func (g *Gate) shedLocked(reason string, sentinel error) error {
	g.shed[reason].Add(1)
	if c := g.metShed[reason]; c != nil {
		c.Inc()
	}
	ev := ShedEvent{At: g.cfg.Clock(), Class: ClassBulk, Reason: reason}
	g.mu.Lock()
	if len(g.trail) >= g.cfg.MaxTrail {
		g.trailDrop++
	} else {
		g.trail = append(g.trail, ev)
	}
	g.mu.Unlock()
	return fmt.Errorf("%w: %s (in-flight %d)", sentinel, reason, g.cfg.MaxInFlight)
}

// GateStats is a point-in-time accounting snapshot. After the gate
// quiesces (no queued or in-flight requests), arrivals == admitted +
// total shed per class, exactly.
type GateStats struct {
	ControlArrivals int64
	ControlAdmitted int64
	BulkArrivals    int64
	BulkAdmitted    int64
	Shed            map[string]int64
	InFlight        int64 // bulk currently executing
	Queued          int
	Dropping        bool
}

// TotalShed sums every shed reason.
func (s GateStats) TotalShed() int64 {
	var n int64
	for _, v := range s.Shed {
		n += v
	}
	return n
}

// Stats snapshots the gate's counters.
func (g *Gate) Stats() GateStats {
	if g == nil {
		return GateStats{Shed: map[string]int64{}}
	}
	st := GateStats{
		ControlArrivals: g.ctlArrivals.Load(),
		ControlAdmitted: g.ctlAdmitted.Load(),
		BulkArrivals:    g.bulkArrivals.Load(),
		BulkAdmitted:    g.bulkAdmitted.Load(),
		Shed:            make(map[string]int64, len(ShedReasons)),
		InFlight:        g.bulkInFlight.Load(),
	}
	for _, r := range ShedReasons {
		st.Shed[r] = g.shed[r].Load()
	}
	st.Queued = g.queued()
	g.mu.Lock()
	st.Dropping = g.dropping
	g.mu.Unlock()
	return st
}

// Trail returns a copy of the recorded shed events; TrailDropped says
// how many further events the bounded trail could not hold.
func (g *Gate) Trail() []ShedEvent {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ShedEvent, len(g.trail))
	copy(out, g.trail)
	return out
}

// TrailDropped reports shed events lost to the trail cap.
func (g *Gate) TrailDropped() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.trailDrop
}
