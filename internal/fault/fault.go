// Package fault is a deterministic, seed-driven fault injector for the
// naplet transport layer.
//
// The paper's reliability story (§4: the Messenger's forwarding chase and
// held mail, the Navigator's LAUNCH/LANDING negotiation with delivery
// acknowledgements) is only credible if it survives servers that crash
// mid-transfer, links that flap, and replies that never arrive. netsim
// models static loss and partitions; this package injects the dynamic
// failure modes on top of any transport.Node or transport.Fabric:
//
//   - crash/restart: a named node becomes unreachable (calls from and to
//     it fail) until restarted;
//   - transient partition: a host pair becomes mutually unreachable until
//     healed;
//   - latency spike: a call is delayed by a configured spike;
//   - frame drop: the request is lost before the handler runs;
//   - reply drop (delayed reply): the handler runs to completion but the
//     caller never sees the reply — the fault that forces idempotent
//     retry handling, because the side effect happened;
//   - duplication: the frame is delivered twice, back to back.
//
// Every probabilistic decision is a pure function of (seed, from, to,
// frame kind, per-flow sequence number), so a schedule replays exactly
// from a single int64 seed regardless of goroutine interleaving across
// flows. Scripted faults (crash windows, partitions) trigger on the
// injector's global intercepted-call count. Every injected fault is
// appended to a bounded event trail, so a chaos-test failure can be
// replayed and diffed fault by fault.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Fault kinds as they appear in the event trail and telemetry labels.
const (
	FaultDropRequest = "drop-request"
	FaultDropReply   = "drop-reply"
	FaultDuplicate   = "duplicate"
	FaultDelay       = "delay"
	FaultCrash       = "crash"
	FaultPartition   = "partition"
	FaultOverload    = "overload"
)

// faultKinds enumerates every trail/telemetry label, for registration.
var faultKinds = []string{
	FaultDropRequest, FaultDropReply, FaultDuplicate,
	FaultDelay, FaultCrash, FaultPartition, FaultOverload,
}

// Errors surfaced to callers for injected faults. All are transient from
// the protocol's point of view: retry policies treat them like network
// loss, never like a policy refusal. Crash and partition refuse the call
// before delivery, so they carry transport.ErrRefused; the drops model
// frames lost in flight — a real caller cannot tell a lost request from
// a lost reply, so both stay ambiguous.
var (
	ErrInjectedDrop      = errors.New("fault: injected frame drop")
	ErrInjectedReplyDrop = errors.New("fault: injected reply drop (frame was delivered)")
	ErrCrashed           = fmt.Errorf("fault: node crashed (%w)", transport.ErrRefused)
	ErrInjectedPartition = fmt.Errorf("fault: injected partition (%w)", transport.ErrRefused)
	// ErrInjectedOverload synthesizes an admission-gate shed: it wraps
	// overload.ErrOverloaded so clients exercise exactly the retry and
	// budget paths a real overloaded dock would trigger (the failure
	// detector reads it as proof of life, and transport.Refused treats
	// it as provably undelivered).
	ErrInjectedOverload = fmt.Errorf("fault: injected overload shed (%w)", overload.ErrOverloaded)
)

// Probabilities configures the per-call fault rates. The draws are
// mutually exclusive: one uniform sample per call is partitioned into
// [drop-request | drop-reply | duplicate | delay | none], so the rates
// must sum to at most 1.
type Probabilities struct {
	// DropRequest loses the frame before the handler runs.
	DropRequest float64
	// DropReply runs the handler but loses the reply: the caller sees a
	// timeout-like error after the side effect happened.
	DropReply float64
	// Duplicate delivers the frame twice, back to back.
	Duplicate float64
	// Delay injects a latency spike of Config.DelaySpike before delivery.
	Delay float64
	// Overload refuses the call with a synthesized ErrOverloaded before
	// delivery, as an admission gate under pressure would.
	Overload float64
}

// Op is a scripted schedule operation.
type Op int

// Schedule operations.
const (
	// OpCrash makes node A unreachable.
	OpCrash Op = iota
	// OpRestart brings node A back.
	OpRestart
	// OpPartition cuts the pair A,B in both directions.
	OpPartition
	// OpHeal heals the pair A,B.
	OpHeal
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpCrash:
		return "crash"
	case OpRestart:
		return "restart"
	case OpPartition:
		return "partition"
	case OpHeal:
		return "heal"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Step is one scripted schedule entry: after the injector has intercepted
// AfterCalls calls in total, the operation fires.
type Step struct {
	AfterCalls int64
	Op         Op
	// A names the crashed/restarted node, or one end of the pair.
	A string
	// B names the other end of a partition/heal pair.
	B string
}

// Config parameterizes an injector.
type Config struct {
	// Seed drives every probabilistic decision. The same seed over the
	// same traffic pattern injects the same faults.
	Seed int64
	// P sets the per-call fault probabilities.
	P Probabilities
	// DelaySpike is the injected latency spike magnitude (default 2ms).
	DelaySpike time.Duration
	// Schedule lists scripted faults, triggered by global call count.
	Schedule []Step
	// Kinds filters which frame kinds are eligible for probabilistic
	// faults; nil means all. Scripted crash/partition checks apply to
	// every call regardless.
	Kinds func(k wire.Kind) bool
	// Telemetry, when non-nil, receives naplet_fault_injected_total
	// counters labelled by fault kind.
	Telemetry *telemetry.Registry
	// MaxTrail bounds the retained event trail (default 8192 events).
	MaxTrail int
}

// Event is one injected fault in the trail.
type Event struct {
	// Seq is the injector's global call number at injection time.
	Seq int64
	// At is the wall-clock injection time.
	At time.Time
	// From and To address the intercepted call.
	From, To string
	// Frame is the intercepted frame kind ("" for scripted ops).
	Frame wire.Kind
	// Fault is one of the Fault* label constants.
	Fault string
	// Detail carries operation-specific context (e.g. the schedule op).
	Detail string
}

// Injector intercepts transport calls and injects faults. One injector
// serves a whole simulated space: wrap the shared fabric with Fabric, or
// individual nodes with WrapNode.
type Injector struct {
	cfg   Config
	calls atomic.Int64

	mu          sync.Mutex
	crashed     map[string]bool
	partitioned map[[2]string]bool
	steps       []Step // pending, sorted by AfterCalls
	trail       []Event
	dropped     int64 // trail events discarded beyond MaxTrail
	counts      map[string]*atomic.Int64

	flows sync.Map // "from|to|kind" -> *atomic.Uint64

	met map[string]*telemetry.Counter
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	if cfg.DelaySpike <= 0 {
		cfg.DelaySpike = 2 * time.Millisecond
	}
	if cfg.MaxTrail <= 0 {
		cfg.MaxTrail = 8192
	}
	steps := append([]Step(nil), cfg.Schedule...)
	for i := 1; i < len(steps); i++ {
		for j := i; j > 0 && steps[j].AfterCalls < steps[j-1].AfterCalls; j-- {
			steps[j], steps[j-1] = steps[j-1], steps[j]
		}
	}
	inj := &Injector{
		cfg:         cfg,
		crashed:     make(map[string]bool),
		partitioned: make(map[[2]string]bool),
		steps:       steps,
		counts:      make(map[string]*atomic.Int64),
	}
	for _, k := range faultKinds {
		inj.counts[k] = new(atomic.Int64)
	}
	if cfg.Telemetry != nil {
		inj.met = make(map[string]*telemetry.Counter, len(faultKinds))
		for _, k := range faultKinds {
			inj.met[k] = cfg.Telemetry.Counter("naplet_fault_injected_total",
				"faults injected by the chaos harness", "fault", k)
		}
	}
	return inj
}

// ---- manual fault control (also reachable via the schedule) ----

// Crash makes addr unreachable: every intercepted call from or to it
// fails with ErrCrashed until Restart.
func (i *Injector) Crash(addr string) {
	i.mu.Lock()
	i.crashed[addr] = true
	i.mu.Unlock()
	i.record(Event{From: addr, Fault: FaultCrash, Detail: "crash"})
}

// Restart brings a crashed addr back.
func (i *Injector) Restart(addr string) {
	i.mu.Lock()
	delete(i.crashed, addr)
	i.mu.Unlock()
	i.record(Event{From: addr, Fault: FaultCrash, Detail: "restart"})
}

// Partition cuts both directions between a and b until Heal.
func (i *Injector) Partition(a, b string) {
	i.mu.Lock()
	i.partitioned[[2]string{a, b}] = true
	i.partitioned[[2]string{b, a}] = true
	i.mu.Unlock()
	i.record(Event{From: a, To: b, Fault: FaultPartition, Detail: "cut"})
}

// Heal restores the pair a,b.
func (i *Injector) Heal(a, b string) {
	i.mu.Lock()
	delete(i.partitioned, [2]string{a, b})
	delete(i.partitioned, [2]string{b, a})
	i.mu.Unlock()
	i.record(Event{From: a, To: b, Fault: FaultPartition, Detail: "heal"})
}

// ---- observability ----

// Trail returns a copy of the retained event trail.
func (i *Injector) Trail() []Event {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Event(nil), i.trail...)
}

// TrailDropped reports how many events were discarded beyond MaxTrail.
func (i *Injector) TrailDropped() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.dropped
}

// Counts returns the per-fault-kind injection totals. Every trail event
// is counted (crash/partition state changes and per-call rejections
// included), so while the trail has not overflowed MaxTrail the totals
// reconcile exactly with a tally of Trail().
func (i *Injector) Counts() map[string]int64 {
	out := make(map[string]int64, len(i.counts))
	for k, c := range i.counts {
		out[k] = c.Load()
	}
	return out
}

// record appends a trail event, stamps counters and telemetry.
func (i *Injector) record(ev Event) {
	ev.At = time.Now()
	if ev.Seq == 0 {
		ev.Seq = i.calls.Load()
	}
	if c := i.counts[ev.Fault]; c != nil {
		c.Add(1)
	}
	if i.met != nil {
		if c := i.met[ev.Fault]; c != nil {
			c.Inc()
		}
	}
	i.mu.Lock()
	if len(i.trail) < i.cfg.MaxTrail {
		i.trail = append(i.trail, ev)
	} else {
		i.dropped++
	}
	i.mu.Unlock()
}

// ---- deterministic decision function ----

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix, the standard way to turn a structured key into uniform
// bits without a shared generator (which would make decisions depend on
// goroutine interleaving).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a flow identity.
func fnv64(parts ...string) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for j := 0; j < len(p); j++ {
			h ^= uint64(p[j])
			h *= 1099511628211
		}
		h ^= '|'
		h *= 1099511628211
	}
	return h
}

// draw returns a uniform float in [0,1) for the n-th call of a flow.
func (i *Injector) draw(from, to string, kind wire.Kind, n uint64) float64 {
	x := splitmix64(uint64(i.cfg.Seed) ^ splitmix64(fnv64(from, to, string(kind))+n))
	return float64(x>>11) / float64(1<<53)
}

// flowSeq returns the per-(from,to,kind) call counter.
func (i *Injector) flowSeq(from, to string, kind wire.Kind) uint64 {
	key := from + "|" + to + "|" + string(kind)
	c, ok := i.flows.Load(key)
	if !ok {
		c, _ = i.flows.LoadOrStore(key, new(atomic.Uint64))
	}
	return c.(*atomic.Uint64).Add(1)
}

// decide maps one uniform draw onto the mutually exclusive fault kinds.
func (p Probabilities) decide(x float64) string {
	cut := p.DropRequest
	if x < cut {
		return FaultDropRequest
	}
	cut += p.DropReply
	if x < cut {
		return FaultDropReply
	}
	cut += p.Duplicate
	if x < cut {
		return FaultDuplicate
	}
	cut += p.Delay
	if x < cut {
		return FaultDelay
	}
	cut += p.Overload
	if x < cut {
		return FaultOverload
	}
	return ""
}

// ---- scripted schedule ----

// applySchedule fires every pending step whose threshold the global call
// counter has passed.
func (i *Injector) applySchedule(calls int64) {
	i.mu.Lock()
	var due []Step
	for len(i.steps) > 0 && i.steps[0].AfterCalls <= calls {
		due = append(due, i.steps[0])
		i.steps = i.steps[1:]
	}
	i.mu.Unlock()
	for _, st := range due {
		switch st.Op {
		case OpCrash:
			i.Crash(st.A)
		case OpRestart:
			i.Restart(st.A)
		case OpPartition:
			i.Partition(st.A, st.B)
		case OpHeal:
			i.Heal(st.A, st.B)
		}
	}
}

// ---- wrapping ----

// Fabric wraps a transport fabric: every node attached through the
// returned fabric has its outbound calls intercepted by the injector.
func (i *Injector) Fabric(inner transport.Fabric) transport.Fabric {
	return &faultFabric{inj: i, inner: inner}
}

type faultFabric struct {
	inj   *Injector
	inner transport.Fabric
}

// Attach implements transport.Fabric.
func (f *faultFabric) Attach(addr string, h transport.Handler) (transport.Node, error) {
	n, err := f.inner.Attach(addr, h)
	if err != nil {
		return nil, err
	}
	return f.inj.WrapNode(n), nil
}

// WrapNode wraps a single node so its outbound calls pass through the
// injector. Inbound faults are modelled on the sender's side, so wrapping
// every caller covers the space.
func (i *Injector) WrapNode(n transport.Node) transport.Node {
	return &faultNode{inj: i, inner: n}
}

type faultNode struct {
	inj   *Injector
	inner transport.Node
}

func (n *faultNode) Addr() string { return n.inner.Addr() }
func (n *faultNode) Close() error { return n.inner.Close() }

// Call implements transport.Node, injecting faults around the inner call.
func (n *faultNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	i := n.inj
	calls := i.calls.Add(1)
	i.applySchedule(calls)
	from := n.inner.Addr()

	i.mu.Lock()
	crashed := i.crashed[from] || i.crashed[to]
	cut := i.partitioned[[2]string{from, to}]
	i.mu.Unlock()
	if crashed {
		i.record(Event{Seq: calls, From: from, To: to, Frame: f.Kind, Fault: FaultCrash, Detail: "rejected"})
		return wire.Frame{}, fmt.Errorf("%w: %s -> %s", ErrCrashed, from, to)
	}
	if cut {
		i.record(Event{Seq: calls, From: from, To: to, Frame: f.Kind, Fault: FaultPartition, Detail: "rejected"})
		return wire.Frame{}, fmt.Errorf("%w: %s -> %s", ErrInjectedPartition, from, to)
	}

	if i.cfg.Kinds != nil && !i.cfg.Kinds(f.Kind) {
		return n.inner.Call(ctx, to, f)
	}
	switch i.cfg.P.decide(i.draw(from, to, f.Kind, i.flowSeq(from, to, f.Kind))) {
	case FaultDropRequest:
		i.record(Event{Seq: calls, From: from, To: to, Frame: f.Kind, Fault: FaultDropRequest})
		return wire.Frame{}, fmt.Errorf("%w: %s -> %s (%s)", ErrInjectedDrop, from, to, f.Kind)
	case FaultDropReply:
		// The handler must run even if the caller gives up waiting: this
		// is the delayed/lost-reply fault, where the side effect happens
		// but the acknowledgement never arrives.
		i.record(Event{Seq: calls, From: from, To: to, Frame: f.Kind, Fault: FaultDropReply})
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		_, _ = n.inner.Call(dctx, to, f)
		return wire.Frame{}, fmt.Errorf("%w: %s -> %s (%s)", ErrInjectedReplyDrop, from, to, f.Kind)
	case FaultDuplicate:
		i.record(Event{Seq: calls, From: from, To: to, Frame: f.Kind, Fault: FaultDuplicate})
		first, ferr := n.inner.Call(ctx, to, f)
		second, serr := n.inner.Call(ctx, to, f)
		// The caller sees the second delivery's outcome; if only the
		// first leg survived, fall back to it so a duplicate alone never
		// manufactures a loss.
		if serr != nil && ferr == nil {
			return first, nil
		}
		return second, serr
	case FaultOverload:
		i.record(Event{Seq: calls, From: from, To: to, Frame: f.Kind, Fault: FaultOverload})
		return wire.Frame{}, fmt.Errorf("%w: %s -> %s (%s)", ErrInjectedOverload, from, to, f.Kind)
	case FaultDelay:
		i.record(Event{Seq: calls, From: from, To: to, Frame: f.Kind, Fault: FaultDelay})
		// The spike ends at the call's deadline if that comes first.
		delay, err := i.cfg.DelaySpike, error(nil)
		if deadline, ok := transport.CallDeadline(ctx, &f); ok && time.Until(deadline) < delay {
			delay, err = time.Until(deadline), context.DeadlineExceeded
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
			if err != nil {
				return wire.Frame{}, err
			}
		case <-ctx.Done():
			t.Stop()
			return wire.Frame{}, ctx.Err()
		}
	}
	return n.inner.Call(ctx, to, f)
}
