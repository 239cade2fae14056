package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// NodeStats is the dock-side snapshot one heartbeat reports.
type NodeStats struct {
	Residents     int
	DiskUsedBytes uint64
	Draining      bool
}

// AgentConfig parameterises a node-side fleet agent.
type AgentConfig struct {
	// Node is the dock's transport endpoint; required.
	Node transport.Node
	// Master is the master's fabric address; required.
	Master string
	// Name overrides the node name reported to the master (defaults to
	// Node.Addr()).
	Name string
	// MetricsAddr is the dock's HTTP telemetry endpoint, passed through
	// to the node listing.
	MetricsAddr string
	// Labels are free-form operator tags.
	Labels []string
	// Stats supplies the per-heartbeat snapshot; nil reports zeros.
	Stats func() NodeStats
	// FlushEvery paces batch export when the queue stays shallow
	// (default 200ms).
	FlushEvery time.Duration
	// Telemetry, when set, exports agent-side drop counters.
	Telemetry *telemetry.Registry
}

const (
	// queueCap bounds the agent's event queue; events beyond it are dropped
	// at the source — exporting telemetry never blocks the dock's engine.
	queueCap = 4096
	// batchMax bounds events per export frame.
	batchMax = 256
	// registerBackoff spaces registration attempts until the master
	// answers; its reply then sets the heartbeat cadence.
	registerBackoff = 250 * time.Millisecond
	// callTimeout bounds one master round trip.
	callTimeout = 5 * time.Second
)

// Agent is the dock-side half of the fleet protocol: it registers with
// the master, heartbeats on the master's cadence, and exports hop spans
// and nav-log events in bounded batches. When the master signals
// Throttle, the agent down-samples span events (1 in 4) while always
// keeping nav-log events — backpressure degrades observability detail,
// not correctness signals.
type Agent struct {
	cfg AgentConfig

	queue      chan Event
	stop       chan struct{}
	stopped    sync.WaitGroup
	once       sync.Once
	throttled  atomic.Bool
	registered atomic.Bool
	spanSkip   atomic.Uint64

	droppedQueue *telemetry.Counter
	droppedSend  *telemetry.Counter
	exported     *telemetry.Counter
}

// NewAgent builds an agent. Run starts its loop.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Node == nil {
		return nil, errors.New("fleet: agent needs a node")
	}
	if cfg.Master == "" {
		return nil, errors.New("fleet: agent needs a master address")
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Node.Addr()
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 200 * time.Millisecond
	}
	a := &Agent{
		cfg:   cfg,
		queue: make(chan Event, queueCap),
		stop:  make(chan struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		a.droppedQueue = reg.Counter("naplet_fleet_agent_events_dropped_total",
			"fleet events dropped at the source (full queue or throttle)")
		a.droppedSend = reg.Counter("naplet_fleet_agent_batches_failed_total",
			"fleet event batches lost to export errors")
		a.exported = reg.Counter("naplet_fleet_agent_events_exported_total",
			"fleet events exported to the master")
	}
	return a, nil
}

// Registered reports whether the agent currently holds a successful
// registration with the master.
func (a *Agent) Registered() bool { return a.registered.Load() }

// Publish queues an event for export. It never blocks: a full queue
// drops the event, and under master throttle span events are kept only
// 1 in 4 (nav-log events always pass).
func (a *Agent) Publish(ev Event) {
	if a.throttled.Load() && ev.Kind == EventSpan {
		if a.spanSkip.Add(1)%4 != 0 {
			if a.droppedQueue != nil {
				a.droppedQueue.Inc()
			}
			return
		}
	}
	select {
	case a.queue <- ev:
	default:
		if a.droppedQueue != nil {
			a.droppedQueue.Inc()
		}
	}
}

// Run drives the agent until Close: register (retrying until the master
// answers), then heartbeat and flush tickers.
func (a *Agent) Run() {
	a.stopped.Add(1)
	go a.loop()
}

func (a *Agent) loop() {
	defer a.stopped.Done()
	every := a.register()
	if every <= 0 {
		return // closed while registering
	}
	hb := time.NewTicker(every)
	defer hb.Stop()
	flush := time.NewTicker(a.cfg.FlushEvery)
	defer flush.Stop()
	var seq uint64
	for {
		select {
		case <-a.stop:
			// Final drain: one flush exports at most batchMax events, so a
			// busy dock needs several batches to empty a queueCap-deep
			// queue. Bounded by the queue's batch count so a concurrent
			// publisher cannot hold shutdown open.
			for i := 0; i <= queueCap/batchMax; i++ {
				if len(a.queue) == 0 {
					break
				}
				a.flush()
			}
			return
		case <-hb.C:
			seq++
			if !a.heartbeat(seq) {
				// The master lost our registration; re-register on its
				// (possibly new) cadence.
				if every = a.register(); every <= 0 {
					return
				}
				hb.Reset(every)
			}
		case <-flush.C:
			a.flush()
		}
	}
}

// register loops until the master accepts the registration, returning
// the heartbeat cadence its reply carries (0 when closed first).
func (a *Agent) register() time.Duration {
	body := RegisterBody{
		Node:        a.cfg.Name,
		MetricsAddr: a.cfg.MetricsAddr,
		Labels:      a.cfg.Labels,
	}
	for {
		select {
		case <-a.stop:
			return 0
		default:
		}
		f := wire.BinaryFrame(wire.KindFleetRegister, a.cfg.Name, a.cfg.Master, &body)
		resp, err := a.call(f)
		if err == nil {
			// An accepted registration carries the cadence to beat at.
			var rb RegisterReplyBody
			if derr := rb.Decode(resp.Payload); derr == nil && rb.OK && rb.HeartbeatEvery > 0 {
				a.registered.Store(true)
				return rb.HeartbeatEvery
			}
		}
		select {
		case <-a.stop:
			return 0
		case <-time.After(registerBackoff):
		}
	}
}

// heartbeat sends one beacon; false means the master no longer knows
// this node and the agent must re-register.
func (a *Agent) heartbeat(seq uint64) bool {
	var st NodeStats
	if a.cfg.Stats != nil {
		st = a.cfg.Stats()
	}
	body := HeartbeatBody{
		Node:          a.cfg.Name,
		Seq:           seq,
		Residents:     st.Residents,
		DiskUsedBytes: st.DiskUsedBytes,
		Draining:      st.Draining,
	}
	f := wire.BinaryFrame(wire.KindFleetHeartbeat, a.cfg.Name, a.cfg.Master, &body)
	resp, err := a.call(f)
	if err != nil {
		return true // transient; liveness is the master's call
	}
	var rb HeartbeatReplyBody
	if err := rb.Decode(resp.Payload); err != nil {
		return true
	}
	if !rb.OK && rb.Err != "" {
		a.registered.Store(false)
		return false
	}
	a.throttled.Store(rb.Throttle)
	return true
}

// flush drains up to batchMax queued events into one export frame.
func (a *Agent) flush() {
	var evs []Event
	for len(evs) < batchMax {
		select {
		case ev := <-a.queue:
			evs = append(evs, ev)
		default:
			goto drained
		}
	}
drained:
	if len(evs) == 0 {
		return
	}
	body := EventBatchBody{Node: a.cfg.Name, Events: evs}
	f := wire.BinaryFrame(wire.KindFleetEvents, a.cfg.Name, a.cfg.Master, &body)
	resp, err := a.call(f)
	if err != nil {
		// The batch is lost — bounded memory beats unbounded retry.
		if a.droppedSend != nil {
			a.droppedSend.Inc()
		}
		return
	}
	var rb EventAckBody
	if err := rb.Decode(resp.Payload); err == nil {
		a.throttled.Store(rb.Throttle)
	}
	if a.exported != nil {
		a.exported.Add(int64(len(evs)))
	}
}

// call performs one bounded round-trip to the master.
func (a *Agent) call(f wire.Frame) (wire.Frame, error) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	return a.cfg.Node.Call(ctx, a.cfg.Master, f)
}

// Close stops the loop after a final flush.
func (a *Agent) Close() {
	a.once.Do(func() { close(a.stop) })
	a.stopped.Wait()
}
