package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/id"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config parameterises a Master.
type Config struct {
	// Name is the master's fabric address.
	Name string
	// Fabric attaches the master to the network; required.
	Fabric transport.Fabric
	// HeartbeatEvery is the fleet heartbeat cadence (default 1s). Every
	// registering agent adopts it.
	HeartbeatEvery time.Duration
	// SuspectThreshold and DeadThreshold are consecutive missed-heartbeat
	// counts before a node turns suspect or dead (defaults 2 and 4).
	SuspectThreshold int
	DeadThreshold    int
	// StatusPoll paces the master's naplet-status polling while waiting
	// for a launch to finish (default 200ms).
	StatusPoll time.Duration
	// SubscriberBuf is the default event-subscriber ring capacity
	// (default 1024); SubscriberPolicy the overflow policy.
	SubscriberBuf    int
	SubscriberPolicy DropPolicy
	// Watchdog configures the per-node backpressure watchdog.
	Watchdog WatchdogConfig
	// Health overrides the built-in failure detector (tests).
	Health *health.Detector
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// Telemetry, when set, exports fleet metrics.
	Telemetry *telemetry.Registry
}

const (
	// subscriberTTL reaps event subscriptions not polled for this long.
	subscriberTTL = time.Minute
	// pollMax bounds the events returned per subscriber poll.
	pollMax = 512
)

// Master is the fleet control plane: it holds the node table, judges
// liveness from heartbeats, schedules launch waves across the healthy
// docks, fans dock events out to subscribers, and applies watchdog
// backpressure — all over the same wire/transport fabric the docks use
// for migration.
type Master struct {
	cfg  Config
	node transport.Node

	reg   *Registry
	bc    *Broadcaster
	wd    *Watchdog
	det   *health.Detector
	sched *Scheduler

	stop    chan struct{}
	stopped sync.WaitGroup
	once    sync.Once
}

// NewMaster builds a master and attaches it to the fabric.
func NewMaster(cfg Config) (*Master, error) {
	if cfg.Fabric == nil {
		return nil, errors.New("fleet: master needs a fabric")
	}
	if cfg.Name == "" {
		cfg.Name = "master"
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.SuspectThreshold <= 0 {
		cfg.SuspectThreshold = 2
	}
	if cfg.DeadThreshold <= 0 {
		cfg.DeadThreshold = 4
	}
	if cfg.StatusPoll <= 0 {
		cfg.StatusPoll = 200 * time.Millisecond
	}
	if cfg.SubscriberBuf <= 0 {
		cfg.SubscriberBuf = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}

	det := cfg.Health
	if det == nil {
		det = health.New(health.Config{
			SuspectThreshold: cfg.SuspectThreshold,
			DeadThreshold:    cfg.DeadThreshold,
			Clock:            cfg.Clock,
			Telemetry:        cfg.Telemetry,
		})
	}
	wdCfg := cfg.Watchdog
	if wdCfg.Clock == nil {
		wdCfg.Clock = cfg.Clock
	}
	if wdCfg.Telemetry == nil {
		wdCfg.Telemetry = cfg.Telemetry
	}
	wd := NewWatchdog(wdCfg)
	m := &Master{
		cfg: cfg,
		det: det,
		wd:  wd,
		bc: NewBroadcaster(BroadcasterConfig{
			Buf:       cfg.SubscriberBuf,
			Policy:    cfg.SubscriberPolicy,
			Clock:     cfg.Clock,
			Telemetry: cfg.Telemetry,
		}),
		reg: NewRegistry(RegistryConfig{
			HeartbeatEvery: cfg.HeartbeatEvery,
			Health:         det,
			Watchdog:       wd,
			Clock:          cfg.Clock,
			Telemetry:      cfg.Telemetry,
		}),
		stop: make(chan struct{}),
	}
	sched, err := NewScheduler(SchedulerConfig{
		Nodes:     m.reg,
		Launcher:  m,
		Clock:     cfg.Clock,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	m.sched = sched

	node, err := cfg.Fabric.Attach(cfg.Name, m.handle)
	if err != nil {
		return nil, err
	}
	m.node = node

	m.stopped.Add(1)
	go m.monitor()
	return m, nil
}

// monitor runs the liveness sweep and subscriber reaper until Close.
func (m *Master) monitor() {
	defer m.stopped.Done()
	t := time.NewTicker(m.cfg.HeartbeatEvery / 2)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.reg.CheckLiveness()
			m.bc.Reap(subscriberTTL)
		}
	}
}

// Name returns the master's fabric address.
func (m *Master) Name() string { return m.cfg.Name }

// Registry exposes the node table.
func (m *Master) Registry() *Registry { return m.reg }

// Broadcaster exposes the event broadcaster.
func (m *Master) Broadcaster() *Broadcaster { return m.bc }

// Watchdog exposes the backpressure watchdog.
func (m *Master) Watchdog() *Watchdog { return m.wd }

// Health exposes the fleet failure detector.
func (m *Master) Health() *health.Detector { return m.det }

// Close detaches the master and stops its background loops.
func (m *Master) Close() error {
	var err error
	m.once.Do(func() {
		close(m.stop)
		err = m.node.Close()
		m.stopped.Wait()
	})
	return err
}

// handle dispatches fleet-protocol frames.
func (m *Master) handle(from string, f wire.Frame) (wire.Frame, error) {
	switch f.Kind {
	case wire.KindFleetRegister:
		return m.handleRegister(f)
	case wire.KindFleetHeartbeat:
		return m.handleHeartbeat(f)
	case wire.KindFleetEvents:
		return m.handleEvents(f)
	case wire.KindFleetSubscribe:
		return m.handleSubscribe(f)
	case wire.KindFleetNodes:
		return m.handleNodes(f)
	case wire.KindFleetWave:
		return m.handleWave(f)
	default:
		return wire.Frame{}, fmt.Errorf("fleet: master got unexpected kind %q", f.Kind)
	}
}

// reply wraps a binary body into a KindFleetReply frame back to f.From.
func (m *Master) reply(f wire.Frame, body wire.BinaryBody) (wire.Frame, error) {
	return wire.BinaryFrame(wire.KindFleetReply, m.cfg.Name, f.From, body), nil
}

func (m *Master) handleRegister(f wire.Frame) (wire.Frame, error) {
	var b RegisterBody
	if err := b.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	rb := RegisterReplyBody{HeartbeatEvery: m.reg.HeartbeatEvery()}
	if err := m.reg.Register(b); err != nil {
		rb.Err = err.Error()
	} else {
		rb.OK = true
	}
	return m.reply(f, &rb)
}

func (m *Master) handleHeartbeat(f wire.Frame) (wire.Frame, error) {
	var b HeartbeatBody
	if err := b.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	rb := HeartbeatReplyBody{}
	if err := m.reg.Heartbeat(b); err != nil {
		rb.Err = err.Error()
	} else {
		rb.OK = true
		rb.Throttle = m.wd.Over(b.Node)
	}
	return m.reply(f, &rb)
}

func (m *Master) handleEvents(f wire.Frame) (wire.Frame, error) {
	var b EventBatchBody
	if err := b.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	node := b.Node
	if node == "" {
		node = f.From
	}
	// The whole frame's payload counts against the node's ingest budget —
	// backpressure tracks bytes on the wire, not parsed events.
	m.wd.ObserveIngest(node, len(f.Payload))
	for i := range b.Events {
		b.Events[i].Node = node
		m.bc.Publish(b.Events[i])
	}
	return m.reply(f, &EventAckBody{OK: true, Throttle: m.wd.Over(node)})
}

func (m *Master) handleSubscribe(f wire.Frame) (wire.Frame, error) {
	var b SubscribeBody
	if err := b.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	rb := SubscribeReplyBody{}
	if b.ID == "" {
		rb.ID = m.bc.Subscribe(int(b.Buf), m.cfg.SubscriberPolicy)
		return m.reply(f, &rb)
	}
	rb.ID = b.ID
	max := int(b.Max)
	if max <= 0 || max > pollMax {
		max = pollMax
	}
	evs, dropped, err := m.bc.Poll(b.ID, max)
	rb.Events, rb.Dropped = evs, dropped
	switch {
	case errors.Is(err, ErrSlowSubscriber), errors.Is(err, ErrUnknownSubscriber):
		rb.Closed = true
		rb.Err = err.Error()
	case err != nil:
		rb.Err = err.Error()
	}
	return m.reply(f, &rb)
}

func (m *Master) handleNodes(f wire.Frame) (wire.Frame, error) {
	return wire.NewFrame(wire.KindFleetReply, m.cfg.Name, f.From,
		NodesReplyBody{Nodes: m.reg.Nodes()})
}

// handleWave runs the wave synchronously in the handler: transport
// handlers run concurrently per connection, so a long wave does not
// block heartbeats or event ingest. The wave context carries the
// spec's whole-wave deadline so a wave that can never dispatch (no
// schedulable nodes) cannot leak a handler goroutine spinning forever
// after the client's call has long timed out.
func (m *Master) handleWave(f wire.Frame) (wire.Frame, error) {
	var b WaveBody
	if err := f.Body(&b); err != nil {
		return wire.Frame{}, err
	}
	spec := b.Spec.withDefaults()
	ctx, cancel := context.WithTimeout(context.Background(), spec.Timeout)
	defer cancel()
	rb := WaveReplyBody{}
	res, err := m.Wave(ctx, spec)
	rb.Result = res
	if err != nil {
		rb.Err = err.Error()
	} else {
		rb.OK = true
	}
	return wire.NewFrame(wire.KindFleetReply, m.cfg.Name, f.From, rb)
}

// Wave runs one launch wave across the schedulable docks.
func (m *Master) Wave(ctx context.Context, spec WaveSpec) (*WaveResult, error) {
	return m.sched.Run(ctx, spec)
}

// Nodes returns the fleet node listing.
func (m *Master) Nodes() []NodeStatus { return m.reg.Nodes() }

// Launch implements Launcher over the dock control protocol.
func (m *Master) Launch(ctx context.Context, node string, spec LaunchSpec) (string, error) {
	body := server.ControlBody{
		Op:       "launch",
		Owner:    spec.Owner,
		Codebase: spec.Codebase,
		Route:    spec.Route,
		Params:   spec.Params,
		StateKV:  spec.StateKV,
		Failover: spec.Failover,
	}
	rb, err := m.control(ctx, node, body)
	if err != nil {
		return "", err
	}
	if !rb.OK {
		return "", errors.New(rb.Err)
	}
	return rb.Status, nil
}

// Wait implements Launcher: poll the launch node for the naplet's status
// until it turns terminal, treating a dead node as ErrNodeDead so the
// scheduler reschedules. For completed naplets the first report body is
// fetched as the result.
func (m *Master) Wait(ctx context.Context, node, napletID string) (string, string, error) {
	nid, err := id.Parse(napletID)
	if err != nil {
		return "", "", err
	}
	for {
		if m.reg.Dead(node) {
			return "", "", fmt.Errorf("%w: %s", ErrNodeDead, node)
		}
		rb, err := m.control(ctx, node, server.ControlBody{Op: "status", NapletID: nid})
		switch {
		case err != nil && ctx.Err() != nil:
			return "", "", ctx.Err()
		case err == nil && !rb.OK:
			return "", "", errors.New(rb.Err)
		case err == nil && terminalStatus(rb.Status):
			status := rb.Status
			// For completed naplets the result is the first report body;
			// otherwise it is the manager's error text (the trap reason).
			result := rb.Err
			if status == "completed" {
				result = ""
				if rr, err := m.control(ctx, node, server.ControlBody{Op: "results", NapletID: nid}); err == nil && rr.OK && len(rr.Results) > 0 {
					result = string(rr.Results[0])
				}
			}
			return status, result, nil
		}
		// Transient call errors fall through to the next poll; the
		// dead-node check above converts persistent silence into a
		// reschedule once the failure detector catches up.
		select {
		case <-ctx.Done():
			return "", "", ctx.Err()
		case <-time.After(m.cfg.StatusPoll):
		}
	}
}

// control performs one control round-trip against a dock.
func (m *Master) control(ctx context.Context, node string, body server.ControlBody) (server.ControlReplyBody, error) {
	f, err := wire.NewFrame(wire.KindControl, m.cfg.Name, node, body)
	if err != nil {
		return server.ControlReplyBody{}, err
	}
	resp, err := m.node.Call(ctx, node, f)
	if err != nil {
		return server.ControlReplyBody{}, err
	}
	var rb server.ControlReplyBody
	if err := resp.Body(&rb); err != nil {
		return server.ControlReplyBody{}, err
	}
	return rb, nil
}

// terminalStatus reports whether a naplet status string is final.
func terminalStatus(s string) bool {
	return s == "completed" || s == "terminated" || s == "trapped"
}
