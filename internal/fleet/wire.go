package fleet

import (
	"time"

	"repro/internal/wire"
)

// Binary codecs for the fleet-protocol bodies, following the migration
// codec conventions (DESIGN.md §11): a leading version byte, no
// reflection, exact-size allocation; a payload that starts with any other
// byte is wire.ErrMalformed. The register/heartbeat/event/subscribe bodies
// are what docks send on their own — hundreds of them ticking every
// second — so they get hand-rolled codecs; the operator-plane bodies at
// the end of this file (waves, node listings) are sent when a human runs
// napletctl and are JSON via wire.NewFrame.

// bodyCodecVersion is the leading version byte of binary protocol bodies.
const bodyCodecVersion = 1

// RegisterBody announces a dock to the master (KindFleetRegister).
type RegisterBody struct {
	// Node is the dock's fabric address — the name waves launch at.
	Node string
	// MetricsAddr is the dock's HTTP telemetry endpoint (may be empty).
	MetricsAddr string
	// Labels are free-form operator tags.
	Labels []string
}

// AppendBinary appends the body's binary form to dst.
func (b *RegisterBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendString(dst, b.Node)
	dst = wire.AppendString(dst, b.MetricsAddr)
	return wire.AppendStrings(dst, b.Labels)
}

// Decode parses a register payload.
func (b *RegisterBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Node, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	if b.MetricsAddr, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	b.Labels, _, err = wire.DecStrings(rest)
	return err
}

// RegisterReplyBody acknowledges a registration.
type RegisterReplyBody struct {
	OK  bool
	Err string
	// HeartbeatEvery is the cadence the master expects; the agent adopts
	// it so one knob (the master's) paces the whole fleet.
	HeartbeatEvery time.Duration
}

// AppendBinary appends the body's binary form to dst.
func (b *RegisterReplyBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendBool(dst, b.OK)
	dst = wire.AppendString(dst, b.Err)
	return wire.AppendVarint(dst, int64(b.HeartbeatEvery))
}

// Decode parses a register reply.
func (b *RegisterReplyBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.OK, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	if b.Err, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	hb, _, err := wire.DecVarint(rest)
	if err != nil {
		return err
	}
	b.HeartbeatEvery = time.Duration(hb)
	return nil
}

// HeartbeatBody is one liveness beacon from a dock (KindFleetHeartbeat).
type HeartbeatBody struct {
	// Node is the reporting dock.
	Node string
	// Seq increments per heartbeat, so reordered beacons are detectable.
	Seq uint64
	// Residents is the dock's current resident-naplet count.
	Residents int
	// DiskUsedBytes is the dock snapshot store's on-disk footprint.
	DiskUsedBytes uint64
	// Draining reports a graceful shutdown in progress.
	Draining bool
}

// AppendBinary appends the body's binary form to dst.
func (b *HeartbeatBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendString(dst, b.Node)
	dst = wire.AppendUvarint(dst, b.Seq)
	dst = wire.AppendUvarint(dst, uint64(b.Residents))
	dst = wire.AppendUvarint(dst, b.DiskUsedBytes)
	return wire.AppendBool(dst, b.Draining)
}

// Decode parses a heartbeat payload.
func (b *HeartbeatBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Node, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	if b.Seq, rest, err = wire.DecUvarint(rest); err != nil {
		return err
	}
	var res uint64
	if res, rest, err = wire.DecUvarint(rest); err != nil {
		return err
	}
	b.Residents = int(res)
	if b.DiskUsedBytes, rest, err = wire.DecUvarint(rest); err != nil {
		return err
	}
	b.Draining, _, err = wire.DecBool(rest)
	return err
}

// HeartbeatReplyBody acknowledges a heartbeat.
type HeartbeatReplyBody struct {
	OK bool
	// Err non-empty with OK false means the master does not know this
	// node (it restarted); the agent re-registers.
	Err string
	// Throttle asks the agent to down-sample its event stream: the
	// watchdog judged this node over an ingest or disk watermark.
	Throttle bool
}

// AppendBinary appends the body's binary form to dst.
func (b *HeartbeatReplyBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendBool(dst, b.OK)
	dst = wire.AppendString(dst, b.Err)
	return wire.AppendBool(dst, b.Throttle)
}

// Decode parses a heartbeat reply.
func (b *HeartbeatReplyBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.OK, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	if b.Err, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	b.Throttle, _, err = wire.DecBool(rest)
	return err
}

// EventBatchBody carries a batch of events from a dock
// (KindFleetEvents). The master stamps every event's Node from the
// envelope before publishing.
type EventBatchBody struct {
	Node   string
	Events []Event
}

// AppendBinary appends the body's binary form to dst.
func (b *EventBatchBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendString(dst, b.Node)
	return wire.AppendSeq(dst, b.Events, appendEvent)
}

// minEventSize is the smallest possible encoded Event (every string
// empty), the allocation guard DecCount uses against hostile counts.
const minEventSize = 12

// Decode parses an event batch.
func (b *EventBatchBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Node, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	b.Events, _, err = wire.DecSeq(rest, minEventSize, decodeEvent)
	return err
}

// EventAckBody acknowledges an event batch.
type EventAckBody struct {
	OK bool
	// Throttle mirrors the heartbeat backpressure signal.
	Throttle bool
}

// AppendBinary appends the body's binary form to dst.
func (b *EventAckBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendBool(dst, b.OK)
	return wire.AppendBool(dst, b.Throttle)
}

// Decode parses an event ack.
func (b *EventAckBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.OK, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	b.Throttle, _, err = wire.DecBool(rest)
	return err
}

// SubscribeBody creates or polls an event subscription
// (KindFleetSubscribe). Subscribers pull: the request/reply transport
// cannot push, so a slow subscriber slows only its own polling loop —
// never the master's ingest.
type SubscribeBody struct {
	// ID is the subscription handle; empty creates a new subscription.
	ID string
	// Buf hints the per-subscriber ring capacity on creation (clamped by
	// the master; 0 takes the master's default).
	Buf uint32
	// Max bounds the events returned by one poll (0 = master default).
	Max uint32
}

// AppendBinary appends the body's binary form to dst.
func (b *SubscribeBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendString(dst, b.ID)
	dst = wire.AppendUvarint(dst, uint64(b.Buf))
	return wire.AppendUvarint(dst, uint64(b.Max))
}

// Decode parses a subscribe payload.
func (b *SubscribeBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.ID, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	var v uint64
	if v, rest, err = wire.DecUvarint(rest); err != nil {
		return err
	}
	b.Buf = uint32(v)
	if v, _, err = wire.DecUvarint(rest); err != nil {
		return err
	}
	b.Max = uint32(v)
	return nil
}

// SubscribeReplyBody answers a subscribe/poll.
type SubscribeReplyBody struct {
	// ID echoes (or assigns) the subscription handle.
	ID string
	// Events are the drained events, oldest first.
	Events []Event
	// Dropped counts events this subscription lost to down-sampling.
	Dropped uint64
	// Closed reports the subscription was dropped for falling behind;
	// the handle is dead and polling should stop.
	Closed bool
	Err    string
}

// AppendBinary appends the body's binary form to dst.
func (b *SubscribeReplyBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendString(dst, b.ID)
	dst = wire.AppendSeq(dst, b.Events, appendEvent)
	dst = wire.AppendUvarint(dst, b.Dropped)
	dst = wire.AppendBool(dst, b.Closed)
	return wire.AppendString(dst, b.Err)
}

// Decode parses a subscribe reply.
func (b *SubscribeReplyBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.ID, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	if b.Events, rest, err = wire.DecSeq(rest, minEventSize, decodeEvent); err != nil {
		return err
	}
	if b.Dropped, rest, err = wire.DecUvarint(rest); err != nil {
		return err
	}
	if b.Closed, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	b.Err, _, err = wire.DecString(rest)
	return err
}

// WaveBody carries a wave specification to the master (KindFleetWave).
// Operator-frequency and structurally rich, so it is JSON.
type WaveBody struct {
	Spec WaveSpec
}

// WaveReplyBody answers a wave run with its aggregated result.
type WaveReplyBody struct {
	OK     bool
	Err    string
	Result *WaveResult
}

// NodesBody requests the fleet node listing (KindFleetNodes).
type NodesBody struct{}

// NodesReplyBody answers with every registered node's status.
type NodesReplyBody struct {
	Nodes []NodeStatus
}
