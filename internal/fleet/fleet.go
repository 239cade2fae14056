// Package fleet is the control plane above the dock layer: the component
// that knows the fleet exists. A Master (cmd/napletmaster) accepts node
// registrations and heartbeats from every napletd, judges liveness with
// the internal/health failure detector, schedules launch waves across the
// healthy docks, and fans live hop-span and nav-log events out to
// subscribers over bounded per-subscriber rings. An Agent runs inside
// each napletd: it registers, heartbeats (residents, dock disk usage,
// drain state), and streams the server's telemetry events to the master
// through a bounded queue that sheds load instead of blocking the
// migration path.
//
// The paper's §5 architecture assumes an operator who can see and drive
// the whole naplet server mesh; this package is that operator tier,
// following the hierarchical manager-of-managers designs of the related
// mobile-agent management literature.
package fleet

import (
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Event kinds carried on the fleet event stream. Span events come from
// the origin navigator's HopTracer; the rest are nav-log events from the
// visit engine.
const (
	// EventSpan is one migration hop span (platform-side cost record).
	EventSpan = "span"
	// EventLaunch marks a naplet launched at its home server.
	EventLaunch = "launch"
	// EventArrival marks a transferred naplet landing.
	EventArrival = "arrival"
	// EventDepart marks a naplet released toward its next stop.
	EventDepart = "depart"
	// EventComplete marks an itinerary finishing.
	EventComplete = "complete"
	// EventTrap marks an execution exception ending a life cycle.
	EventTrap = "trap"
	// EventReroute marks an itinerary failover or evacuation.
	EventReroute = "reroute"
)

// Event is one observation on the fleet event stream: a flattened union
// of hop spans and nav-log events, small enough to batch by the hundred.
type Event struct {
	// Seq is the broadcaster's publication sequence number, assigned at
	// the master (zero in flight from the node).
	Seq uint64
	// Node is the reporting dock (stamped by the master from the batch
	// envelope, so nodes cannot spoof each other).
	Node string
	// Kind is one of the Event* constants.
	Kind string
	// Naplet is the subject naplet's identifier.
	Naplet string
	// Hop is the hop index (span) or nav-log length (nav events).
	Hop int
	// From and To are the servers involved.
	From, To string
	// At is the event time at the reporting node.
	At time.Time
	// Outcome is the span outcome (ok/refused/failed); empty otherwise.
	Outcome string
	// Detail carries error text, failover policy, or codebase.
	Detail string
	// Bytes is the moved payload size (spans: record + code bytes).
	Bytes int
	// Elapsed is the span's total duration; zero for nav events.
	Elapsed time.Duration
}

// appendEvent appends the event's binary form to dst. Events are nested
// inside body codecs, so they carry no version byte of their own.
func appendEvent(dst []byte, e Event) []byte {
	dst = wire.AppendUvarint(dst, e.Seq)
	dst = wire.AppendString(dst, e.Node)
	dst = wire.AppendString(dst, e.Kind)
	dst = wire.AppendString(dst, e.Naplet)
	dst = wire.AppendUvarint(dst, uint64(e.Hop))
	dst = wire.AppendString(dst, e.From)
	dst = wire.AppendString(dst, e.To)
	dst = wire.AppendTime(dst, e.At)
	dst = wire.AppendString(dst, e.Outcome)
	dst = wire.AppendString(dst, e.Detail)
	dst = wire.AppendUvarint(dst, uint64(e.Bytes))
	return wire.AppendVarint(dst, int64(e.Elapsed))
}

// decodeEvent parses one event from b, returning the remainder.
func decodeEvent(b []byte) (Event, []byte, error) {
	var e Event
	var err error
	if e.Seq, b, err = wire.DecUvarint(b); err != nil {
		return e, b, err
	}
	if e.Node, b, err = wire.DecString(b); err != nil {
		return e, b, err
	}
	if e.Kind, b, err = wire.DecString(b); err != nil {
		return e, b, err
	}
	if e.Naplet, b, err = wire.DecString(b); err != nil {
		return e, b, err
	}
	var hop uint64
	if hop, b, err = wire.DecUvarint(b); err != nil {
		return e, b, err
	}
	e.Hop = int(hop)
	if e.From, b, err = wire.DecString(b); err != nil {
		return e, b, err
	}
	if e.To, b, err = wire.DecString(b); err != nil {
		return e, b, err
	}
	if e.At, b, err = wire.DecTime(b); err != nil {
		return e, b, err
	}
	if e.Outcome, b, err = wire.DecString(b); err != nil {
		return e, b, err
	}
	if e.Detail, b, err = wire.DecString(b); err != nil {
		return e, b, err
	}
	var bytes uint64
	if bytes, b, err = wire.DecUvarint(b); err != nil {
		return e, b, err
	}
	e.Bytes = int(bytes)
	var el int64
	if el, b, err = wire.DecVarint(b); err != nil {
		return e, b, err
	}
	e.Elapsed = time.Duration(el)
	return e, b, nil
}

// SpanEvent flattens a migration hop span into a fleet event.
func SpanEvent(s telemetry.HopSpan) Event {
	return Event{
		Kind:    EventSpan,
		Naplet:  s.Naplet,
		Hop:     s.Hop,
		From:    s.From,
		To:      s.To,
		At:      s.Start,
		Outcome: s.Outcome,
		Detail:  s.Err,
		Bytes:   s.RecordBytes + s.CodeBytes,
		Elapsed: s.Total,
	}
}

// NavEvent flattens a server nav-log event into a fleet event.
func NavEvent(e server.Event) Event {
	return Event{
		Kind:   e.Kind,
		Naplet: e.Naplet,
		Hop:    e.Hop,
		From:   e.From,
		To:     e.To,
		At:     e.At,
		Detail: e.Detail,
	}
}
