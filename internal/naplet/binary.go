package naplet

import (
	"fmt"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/state"
	"repro/internal/wire"
)

// Binary codecs for the migration payloads: messages, address books,
// navigation logs, and the full naplet record (every hop serializes a
// record; every post serializes a message). Field layouts are pinned by
// golden-byte tests and documented in DESIGN.md §11; any layout change
// requires bumping RecordCodecVersion and regenerating the fixtures.

// RecordCodecVersion is the version byte carried after the record magic.
// Version 3 front-codes map keys (the state container and the map-typed
// state values) and carries the navigation log's times as deltas.
const RecordCodecVersion = 3

// recordMagic prefixes encoded records.
var recordMagic = [2]byte{'N', 'R'}

// ---- Message ----

// AppendBinary appends the message's binary form to dst. Messages are
// embedded unversioned; the container (post body, dock snapshot) owns the
// version byte.
func (m Message) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, m.ID)
	dst = m.From.AppendBinary(dst)
	dst = m.To.AppendBinary(dst)
	dst = wire.AppendUvarint(dst, uint64(m.Class))
	dst = wire.AppendString(dst, string(m.Control))
	dst = wire.AppendString(dst, m.Subject)
	dst = wire.AppendBytes(dst, m.Body)
	return wire.AppendTime(dst, m.SentAt)
}

// DecodeMessageBinary consumes one message from b and returns the rest.
// The body is copied, so the message does not alias b.
func DecodeMessageBinary(b []byte) (Message, []byte, error) {
	var m Message
	var err error
	if m.ID, b, err = wire.DecString(b); err != nil {
		return Message{}, nil, err
	}
	if m.From, b, err = id.DecodeBinary(b); err != nil {
		return Message{}, nil, err
	}
	if m.To, b, err = id.DecodeBinary(b); err != nil {
		return Message{}, nil, err
	}
	class, b, err := wire.DecUvarint(b)
	if err != nil {
		return Message{}, nil, err
	}
	m.Class = MessageClass(class)
	var control string
	if control, b, err = wire.DecString(b); err != nil {
		return Message{}, nil, err
	}
	m.Control = ControlVerb(control)
	if m.Subject, b, err = wire.DecString(b); err != nil {
		return Message{}, nil, err
	}
	body, b, err := wire.DecBytes(b)
	if err != nil {
		return Message{}, nil, err
	}
	if body != nil {
		m.Body = append([]byte(nil), body...)
	}
	if m.SentAt, b, err = wire.DecTime(b); err != nil {
		return Message{}, nil, err
	}
	return m, b, nil
}

// ---- AddressBook ----

// AppendBinary appends the book's binary form to dst, entries in sorted
// identifier order (deterministic for the golden-byte tests).
func (b *AddressBook) AppendBinary(dst []byte) []byte {
	return wire.AppendSeq(dst, b.Entries(), func(dst []byte, e AddressEntry) []byte {
		return wire.AppendString(e.NapletID.AppendBinary(dst), e.ServerURN)
	})
}

// DecodeBookBinary consumes one address book from b and returns the rest.
// The entries go straight into the book's map: wire.DecSeq would build a
// slice per landing only to copy it out.
func DecodeBookBinary(b []byte) (*AddressBook, []byte, error) {
	cnt, b, err := wire.DecCount(b, 2)
	if err != nil {
		return nil, nil, err
	}
	book := NewAddressBook()
	prev := ""
	for i := 0; i < cnt; i++ {
		nid, rest, err := id.DecodeBinary(b)
		if err != nil {
			return nil, nil, err
		}
		urn, rest, err := wire.DecString(rest)
		if err != nil {
			return nil, nil, err
		}
		// Entries travel in identifier order; anything else — a repeated
		// identifier above all — is not a book AppendBinary wrote.
		key := nid.Key()
		if i > 0 && key <= prev {
			return nil, nil, fmt.Errorf("%w: address book entries out of order", wire.ErrMalformed)
		}
		book.entries[key] = AddressEntry{NapletID: nid, ServerURN: urn}
		b, prev = rest, key
	}
	return book, b, nil
}

// ---- NavigationLog ----

// The log's timestamps travel as a chain. A hop's arrival and departure,
// and one hop's departure and the next one's arrival, are microseconds to
// seconds apart, so after the first every time is a difference:
//
//	[0]                                       the zero time (an open hop)
//	[1] [varint unix seconds] [uvarint nanos] absolute, as wire.AppendTime
//	[2] [varint nanoseconds]                  since the previous non-zero
//	                                          time of the same log
//
// The first non-zero time is absolute; so is one too far from its
// predecessor for a Duration to hold (centuries). Everything else is a
// delta, which may be negative: clocks step back. Differences are taken
// over wall-clock readings (Round(0)): a monotonic difference need not
// match the wall one, and time.Time.Equal must hold across a round trip.
const timeDelta = 2

// timeChain carries the previous non-zero time of a log being encoded or
// decoded; the zero value starts a chain.
type timeChain struct{ prev time.Time }

// delta returns t's distance from the chain's previous time and whether a
// delta can carry it.
func (c *timeChain) delta(t time.Time) (time.Duration, bool) {
	if c.prev.IsZero() {
		return 0, false
	}
	d := t.Sub(c.prev)
	return d, c.prev.Add(d).Equal(t)
}

// link advances the chain to t and reports how t travels: as the delta d,
// or else in wire's own time form.
func (c *timeChain) link(t time.Time) (wall time.Time, d time.Duration, asDelta bool) {
	if t.IsZero() {
		return t, 0, false
	}
	wall = t.Round(0)
	d, asDelta = c.delta(wall)
	c.prev = wall
	return wall, d, asDelta
}

func (c *timeChain) append(dst []byte, t time.Time) []byte {
	t, d, asDelta := c.link(t)
	if asDelta {
		return wire.AppendVarint(append(dst, timeDelta), int64(d))
	}
	return wire.AppendTime(dst, t)
}

// decode consumes one chained time. It accepts only what append writes: a
// delta needs a predecessor and must land where Add says, and an absolute
// time where a delta would have done is malformed.
func (c *timeChain) decode(b []byte) (time.Time, []byte, error) {
	if len(b) == 0 || b[0] != timeDelta {
		t, rest, err := wire.DecTime(b)
		if err != nil || t.IsZero() {
			return t, rest, err
		}
		if _, ok := c.delta(t); ok {
			return time.Time{}, nil, fmt.Errorf("%w: absolute log time where a delta fits", wire.ErrMalformed)
		}
		c.prev = t
		return t, rest, nil
	}
	d, rest, err := wire.DecVarint(b[1:])
	if err != nil {
		return time.Time{}, nil, err
	}
	t := c.prev.Add(time.Duration(d))
	if c.prev.IsZero() || t.IsZero() || t.Sub(c.prev) != time.Duration(d) {
		return time.Time{}, nil, fmt.Errorf("%w: log time delta without a base, or out of range", wire.ErrMalformed)
	}
	c.prev = t
	return t, rest, nil
}

// AppendBinary appends the log's binary form to dst:
//
//	[uvarint h] h×([string server] [time arrive] [time depart])
//	[uvarint r] r×([string visit] [string policy] [string detail] [time at])
//
// with every time a link of one chain, in that order.
func (l *NavigationLog) AppendBinary(dst []byte) []byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var times timeChain
	dst = wire.AppendSeq(dst, l.hops, func(dst []byte, h Hop) []byte {
		dst = wire.AppendString(dst, h.Server)
		dst = times.append(dst, h.Arrive)
		return times.append(dst, h.Depart)
	})
	return wire.AppendSeq(dst, l.reroutes, func(dst []byte, r Reroute) []byte {
		dst = wire.AppendString(dst, r.Visit)
		dst = wire.AppendString(dst, r.Policy)
		dst = wire.AppendString(dst, r.Detail)
		return times.append(dst, r.At)
	})
}

// DecodeLogBinary consumes one navigation log from b and returns the rest.
func DecodeLogBinary(b []byte) (*NavigationLog, []byte, error) {
	log := NewNavigationLog()
	var times timeChain
	var err error
	log.hops, b, err = wire.DecSeq(b, 3, func(b []byte) (h Hop, _ []byte, err error) {
		if h.Server, b, err = wire.DecString(b); err != nil {
			return Hop{}, nil, err
		}
		if h.Arrive, b, err = times.decode(b); err != nil {
			return Hop{}, nil, err
		}
		h.Depart, b, err = times.decode(b)
		return h, b, err
	})
	if err != nil {
		return nil, nil, err
	}
	log.reroutes, b, err = wire.DecSeq(b, 4, func(b []byte) (r Reroute, _ []byte, err error) {
		if r.Visit, b, err = wire.DecString(b); err != nil {
			return Reroute{}, nil, err
		}
		if r.Policy, b, err = wire.DecString(b); err != nil {
			return Reroute{}, nil, err
		}
		if r.Detail, b, err = wire.DecString(b); err != nil {
			return Reroute{}, nil, err
		}
		r.At, b, err = times.decode(b)
		return r, b, err
	})
	if err != nil {
		return nil, nil, err
	}
	return log, b, nil
}

// ---- Record ----

// AppendBinary appends the record's binary form to dst:
//
//	['N' 'R'] [version byte]
//	[NapletID] [Credential] [string codebase] [string home]
//	[opt State] [opt Itinerary] [opt AddressBook] [opt NavigationLog]
//	[Visit pending] [uvarint n] n×[opt Pattern alt]
//	[string failover] [uvarint cloneSeq]
func (r *Record) AppendBinary(dst []byte) []byte {
	dst = append(dst, recordMagic[0], recordMagic[1], RecordCodecVersion)
	dst = r.ID.AppendBinary(dst)
	dst = r.Credential.AppendBinary(dst)
	dst = wire.AppendString(dst, r.Codebase)
	dst = wire.AppendString(dst, r.Home)
	dst = wire.AppendBool(dst, r.State != nil)
	if r.State != nil {
		dst = r.State.AppendBinary(dst)
	}
	dst = wire.AppendBool(dst, r.Itin != nil)
	if r.Itin != nil {
		dst = r.Itin.AppendBinary(dst)
	}
	dst = wire.AppendBool(dst, r.Book != nil)
	if r.Book != nil {
		dst = r.Book.AppendBinary(dst)
	}
	dst = wire.AppendBool(dst, r.Log != nil)
	if r.Log != nil {
		dst = r.Log.AppendBinary(dst)
	}
	dst = r.Pending.AppendBinary(dst)
	dst = wire.AppendSeq(dst, r.PendingAlts, itinerary.AppendOptPattern)
	dst = wire.AppendString(dst, string(r.Failover))
	return wire.AppendUvarint(dst, uint64(r.CloneSeq))
}

// DecodeRecordBinary decodes a record produced by AppendBinary. It
// consumes all of data; trailing bytes are an error (records travel
// length-delimited inside transfer bodies and dock snapshots).
func DecodeRecordBinary(data []byte) (*Record, error) {
	if len(data) < 3 || data[0] != recordMagic[0] || data[1] != recordMagic[1] {
		return nil, fmt.Errorf("%w: missing record magic", wire.ErrMalformed)
	}
	if data[2] != RecordCodecVersion {
		return nil, fmt.Errorf("naplet: unsupported record codec version %d", data[2])
	}
	b := data[3:]
	r := new(Record)
	var err error
	if r.ID, b, err = id.DecodeBinary(b); err != nil {
		return nil, err
	}
	if r.Credential, b, err = cred.DecodeBinary(b); err != nil {
		return nil, err
	}
	if r.Codebase, b, err = wire.DecString(b); err != nil {
		return nil, err
	}
	if r.Home, b, err = wire.DecString(b); err != nil {
		return nil, err
	}
	var present bool
	if present, b, err = wire.DecBool(b); err != nil {
		return nil, err
	}
	if present {
		if r.State, b, err = state.DecodeBinary(b); err != nil {
			return nil, err
		}
	}
	if present, b, err = wire.DecBool(b); err != nil {
		return nil, err
	}
	if present {
		if r.Itin, b, err = itinerary.DecodeBinary(b); err != nil {
			return nil, err
		}
	}
	if present, b, err = wire.DecBool(b); err != nil {
		return nil, err
	}
	if present {
		if r.Book, b, err = DecodeBookBinary(b); err != nil {
			return nil, err
		}
	}
	if present, b, err = wire.DecBool(b); err != nil {
		return nil, err
	}
	if present {
		if r.Log, b, err = DecodeLogBinary(b); err != nil {
			return nil, err
		}
	}
	if r.Pending, b, err = itinerary.DecodeVisit(b); err != nil {
		return nil, err
	}
	if r.PendingAlts, b, err = wire.DecSeq(b, 1, itinerary.DecodeOptPattern); err != nil {
		return nil, err
	}
	var failover string
	if failover, b, err = wire.DecString(b); err != nil {
		return nil, err
	}
	r.Failover = FailoverPolicy(failover)
	seq, b, err := wire.DecUvarint(b)
	if err != nil {
		return nil, err
	}
	r.CloneSeq = int(seq)
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after record", wire.ErrMalformed, len(b))
	}
	return r, nil
}
