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

// EncodedSize returns the exact binary-encoded size of the message.
func (m Message) EncodedSize() int {
	return wire.SizeString(m.ID) +
		m.From.EncodedSize() + m.To.EncodedSize() +
		wire.SizeUvarint(uint64(m.Class)) +
		wire.SizeString(string(m.Control)) +
		wire.SizeString(m.Subject) +
		wire.SizeBytes(m.Body) +
		wire.SizeTime(m.SentAt)
}

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

// EncodedSize returns the exact binary-encoded size of the book.
func (b *AddressBook) EncodedSize() int {
	entries := b.Entries()
	sz := wire.SizeUvarint(uint64(len(entries)))
	for _, e := range entries {
		sz += e.NapletID.EncodedSize() + wire.SizeString(e.ServerURN)
	}
	return sz
}

// AppendBinary appends the book's binary form to dst, entries in sorted
// identifier order (deterministic for the golden-byte tests).
func (b *AddressBook) AppendBinary(dst []byte) []byte {
	entries := b.Entries()
	dst = wire.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = e.NapletID.AppendBinary(dst)
		dst = wire.AppendString(dst, e.ServerURN)
	}
	return dst
}

// DecodeBookBinary consumes one address book from b and returns the rest.
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

// timeChain carries the previous non-zero time of a log being encoded,
// sized or decoded; the zero value starts a chain.
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

func (c *timeChain) size(t time.Time) int {
	t, d, asDelta := c.link(t)
	if asDelta {
		return 1 + wire.SizeVarint(int64(d))
	}
	return wire.SizeTime(t)
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

// EncodedSize returns the exact binary-encoded size of the log.
func (l *NavigationLog) EncodedSize() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var times timeChain
	sz := wire.SizeUvarint(uint64(len(l.hops)))
	for _, h := range l.hops {
		sz += wire.SizeString(h.Server) + times.size(h.Arrive) + times.size(h.Depart)
	}
	sz += wire.SizeUvarint(uint64(len(l.reroutes)))
	for _, r := range l.reroutes {
		sz += wire.SizeString(r.Visit) + wire.SizeString(r.Policy) +
			wire.SizeString(r.Detail) + times.size(r.At)
	}
	return sz
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
	dst = wire.AppendUvarint(dst, uint64(len(l.hops)))
	for _, h := range l.hops {
		dst = wire.AppendString(dst, h.Server)
		dst = times.append(dst, h.Arrive)
		dst = times.append(dst, h.Depart)
	}
	dst = wire.AppendUvarint(dst, uint64(len(l.reroutes)))
	for _, r := range l.reroutes {
		dst = wire.AppendString(dst, r.Visit)
		dst = wire.AppendString(dst, r.Policy)
		dst = wire.AppendString(dst, r.Detail)
		dst = times.append(dst, r.At)
	}
	return dst
}

// DecodeLogBinary consumes one navigation log from b and returns the rest.
func DecodeLogBinary(b []byte) (*NavigationLog, []byte, error) {
	hcnt, b, err := wire.DecCount(b, 3)
	if err != nil {
		return nil, nil, err
	}
	log := NewNavigationLog()
	var times timeChain
	if hcnt > 0 {
		log.hops = make([]Hop, hcnt)
		for i := range log.hops {
			h := &log.hops[i]
			if h.Server, b, err = wire.DecString(b); err != nil {
				return nil, nil, err
			}
			if h.Arrive, b, err = times.decode(b); err != nil {
				return nil, nil, err
			}
			if h.Depart, b, err = times.decode(b); err != nil {
				return nil, nil, err
			}
		}
	}
	rcnt, b, err := wire.DecCount(b, 4)
	if err != nil {
		return nil, nil, err
	}
	if rcnt > 0 {
		log.reroutes = make([]Reroute, rcnt)
		for i := range log.reroutes {
			r := &log.reroutes[i]
			if r.Visit, b, err = wire.DecString(b); err != nil {
				return nil, nil, err
			}
			if r.Policy, b, err = wire.DecString(b); err != nil {
				return nil, nil, err
			}
			if r.Detail, b, err = wire.DecString(b); err != nil {
				return nil, nil, err
			}
			if r.At, b, err = times.decode(b); err != nil {
				return nil, nil, err
			}
		}
	}
	return log, b, nil
}

// ---- Record ----

// EncodedSize returns the exact binary-encoded size of the record,
// including the magic and version prefix.
func (r *Record) EncodedSize() int {
	sz := len(recordMagic) + 1 + // magic + version byte
		r.ID.EncodedSize() +
		r.Credential.EncodedSize() +
		wire.SizeString(r.Codebase) +
		wire.SizeString(r.Home)
	sz += wire.SizeBool // state presence
	if r.State != nil {
		sz += r.State.EncodedSize()
	}
	sz += wire.SizeBool // itinerary presence
	if r.Itin != nil {
		sz += r.Itin.EncodedSize()
	}
	sz += wire.SizeBool // book presence
	if r.Book != nil {
		sz += r.Book.EncodedSize()
	}
	sz += wire.SizeBool // log presence
	if r.Log != nil {
		sz += r.Log.EncodedSize()
	}
	sz += r.Pending.EncodedSize()
	sz += wire.SizeSeq(r.PendingAlts, itinerary.SizeOptPattern)
	return sz +
		wire.SizeString(string(r.Failover)) +
		wire.SizeUvarint(uint64(r.CloneSeq))
}

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
