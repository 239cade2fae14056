package naplet

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// Version 4 puts the itinerary, address book and log behind length marks
// and the state last, so a dock forwards them without decoding them; map
// keys are front-coded and the navigation log's times travel as deltas.
const RecordCodecVersion = 4

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
// identifier order (deterministic for the golden-byte tests): the bytes it
// was decoded from, while nothing has changed it.
func (b *AddressBook) AppendBinary(dst []byte) []byte {
	b.mu.RLock()
	raw := b.raw
	b.mu.RUnlock()
	if raw != nil {
		return append(dst, raw...)
	}
	return wire.AppendSeq(dst, b.Entries(), func(dst []byte, e AddressEntry) []byte {
		return wire.AppendString(e.NapletID.AppendBinary(dst), e.ServerURN)
	})
}

// walkBook checks that b starts with one address book and returns the
// rest, handing each entry to visit, when it is non-nil, as views into b:
// the identifier's encoding and the server URN. Entries travel in
// identifier order; anything else — a repeated identifier above all — is
// not a book AppendBinary wrote. The order is checked on keys built in
// stack arrays, so a walk without a visitor allocates nothing.
func walkBook(b []byte, visit func(nid, urn []byte)) ([]byte, error) {
	cnt, b, err := wire.DecCount(b, 2)
	if err != nil {
		return nil, err
	}
	var keyBuf, prevBuf [96]byte
	prev := prevBuf[:0]
	for i := 0; i < cnt; i++ {
		key, rest, err := id.AppendKey(keyBuf[:0], b)
		if err != nil {
			return nil, err
		}
		nid := b[:len(b)-len(rest)]
		urn, rest, err := wire.DecBytes(rest)
		if err != nil {
			return nil, err
		}
		if i > 0 && bytes.Compare(key, prev) <= 0 {
			return nil, fmt.Errorf("%w: address book entries out of order", wire.ErrMalformed)
		}
		if visit != nil {
			visit(nid, urn)
		}
		b, prev = rest, append(prev[:0], key...)
	}
	return b, nil
}

// decodeBook builds the entry map of the encoded book raw, which walkBook
// has checked.
func decodeBook(raw []byte) map[string]AddressEntry {
	entries := make(map[string]AddressEntry)
	walkBook(raw, func(nid, urn []byte) {
		n, _, _ := id.DecodeBinary(nid)
		entries[n.Key()] = AddressEntry{NapletID: n, ServerURN: string(urn)}
	})
	return entries
}

// DecodeBookBinary consumes one address book from b and returns the rest.
// The book is checked in full but stays encoded until first read or
// changed: it keeps a view of b, which the caller must not change
// afterwards.
func DecodeBookBinary(b []byte) (*AddressBook, []byte, error) {
	rest, err := walkBook(b, nil)
	if err != nil {
		return nil, nil, err
	}
	n := len(b) - len(rest)
	return &AddressBook{raw: b[:n:n]}, rest, nil
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
// with every time a link of one chain, in that order. A still-encoded log
// re-emits its hops and reroutes verbatim, with the hops recorded since
// chained on after its last time.
func (l *NavigationLog) AppendBinary(dst []byte) []byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if e := &l.enc; e.raw != nil {
		dst = wire.AppendUvarint(dst, uint64(e.hops+len(l.hops)))
		dst = append(dst, e.raw[e.hopsAt:e.reroutesAt]...)
		times := timeChain{prev: e.last}
		for _, h := range l.hops {
			dst = appendHop(dst, &times, h)
		}
		return append(dst, e.raw[e.reroutesAt:]...)
	}
	var times timeChain
	dst = wire.AppendSeq(dst, l.hops, func(dst []byte, h Hop) []byte {
		return appendHop(dst, &times, h)
	})
	return wire.AppendSeq(dst, l.reroutes, func(dst []byte, r Reroute) []byte {
		dst = wire.AppendString(dst, r.Visit)
		dst = wire.AppendString(dst, r.Policy)
		dst = wire.AppendString(dst, r.Detail)
		return times.append(dst, r.At)
	})
}

func appendHop(dst []byte, times *timeChain, h Hop) []byte {
	dst = wire.AppendString(dst, h.Server)
	dst = times.append(dst, h.Arrive)
	return times.append(dst, h.Depart)
}

// encodedLog is a log left encoded: its bytes, where its hop entries and
// its reroute count start, how many hops it holds, and the last time of
// its chain after them, which a hop appended to it chains on from.
type encodedLog struct {
	raw                []byte
	hopsAt, reroutesAt int
	hops               int
	last               time.Time
}

// rerouted reports whether the encoded log holds reroutes, whose times
// chain on from the last hop's: a hop recorded after them cannot be
// appended to the encoding.
func (e *encodedLog) rerouted() bool {
	return e.raw != nil && len(e.raw)-e.reroutesAt > 1 // [0] is no reroutes
}

// walkLog checks that b starts with one navigation log and returns its
// layout and the rest, handing each hop and reroute to the visitors, when
// they are non-nil, with its strings as views into b. Without visitors it
// allocates nothing.
func walkLog(b []byte, hop func(server []byte, arrive, depart time.Time),
	reroute func(visit, policy, detail []byte, at time.Time)) (encodedLog, []byte, error) {
	var times timeChain
	in := b
	cnt, b, err := wire.DecCount(b, 3)
	if err != nil {
		return encodedLog{}, nil, err
	}
	e := encodedLog{hopsAt: len(in) - len(b), hops: cnt}
	for i := 0; i < cnt; i++ {
		var server []byte
		var arrive, depart time.Time
		if server, b, err = wire.DecBytes(b); err != nil {
			return encodedLog{}, nil, err
		}
		if arrive, b, err = times.decode(b); err != nil {
			return encodedLog{}, nil, err
		}
		if depart, b, err = times.decode(b); err != nil {
			return encodedLog{}, nil, err
		}
		if hop != nil {
			hop(server, arrive, depart)
		}
	}
	e.reroutesAt, e.last = len(in)-len(b), times.prev
	if cnt, b, err = wire.DecCount(b, 4); err != nil {
		return encodedLog{}, nil, err
	}
	for i := 0; i < cnt; i++ {
		var visit, policy, detail []byte
		var at time.Time
		if visit, b, err = wire.DecBytes(b); err != nil {
			return encodedLog{}, nil, err
		}
		if policy, b, err = wire.DecBytes(b); err != nil {
			return encodedLog{}, nil, err
		}
		if detail, b, err = wire.DecBytes(b); err != nil {
			return encodedLog{}, nil, err
		}
		if at, b, err = times.decode(b); err != nil {
			return encodedLog{}, nil, err
		}
		if reroute != nil {
			reroute(visit, policy, detail, at)
		}
	}
	n := len(in) - len(b)
	e.raw = in[:n:n]
	return e, b, nil
}

// decodeLog decodes the encoded log e, which walkLog has checked, followed
// by the hops recorded since.
func decodeLog(e encodedLog, since []Hop) ([]Hop, []Reroute) {
	hops := make([]Hop, 0, e.hops+len(since))
	var reroutes []Reroute
	walkLog(e.raw, func(server []byte, arrive, depart time.Time) {
		hops = append(hops, Hop{Server: string(server), Arrive: arrive, Depart: depart})
	}, func(visit, policy, detail []byte, at time.Time) {
		reroutes = append(reroutes, Reroute{Visit: string(visit), Policy: string(policy), Detail: string(detail), At: at})
	})
	return append(hops, since...), reroutes
}

// DecodeLogBinary consumes one navigation log from b and returns the rest.
// The log is checked in full but stays encoded until first read: it keeps
// a view of b, which the caller must not change afterwards.
func DecodeLogBinary(b []byte) (*NavigationLog, []byte, error) {
	e, rest, err := walkLog(b, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return &NavigationLog{enc: e}, rest, nil
}

// ---- Record ----

// AppendBinary appends the record's binary form to dst:
//
//	['N' 'R'] [version byte]
//	[NapletID] [Credential] [string codebase] [string home]
//	[Visit pending] [uvarint n] n×[opt Pattern alt]
//	[string failover] [uvarint cloneSeq]
//	[section Itinerary] [section AddressBook] [section NavigationLog]
//	[bool] [State, to the end of the record]
//
// where a section is [uvarint len+1] [len bytes], or [0] when absent, so a
// reader can pass one by without decoding it. The state, usually the
// largest part, comes last and needs no length: the record's end
// delimits it.
func (r *Record) AppendBinary(dst []byte) []byte {
	dst = append(dst, recordMagic[0], recordMagic[1], RecordCodecVersion)
	dst = r.ID.AppendBinary(dst)
	dst = r.Credential.AppendBinary(dst)
	dst = wire.AppendString(dst, r.Codebase)
	dst = wire.AppendString(dst, r.Home)
	dst = r.Pending.AppendBinary(dst)
	dst = wire.AppendSeq(dst, r.PendingAlts, itinerary.AppendOptPattern)
	dst = wire.AppendString(dst, string(r.Failover))
	dst = wire.AppendUvarint(dst, uint64(r.CloneSeq))
	dst = appendSection(dst, r.Itin != nil, r.Itin)
	dst = appendSection(dst, r.Book != nil, r.Book)
	dst = appendSection(dst, r.Log != nil, r.Log)
	dst = wire.AppendBool(dst, r.State != nil)
	if r.State != nil {
		dst = r.State.AppendBinary(dst)
	}
	return dst
}

// appendSection appends body as a length-delimited section, or the absent
// mark. The length is not known until body is written, so one byte is
// reserved for it and the body moved along in the rare case that its
// length needs more (a section of 127 bytes or longer).
func appendSection(dst []byte, present bool, body wire.BinaryBody) []byte {
	if !present {
		return append(dst, 0)
	}
	at := len(dst)
	dst = body.AppendBinary(append(dst, 0))
	n := len(dst) - at - 1
	var prefix [binary.MaxVarintLen64]byte
	p := binary.PutUvarint(prefix[:], uint64(n)+1)
	if p > 1 {
		dst = append(dst, prefix[1:p]...)
		copy(dst[at+p:], dst[at+1:at+1+n])
	}
	copy(dst[at:], prefix[:p])
	return dst
}

// decSection consumes one section mark and returns the section's bytes,
// or nil when it is absent.
func decSection(b []byte) (section, rest []byte, err error) {
	n, b, err := wire.DecUvarint(b)
	if err != nil || n == 0 {
		return nil, b, err
	}
	if n-1 > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: record section overruns the record", wire.ErrMalformed)
	}
	return b[:n-1], b[n-1:], nil
}

// whole checks that a section decoder consumed its section exactly.
func whole(rest []byte, err error) error {
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d bytes left in a record section", wire.ErrMalformed, len(rest))
	}
	return err
}

// ErrRecordVersion rejects a record of a codec version this build does not
// read: each version has one decoder, and only the current one is kept.
var ErrRecordVersion = errors.New("naplet: unsupported record codec version")

// DecodeRecordBinary decodes a record produced by AppendBinary. It
// consumes all of data; trailing bytes are an error (records travel
// length-delimited inside transfer bodies and dock snapshots).
//
// Every section is checked here, but none is decoded: the itinerary, the
// state, the address book and the navigation log keep views of one
// private copy of their bytes — data may be a pooled read buffer — and
// decode on the first access that needs them, re-emitting the bytes
// verbatim until then. Stepping the itinerary over a visit and writing a
// state key decode only the visit and the key.
func DecodeRecordBinary(data []byte) (*Record, error) {
	if len(data) < 3 || data[0] != recordMagic[0] || data[1] != recordMagic[1] {
		return nil, fmt.Errorf("%w: missing record magic", wire.ErrMalformed)
	}
	if data[2] != RecordCodecVersion {
		return nil, fmt.Errorf("%w %d", ErrRecordVersion, data[2])
	}
	b := data[3:]
	r := new(Record)
	var err error
	idEnc := b
	if r.ID, b, err = id.DecodeBinary(b); err != nil {
		return nil, err
	}
	idEnc = idEnc[:len(idEnc)-len(b)]
	if r.Credential, b, err = cred.DecodeBinaryOf(b, r.ID, idEnc); err != nil {
		return nil, err
	}
	if r.Codebase, b, err = wire.DecString(b); err != nil {
		return nil, err
	}
	if r.Home, b, err = wire.DecString(b); err != nil {
		return nil, err
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
	// The sections close the record: the one copy of them is what the
	// itinerary, state, book and log keep.
	b = bytes.Clone(b)
	var sec []byte
	if sec, b, err = decSection(b); err != nil {
		return nil, err
	} else if sec != nil {
		if r.Itin, err = itinerary.DecodeBinary(sec); err != nil {
			return nil, err
		}
	}
	if sec, b, err = decSection(b); err != nil {
		return nil, err
	} else if sec != nil {
		r.Book, sec, err = DecodeBookBinary(sec)
		if err = whole(sec, err); err != nil {
			return nil, err
		}
	}
	if sec, b, err = decSection(b); err != nil {
		return nil, err
	} else if sec != nil {
		r.Log, sec, err = DecodeLogBinary(sec)
		if err = whole(sec, err); err != nil {
			return nil, err
		}
	}
	present, b, err := wire.DecBool(b)
	if err == nil && present {
		r.State, b, err = state.DecodeBinary(b)
	}
	if err == nil && len(b) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes after record", wire.ErrMalformed, len(b))
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}
