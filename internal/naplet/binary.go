package naplet

import (
	"fmt"

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
// Version 2 carries state values in the tagged value codec.
const RecordCodecVersion = 2

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
	for i := 0; i < cnt; i++ {
		nid, rest, err := id.DecodeBinary(b)
		if err != nil {
			return nil, nil, err
		}
		urn, rest, err := wire.DecString(rest)
		if err != nil {
			return nil, nil, err
		}
		book.entries[nid.Key()] = AddressEntry{NapletID: nid, ServerURN: urn}
		b = rest
	}
	return book, b, nil
}

// ---- NavigationLog ----

// EncodedSize returns the exact binary-encoded size of the log.
func (l *NavigationLog) EncodedSize() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	sz := wire.SizeUvarint(uint64(len(l.hops)))
	for _, h := range l.hops {
		sz += wire.SizeString(h.Server) + wire.SizeTime(h.Arrive) + wire.SizeTime(h.Depart)
	}
	sz += wire.SizeUvarint(uint64(len(l.reroutes)))
	for _, r := range l.reroutes {
		sz += wire.SizeString(r.Visit) + wire.SizeString(r.Policy) +
			wire.SizeString(r.Detail) + wire.SizeTime(r.At)
	}
	return sz
}

// AppendBinary appends the log's binary form to dst.
func (l *NavigationLog) AppendBinary(dst []byte) []byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	dst = wire.AppendUvarint(dst, uint64(len(l.hops)))
	for _, h := range l.hops {
		dst = wire.AppendString(dst, h.Server)
		dst = wire.AppendTime(dst, h.Arrive)
		dst = wire.AppendTime(dst, h.Depart)
	}
	dst = wire.AppendUvarint(dst, uint64(len(l.reroutes)))
	for _, r := range l.reroutes {
		dst = wire.AppendString(dst, r.Visit)
		dst = wire.AppendString(dst, r.Policy)
		dst = wire.AppendString(dst, r.Detail)
		dst = wire.AppendTime(dst, r.At)
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
	if hcnt > 0 {
		log.hops = make([]Hop, hcnt)
		for i := range log.hops {
			h := &log.hops[i]
			if h.Server, b, err = wire.DecString(b); err != nil {
				return nil, nil, err
			}
			if h.Arrive, b, err = wire.DecTime(b); err != nil {
				return nil, nil, err
			}
			if h.Depart, b, err = wire.DecTime(b); err != nil {
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
			if r.At, b, err = wire.DecTime(b); err != nil {
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
