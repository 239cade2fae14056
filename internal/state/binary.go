package state

import (
	"fmt"

	"repro/internal/wire"
)

// Binary codec for the state container. Each entry's Payload is the value
// codec's encoding of the stored value (value.go) and travels as an opaque
// length-prefixed byte string: a dock forwards values it never decodes.
// Layout:
//
//	[uvarint n] then n× (ascending by key):
//	  [key] [uvarint mode] [uvarint s] s×[string server] [bytes payload]
//
// The container is a wire.AppendMap: keys ascending, so the encoding is
// deterministic (the golden-byte and encode→decode→encode tests rely on
// it), and front-coded, each as [byte shared] [string suffix] against the
// key before it — an agent's keys tend to share their start.
//
// A state is this encoding (State.raw) with the keys written since laid
// over it (State.written). Everything that reads those bytes reads them
// through one cursor: the check DecodeBinary makes, the search a Get makes,
// and the merged walk of a listing or of AppendBinary.

func appendEntry(dst []byte, e entry) []byte {
	dst = wire.AppendUvarint(dst, uint64(e.Mode))
	if len(e.Servers) == 0 {
		dst = append(dst, 0) // an empty allow list
	} else {
		dst = append(dst, e.Servers...)
	}
	return wire.AppendBytes(dst, e.Payload)
}

// cursor steps through an encoded container one entry at a time, checking
// each as it goes and allocating nothing: the key is a wire.MapKeys, the
// allow list and payload are views into the container.
type cursor struct {
	keys    wire.MapKeys
	left    int    // entries not yet read
	rest    []byte // what follows the current entry
	mode    Mode
	servers []byte // the current entry's allow list, encoded
	payload []byte
}

func newCursor(b []byte) (cursor, error) {
	n, rest, err := wire.DecCount(b, 3) // shared, suffix length, and more
	return cursor{left: n, rest: rest}, err
}

// next reads the next entry; false when the container is done.
func (c *cursor) next() (bool, error) {
	if c.left == 0 {
		return false, nil
	}
	c.left--
	b, err := c.keys.Next(c.rest)
	if err != nil {
		return false, err
	}
	mode, b, err := wire.DecUvarint(b)
	if err != nil {
		return false, err
	}
	if mode > uint64(Public) {
		return false, fmt.Errorf("%w: state mode %d", wire.ErrMalformed, mode)
	}
	c.mode = Mode(mode)
	servers := b
	cnt, b, err := wire.DecCount(b, 1)
	for i := 0; i < cnt && err == nil; i++ {
		_, b, err = wire.DecBytes(b)
	}
	if err != nil {
		return false, err
	}
	c.servers = servers[:len(servers)-len(b)]
	if c.payload, c.rest, err = wire.DecBytes(b); err != nil {
		return false, err
	}
	return true, nil
}

// entry returns the current entry. Its allow list and payload alias the
// container.
func (c *cursor) entry() entry {
	return entry{Mode: c.mode, Servers: c.servers, Payload: c.payload}
}

// scan checks that b starts with one container and returns its length.
func scan(b []byte) (int, error) {
	c, err := newCursor(b)
	for ok := err == nil; ok; {
		ok, err = c.next()
	}
	if err != nil {
		return 0, err
	}
	return len(b) - len(c.rest), nil
}

// find looks key up in the encoded container raw.
func find(raw []byte, key string) (entry, bool) {
	c, err := newCursor(raw)
	for err == nil {
		var ok bool
		if ok, err = c.next(); !ok {
			break
		}
		if c.keys.Is(key) {
			return c.entry(), true
		}
	}
	return entry{}, false
}

// EncodedSize returns the length of the container's encoding.
func (s *State) EncodedSize() int {
	return len(s.AppendBinary(nil))
}

// AppendBinary appends the container's binary form to dst: the bytes it
// was decoded from, while nothing has been written over them, and their
// merge with what was written once something has.
func (s *State) AppendBinary(dst []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.written) == 0 {
		return append(dst, s.raw...)
	}
	return s.appendMerged(dst)
}

// appendMerged appends the merged run, every key front-coded against the
// one before it as wire.AppendMap codes it, so the bytes are those of the
// container encoded afresh. Callers hold the read lock.
func (s *State) appendMerged(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(s.count()))
	// The key being written and the one before it, on the stack while
	// they fit.
	var bufs [2][64]byte
	prev := bufs[1][:0]
	m := s.merge()
	for key, ok := m.next(bufs[0][:0]); ok; key, ok = m.next(key) {
		dst = appendEntry(wire.AppendMapKey(dst, prev, key), m.e)
		prev = append(prev[:0], key...)
	}
	return dst
}

// merged walks raw and written together as one run in key order: a
// written entry replaces raw's under its key, and a deleted one drops it.
type merged struct {
	c    cursor
	more bool    // c is at an entry not yet merged
	w    []keyed // what was written, not yet merged
	e    entry   // the current entry; its bytes alias the state's
}

// merge starts a merged walk. Callers hold the read lock.
func (s *State) merge() merged {
	c, _ := newCursor(s.raw)
	m := merged{c: c, w: s.written}
	m.more, _ = m.c.next()
	return m
}

// next moves to the next entry and returns its key, assembled in key[:0];
// false when both runs are done.
func (m *merged) next(key []byte) ([]byte, bool) {
	for m.more || len(m.w) > 0 {
		if m.more {
			key = m.c.keys.Append(key[:0])
		}
		if m.more && (len(m.w) == 0 || string(key) < m.w[0].key) {
			m.e = m.c.entry()
			m.more, _ = m.c.next()
			return key, true
		}
		if m.more && string(key) == m.w[0].key {
			m.more, _ = m.c.next()
		}
		w := &m.w[0]
		m.w = m.w[1:]
		if !w.gone {
			m.e = w.entry
			return append(key[:0], w.key...), true
		}
	}
	return key, false
}

// DecodeBinary consumes one container from b and returns the rest. The
// container is checked in full and stays encoded: the state keeps a view
// of b, which the caller must not change afterwards. Payloads alias b.
func DecodeBinary(b []byte) (*State, []byte, error) {
	n, err := scan(b)
	if err != nil {
		return nil, nil, err
	}
	return &State{raw: b[:n:n]}, b[n:], nil
}
