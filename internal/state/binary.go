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
// A decoded container stays encoded (State.raw) until something needs more
// than one key of it; keys written meanwhile lie over it (State.written).
// Everything that reads those bytes reads them through one cursor: the
// check DecodeBinary makes, the search a Get makes, the merge AppendBinary
// makes with what was written, and the decode a delete or a listing forces.

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

// decodeEntries builds the entry map of the encoded container raw, which
// DecodeBinary has checked, with room for extra more.
func decodeEntries(raw []byte, extra int) map[string]entry {
	c, _ := newCursor(raw)
	entries := make(map[string]entry, c.left+extra)
	for ok, _ := c.next(); ok; ok, _ = c.next() {
		entries[c.keys.String()] = c.entry()
	}
	return entries
}

// EncodedSize returns the length of the container's encoding.
func (s *State) EncodedSize() int {
	return len(s.AppendBinary(nil))
}

// AppendBinary appends the container's binary form to dst: the bytes it
// was decoded from, while nothing has changed it, and what decoding them
// and encoding the entries would write once something has.
func (s *State) AppendBinary(dst []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch {
	case s.entries != nil:
		return wire.AppendMap(dst, s.entries, appendEntry)
	case len(s.written) == 0:
		return append(dst, s.raw...)
	default:
		return s.appendMerged(dst)
	}
}

// appendMerged appends raw with written laid over it: the two sorted runs
// merged by key, a written entry replacing raw's under the same key, and
// every key front-coded against the one before it as wire.AppendMap codes
// it. Callers hold the read lock.
func (s *State) appendMerged(dst []byte) []byte {
	c, _ := newCursor(s.raw)
	dst = wire.AppendUvarint(dst, uint64(c.left+s.added))
	// The key written last and the one being written, on the stack while
	// they fit.
	var bufs [2][64]byte
	prev, key := bufs[0][:0], bufs[1][:0]
	w := s.written
	more, _ := c.next()
	for more || len(w) > 0 {
		var e entry
		if more {
			key = c.keys.Append(key[:0])
		}
		if more && (len(w) == 0 || string(key) < w[0].key) {
			e = c.entry()
			more, _ = c.next()
		} else {
			if more && string(key) == w[0].key {
				more, _ = c.next()
			}
			key, e = append(key[:0], w[0].key...), w[0].entry
			w = w[1:]
		}
		dst = appendEntry(wire.AppendMapKey(dst, prev, key), e)
		prev, key = key, prev
	}
	return dst
}

// DecodeBinary consumes one container from b and returns the rest. The
// container is checked in full but stays encoded: the state keeps a view
// of b, which the caller must not change afterwards, and decodes it when
// first written or listed. Payloads, decoded or not, alias b.
func DecodeBinary(b []byte) (*State, []byte, error) {
	n, err := scan(b)
	if err != nil {
		return nil, nil, err
	}
	return &State{raw: b[:n:n]}, b[n:], nil
}
