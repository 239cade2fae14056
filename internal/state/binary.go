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

func appendEntry(dst []byte, e entry) []byte {
	dst = wire.AppendUvarint(dst, uint64(e.Mode))
	dst = wire.AppendStrings(dst, e.Servers)
	return wire.AppendBytes(dst, e.Payload)
}

// decodeEntry copies the payload, so the entry does not alias b.
func decodeEntry(b []byte) (entry, []byte, error) {
	var e entry
	mode, b, err := wire.DecUvarint(b)
	if err != nil {
		return entry{}, nil, err
	}
	if mode > uint64(Public) {
		return entry{}, nil, fmt.Errorf("%w: state mode %d", wire.ErrMalformed, mode)
	}
	e.Mode = Mode(mode)
	if e.Servers, b, err = wire.DecStrings(b); err != nil {
		return entry{}, nil, err
	}
	payload, b, err := wire.DecBytes(b)
	if err != nil {
		return entry{}, nil, err
	}
	if payload != nil {
		e.Payload = append([]byte(nil), payload...)
	}
	return e, b, nil
}

// EncodedSize returns the length of the container's encoding.
func (s *State) EncodedSize() int {
	return len(s.AppendBinary(nil))
}

// AppendBinary appends the container's binary form to dst.
func (s *State) AppendBinary(dst []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return wire.AppendMap(dst, s.entries, appendEntry)
}

// DecodeBinary consumes one container from b and returns the rest.
func DecodeBinary(b []byte) (*State, []byte, error) {
	entries, b, err := wire.DecMap(b, decodeEntry)
	if err != nil {
		return nil, nil, err
	}
	return &State{entries: entries}, b, nil
}
