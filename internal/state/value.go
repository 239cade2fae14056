package state

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/wire"
)

// The value codec: what may travel in a NapletState container is this
// closed set of types, each encoded as one tag byte plus a payload built
// from the wire primitives. Get returns the concrete Go type that was
// stored; anything outside the set is ErrUnsupportedType at Set time.
// Tags are pinned by testdata/state_values_v2.hex.
//
//	tag  Go type              payload
//	 1   string               [string]
//	 2   int                  [varint]
//	 3   int64                [varint]
//	 4   float64              8 bytes, big-endian IEEE 754 bits
//	 5   bool                 [bool]
//	 6   []byte               [bytes]
//	 7   []string             [uvarint n] n×[string]
//	 8   []int                [uvarint n] n×[varint]
//	 9   []any                [uvarint n] n×[value]
//	10   map[string]string    [uvarint n] n×([key] [string])
//	11   map[string][]string  [uvarint n] n×([key] [[]string payload])
//	12   map[string]any       [uvarint n] n×([key] [value])
//
// Maps are wire.AppendMap's: keys ascending, each front-coded against the
// one before it as [byte shared] [string suffix]. Empty slices decode to
// nil, empty maps to non-nil empty maps (agents write into a map they just
// loaded).
const (
	tagString byte = iota + 1
	tagInt
	tagInt64
	tagFloat64
	tagBool
	tagBytes
	tagStrings
	tagInts
	tagList
	tagStringMap
	tagStringsMap
	tagMap
)

// maxValueDepth caps how many []any and map[string]any containers may
// enclose a value, on encode and decode alike: records arrive off a
// socket, and a decoder that recurses as deep as its input says is a
// stack-exhaustion target.
const maxValueDepth = 16

// valueBufPool recycles the scratch buffers values are encoded into, so a
// stored payload is one exact-size allocation whatever the value's shape.
var valueBufPool = sync.Pool{New: func() any { return new([]byte) }}

// encodeValue returns the tagged encoding of v in a fresh slice.
func encodeValue(v any) ([]byte, error) {
	if v == nil {
		return nil, ErrNilValue
	}
	bp := valueBufPool.Get().(*[]byte)
	defer valueBufPool.Put(bp)
	var enc valueEncoder
	*bp = enc.append((*bp)[:0], v, 0)
	if enc.err != nil {
		return nil, enc.err
	}
	return append([]byte(nil), *bp...), nil
}

// valueEncoder remembers that an encoding pass met a value it cannot
// carry, which lets the recursive appender keep the error-free signature
// wire's helpers take.
type valueEncoder struct{ err error }

func (e *valueEncoder) append(dst []byte, v any, depth int) []byte {
	switch x := v.(type) {
	case string:
		return wire.AppendString(append(dst, tagString), x)
	case int:
		return appendInt(append(dst, tagInt), x)
	case int64:
		return wire.AppendVarint(append(dst, tagInt64), x)
	case float64:
		return binary.BigEndian.AppendUint64(append(dst, tagFloat64), math.Float64bits(x))
	case bool:
		return wire.AppendBool(append(dst, tagBool), x)
	case []byte:
		return wire.AppendBytes(append(dst, tagBytes), x)
	case []string:
		return wire.AppendStrings(append(dst, tagStrings), x)
	case []int:
		return wire.AppendSeq(append(dst, tagInts), x, appendInt)
	case map[string]string:
		return wire.AppendStringMap(append(dst, tagStringMap), x)
	case map[string][]string:
		return wire.AppendMap(append(dst, tagStringsMap), x, wire.AppendStrings)
	}
	// What is left nests, or is not transportable.
	nested := func(dst []byte, v any) []byte { return e.append(dst, v, depth+1) }
	switch x := v.(type) {
	case []any:
		if depth < maxValueDepth {
			return wire.AppendSeq(append(dst, tagList), x, nested)
		}
	case map[string]any:
		if depth < maxValueDepth {
			return wire.AppendMap(append(dst, tagMap), x, nested)
		}
	default:
		e.err = fmt.Errorf("%w: %T", ErrUnsupportedType, v)
		return dst
	}
	e.err = fmt.Errorf("%w: nested deeper than %d", ErrUnsupportedType, maxValueDepth)
	return dst
}

func appendInt(dst []byte, n int) []byte { return wire.AppendVarint(dst, int64(n)) }

func decInt(b []byte) (int, []byte, error) {
	n, rest, err := wire.DecVarint(b)
	return int(n), rest, err
}

// decodeValue consumes one tagged value from b and returns the rest. The
// result does not alias b.
func decodeValue(b []byte, depth int) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, wire.ErrMalformed
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagString:
		return boxed(wire.DecString(b))
	case tagInt:
		return boxed(decInt(b))
	case tagInt64:
		return boxed(wire.DecVarint(b))
	case tagFloat64:
		if len(b) < 8 {
			return nil, nil, wire.ErrMalformed
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
	case tagBool:
		return boxed(wire.DecBool(b))
	case tagBytes:
		p, rest, err := wire.DecBytes(b)
		return append([]byte(nil), p...), rest, err
	case tagStrings:
		return boxed(wire.DecStrings(b))
	case tagInts:
		return boxed(wire.DecSeq(b, 1, decInt))
	case tagStringMap:
		return boxed(wire.DecStringMap(b))
	case tagStringsMap:
		return boxed(wire.DecMap(b, wire.DecStrings))
	case tagList, tagMap:
		if depth >= maxValueDepth {
			return nil, nil, fmt.Errorf("%w: value nested deeper than %d", wire.ErrMalformed, maxValueDepth)
		}
		nested := func(b []byte) (any, []byte, error) { return decodeValue(b, depth+1) }
		if tag == tagList {
			return boxed(wire.DecSeq(b, 2, nested)) // a value is a tag and at least one byte
		}
		return boxed(wire.DecMap(b, nested))
	}
	return nil, nil, fmt.Errorf("%w: unknown value tag %d", wire.ErrMalformed, tag)
}

// boxed adapts a typed decoder's result to decodeValue's.
func boxed[T any](v T, rest []byte, err error) (any, []byte, error) {
	return v, rest, err
}

// decodePayload decodes a stored entry payload, which must hold exactly
// one value.
func decodePayload(payload []byte) (any, error) {
	v, rest, err := decodeValue(payload, 0)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return v, nil
}

// Walk reads a stored []string or map[string]string where its encoding
// lies — in the record the naplet landed with, or in the payload Set
// wrote — one element at a time, allocating nothing: a caller that only
// re-emits the elements (joins a list into a line, splices a map into a
// report) pays for no Go value. WalkStrings and WalkStringMap check the
// whole payload first by the rules decodeValue applies, so Next cannot
// fail part-way. What Value and AppendKey hand over is a view of the
// state's bytes, which nothing writes: replacing the entry leaves it good.
type Walk struct {
	mapped bool         // a map[string]string: each element is a key and a value
	n      int          // elements
	left   int          // elements not yet read
	rest   []byte       // what follows the current element
	keys   wire.MapKeys // the current key, for a map
	value  []byte       // the current element, or the current key's value
}

// WalkStrings starts a walk over the []string stored under key. It fails
// where Load into a *[]string fails: ErrNoSuchKey for a missing key, and
// ErrBadPayload for a value of another type or bytes that do not decode
// (wire.ErrMalformed too, then).
func (s *State) WalkStrings(key string) (Walk, error) { return s.walk(key, tagStrings) }

// WalkStringMap starts a walk over the map[string]string stored under key,
// in ascending key order. It fails where Load into a *map[string]string
// fails, as WalkStrings does.
func (s *State) WalkStringMap(key string) (Walk, error) { return s.walk(key, tagStringMap) }

func (s *State) walk(key string, tag byte) (Walk, error) {
	s.mu.RLock()
	e, ok := s.lookup(key)
	s.mu.RUnlock()
	if !ok {
		return Walk{}, fmt.Errorf("%w: %q", ErrNoSuchKey, key)
	}
	w := Walk{mapped: tag == tagStringMap}
	want, minElem := "[]string", 1 // a string's length
	if w.mapped {
		want, minElem = "map[string]string", 3 // shared, suffix length, and the value's length
	}
	if len(e.Payload) == 0 || e.Payload[0] != tag {
		return Walk{}, fmt.Errorf("%w: %q does not hold a %s", ErrBadPayload, key, want)
	}
	var err error
	if w.n, w.rest, err = wire.DecCount(e.Payload[1:], minElem); err == nil {
		w.left = w.n
		check := w
		for check.left > 0 && err == nil {
			err = check.next()
		}
		if err == nil && len(check.rest) != 0 {
			err = fmt.Errorf("%d trailing bytes", len(check.rest))
		}
	}
	if err != nil {
		return Walk{}, fmt.Errorf("%w: %w", ErrBadPayload, err)
	}
	return w, nil
}

// next reads one element.
func (w *Walk) next() (err error) {
	w.left--
	b := w.rest
	if w.mapped {
		if b, err = w.keys.Next(b); err != nil {
			return err
		}
	}
	w.value, w.rest, err = wire.DecBytes(b)
	return err
}

// Len returns how many elements the value holds.
func (w *Walk) Len() int { return w.n }

// Next moves to the next element; false once the value is done.
func (w *Walk) Next() bool {
	return w.left > 0 && w.next() == nil
}

// Value returns the current element of a list, or the current key's value
// of a map.
func (w *Walk) Value() []byte { return w.value }

// AppendKey appends the current key of a map to dst.
func (w *Walk) AppendKey(dst []byte) []byte { return w.keys.Append(dst) }
