package itinerary

import (
	"fmt"

	"repro/internal/wire"
)

// Binary codec for visits, pattern trees, and itineraries. Layout:
//
//	Visit    [string server] [string guard] [string action]
//	Pattern  [uvarint kind] then, for Singleton, [Visit];
//	         otherwise [uvarint n] n×[Pattern]
//	OptPattern  [bool present] [Pattern if present]
//	Itinerary   [Pattern remaining], or nothing once done
//
// Pattern trees are recursive; decoding caps the nesting depth so hostile
// input cannot blow the stack.

// maxPatternDepth bounds decoded pattern-tree nesting. Real itineraries
// are a handful of levels; the cap only exists for decoder safety.
const maxPatternDepth = 512

// AppendBinary appends the visit's binary form to dst.
func (v Visit) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, v.Server)
	dst = wire.AppendString(dst, v.Guard)
	return wire.AppendString(dst, v.Action)
}

// DecodeVisit consumes one visit from b and returns the rest.
func DecodeVisit(b []byte) (Visit, []byte, error) {
	var v Visit
	var err error
	if v.Server, b, err = wire.DecString(b); err != nil {
		return Visit{}, nil, err
	}
	if v.Guard, b, err = wire.DecString(b); err != nil {
		return Visit{}, nil, err
	}
	if v.Action, b, err = wire.DecString(b); err != nil {
		return Visit{}, nil, err
	}
	return v, b, nil
}

// AppendBinary appends the pattern tree's binary form to dst. The pattern
// must be non-nil.
func (p *Pattern) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(p.Kind))
	if p.Kind == KindSingleton {
		return p.V.AppendBinary(dst)
	}
	dst = wire.AppendUvarint(dst, uint64(len(p.Subs)))
	for _, s := range p.Subs {
		dst = s.AppendBinary(dst)
	}
	return dst
}

// DecodePattern consumes one pattern tree from b and returns the rest.
func DecodePattern(b []byte) (*Pattern, []byte, error) {
	p := new(Pattern)
	rest, err := decodePattern(p, b, 0)
	if err != nil {
		return nil, nil, err
	}
	return p, rest, nil
}

// decodePattern fills p from b. A node's operands are decoded into one
// block, so a tour of n remaining stops costs the block and its pointer
// slice, not n separate nodes.
func decodePattern(p *Pattern, b []byte, depth int) ([]byte, error) {
	if depth > maxPatternDepth {
		return nil, fmt.Errorf("%w: pattern nesting exceeds %d", wire.ErrMalformed, maxPatternDepth)
	}
	kind, b, err := wire.DecUvarint(b)
	if err != nil {
		return nil, err
	}
	p.Kind = Kind(kind)
	switch p.Kind {
	case KindSingleton:
		p.V, b, err = DecodeVisit(b)
		return b, err
	case KindSeq, KindAlt, KindPar:
		cnt, b, err := wire.DecCount(b, 1)
		if err != nil || cnt == 0 {
			return b, err
		}
		block := make([]Pattern, cnt)
		p.Subs = make([]*Pattern, cnt)
		for i := range block {
			p.Subs[i] = &block[i]
			if b, err = decodePattern(&block[i], b, depth+1); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return nil, fmt.Errorf("%w: unknown pattern kind %d", wire.ErrMalformed, kind)
	}
}

// AppendOptPattern appends a presence-flagged, possibly-nil pattern.
func AppendOptPattern(dst []byte, p *Pattern) []byte {
	dst = wire.AppendBool(dst, p != nil)
	if p != nil {
		dst = p.AppendBinary(dst)
	}
	return dst
}

// DecodeOptPattern consumes one presence-flagged pattern from b.
func DecodeOptPattern(b []byte) (*Pattern, []byte, error) {
	present, b, err := wire.DecBool(b)
	if err != nil {
		return nil, nil, err
	}
	if !present {
		return nil, b, nil
	}
	return DecodePattern(b)
}

// AppendBinary appends the itinerary's binary form to dst: its remaining
// pattern, or nothing once it is done. An itinerary travels as a
// length-delimited record section, whose length tells the two apart. Safe
// on a nil receiver: a nil itinerary encodes like an exhausted one.
func (it *Itinerary) AppendBinary(dst []byte) []byte {
	if it.Done() {
		return dst
	}
	return it.Remaining.AppendBinary(dst)
}

// DecodeBinary decodes an itinerary from all of b.
func DecodeBinary(b []byte) (*Itinerary, error) {
	if len(b) == 0 {
		return &Itinerary{}, nil
	}
	p, rest, err := DecodePattern(b)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d bytes after the itinerary", wire.ErrMalformed, len(rest))
	}
	if err != nil {
		return nil, err
	}
	return &Itinerary{Remaining: p}, nil
}
