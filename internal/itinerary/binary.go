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
//	Itinerary   [OptPattern remaining]
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
	return decodePattern(b, 0)
}

func decodePattern(b []byte, depth int) (*Pattern, []byte, error) {
	if depth > maxPatternDepth {
		return nil, nil, fmt.Errorf("%w: pattern nesting exceeds %d", wire.ErrMalformed, maxPatternDepth)
	}
	kind, b, err := wire.DecUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	switch Kind(kind) {
	case KindSingleton:
		v, rest, err := DecodeVisit(b)
		if err != nil {
			return nil, nil, err
		}
		return &Pattern{Kind: KindSingleton, V: v}, rest, nil
	case KindSeq, KindAlt, KindPar:
		cnt, rest, err := wire.DecCount(b, 1)
		if err != nil {
			return nil, nil, err
		}
		p := &Pattern{Kind: Kind(kind)}
		if cnt > 0 {
			p.Subs = make([]*Pattern, cnt)
			for i := range p.Subs {
				if p.Subs[i], rest, err = decodePattern(rest, depth+1); err != nil {
					return nil, nil, err
				}
			}
		}
		return p, rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown pattern kind %d", wire.ErrMalformed, kind)
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

// AppendBinary appends the itinerary's binary form to dst. Safe on a nil
// receiver: a nil itinerary encodes like an exhausted one.
func (it *Itinerary) AppendBinary(dst []byte) []byte {
	if it == nil {
		return AppendOptPattern(dst, nil)
	}
	return AppendOptPattern(dst, it.Remaining)
}

// DecodeBinary consumes one itinerary from b and returns the rest.
func DecodeBinary(b []byte) (*Itinerary, []byte, error) {
	p, b, err := DecodeOptPattern(b)
	if err != nil {
		return nil, nil, err
	}
	return &Itinerary{Remaining: p}, b, nil
}
