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
		return nil, errTooDeep
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
		if err != nil {
			return b, err
		}
		return decodeOperands(p, cnt, b, depth+1)
	default:
		return nil, unknownKind(kind)
	}
}

// decodeOperands decodes p's cnt operands from b, each at depth.
func decodeOperands(p *Pattern, cnt int, b []byte, depth int) ([]byte, error) {
	if cnt == 0 {
		return b, nil
	}
	block := make([]Pattern, cnt)
	p.Subs = make([]*Pattern, cnt)
	var err error
	for i := range block {
		p.Subs[i] = &block[i]
		if b, err = decodePattern(&block[i], b, depth); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// walkPattern checks one pattern tree at the start of b and returns the
// rest, allocating nothing: it accepts exactly what decodePattern does.
func walkPattern(b []byte, depth int) ([]byte, error) {
	if depth > maxPatternDepth {
		return nil, errTooDeep
	}
	kind, b, err := wire.DecUvarint(b)
	if err != nil {
		return nil, err
	}
	switch Kind(kind) {
	case KindSingleton:
		for i := 0; i < 3 && err == nil; i++ { // server, guard, action
			_, b, err = wire.DecBytes(b)
		}
		return b, err
	case KindSeq, KindAlt, KindPar:
		cnt, b, err := wire.DecCount(b, 1)
		for i := 0; i < cnt && err == nil; i++ {
			b, err = walkPattern(b, depth+1)
		}
		return b, err
	default:
		return nil, unknownKind(kind)
	}
}

var errTooDeep = fmt.Errorf("%w: pattern nesting exceeds %d", wire.ErrMalformed, maxPatternDepth)

func unknownKind(kind uint64) error {
	return fmt.Errorf("%w: unknown pattern kind %d", wire.ErrMalformed, kind)
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
// on a nil receiver: a nil itinerary encodes like an exhausted one. A plan
// still encoded is re-emitted as it lies, behind the Seq header Next
// re-wrote, which is what encoding the decoded tree would write.
func (it *Itinerary) AppendBinary(dst []byte) []byte {
	switch {
	case it.Done():
		return dst
	case it.tree != nil:
		return it.tree.AppendBinary(dst)
	case it.ops > 0:
		dst = wire.AppendUvarint(wire.AppendUvarint(dst, uint64(KindSeq)), uint64(it.ops))
	}
	return append(dst, it.enc...)
}

// DecodeBinary decodes an itinerary from all of b. The pattern is checked
// in full but stays encoded: the itinerary keeps a view of b, which the
// caller must not change afterwards, and Next decodes only the visits it
// hands out while the plan's head is a plain visit.
func DecodeBinary(b []byte) (*Itinerary, error) {
	if len(b) == 0 {
		return &Itinerary{}, nil
	}
	rest, err := walkPattern(b, 0)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d bytes after the itinerary", wire.ErrMalformed, len(rest))
	}
	if err != nil {
		return nil, err
	}
	return &Itinerary{enc: b[:len(b):len(b)]}, nil
}

// decodeRest decodes a plan still encoded: one pattern when ops is at most
// 1, otherwise the Seq of ops operands whose header was re-written. The
// bytes were checked when the itinerary was decoded.
func decodeRest(ops int, enc []byte) *Pattern {
	p := new(Pattern)
	if ops <= 1 {
		decodePattern(p, enc, 0)
	} else {
		p.Kind = KindSeq
		decodeOperands(p, ops, enc, 1)
	}
	return p
}
