package id

import (
	"repro/internal/wire"
)

// The binary codec lives inside package id because the identifier's fields
// are private by design (immutability). The layout, per DESIGN.md §11:
//
//	[string owner] [string host] [time created] [uvarint n] n×[uvarint gen]
//
// Identifiers are embedded unversioned; the container that carries them
// (record, credential, snapshot) owns the version byte.

// AppendBinary appends the identifier's binary form to dst.
func (n NapletID) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, n.owner)
	dst = wire.AppendString(dst, n.host)
	dst = wire.AppendTime(dst, n.created)
	dst = wire.AppendUvarint(dst, uint64(len(n.heritage)))
	for _, g := range n.heritage {
		dst = wire.AppendUvarint(dst, uint64(g))
	}
	return dst
}

// DecodeBinary consumes one identifier from b and returns the rest. Unlike
// Parse it accepts the zero identifier (empty owner and host), which is a
// legal embedded value (e.g. Message.From on control messages).
func DecodeBinary(b []byte) (NapletID, []byte, error) {
	var n NapletID
	var err error
	if n.owner, b, err = wire.DecString(b); err != nil {
		return NapletID{}, nil, err
	}
	if n.host, b, err = wire.DecString(b); err != nil {
		return NapletID{}, nil, err
	}
	if n.created, b, err = wire.DecTime(b); err != nil {
		return NapletID{}, nil, err
	}
	cnt, b, err := wire.DecCount(b, 1)
	if err != nil {
		return NapletID{}, nil, err
	}
	if cnt > 0 {
		n.heritage = make(Heritage, cnt)
		for i := range n.heritage {
			g, rest, err := wire.DecUvarint(b)
			if err != nil {
				return NapletID{}, nil, err
			}
			n.heritage[i] = int(g)
			b = rest
		}
	}
	return n, b, nil
}
