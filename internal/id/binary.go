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
//
// owner and host are read as views into b and copied out by seal, once, as
// part of the identifier's text: the result never aliases b, which on the
// TCP fabric is a pooled read buffer.
func DecodeBinary(b []byte) (NapletID, []byte, error) {
	owner, b, err := wire.DecBytes(b)
	if err != nil {
		return NapletID{}, nil, err
	}
	host, b, err := wire.DecBytes(b)
	if err != nil {
		return NapletID{}, nil, err
	}
	created, b, err := wire.DecTime(b)
	if err != nil {
		return NapletID{}, nil, err
	}
	cnt, b, err := wire.DecCount(b, 1)
	if err != nil {
		return NapletID{}, nil, err
	}
	var heritage Heritage
	if cnt > 0 {
		heritage = make(Heritage, cnt)
		for i := range heritage {
			g, rest, err := wire.DecUvarint(b)
			if err != nil {
				return NapletID{}, nil, err
			}
			heritage[i] = int(g)
			b = rest
		}
	}
	if len(owner) == 0 && len(host) == 0 && created.IsZero() && cnt == 0 {
		return NapletID{}, b, nil
	}
	return seal(owner, host, created, heritage), b, nil
}
