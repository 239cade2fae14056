package id

import (
	"strconv"
	"time"

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
	owner, host, created, cnt, b, err := decodeHead(b)
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

// AppendKey consumes one identifier from b, accepting exactly what
// DecodeBinary accepts, and appends its key — the text Key returns — to
// dst instead of building it: with room in dst, nothing is allocated. A
// reader that only checks the order of identifiers (an address book left
// encoded) compares keys this way.
func AppendKey(dst, b []byte) ([]byte, []byte, error) {
	owner, host, created, cnt, b, err := decodeHead(b)
	if err != nil {
		return nil, nil, err
	}
	if len(owner) == 0 && len(host) == 0 && created.IsZero() && cnt == 0 {
		return dst, b, nil
	}
	dst = appendText(dst, owner, host, created)
	for i := 0; i < cnt; i++ {
		g, rest, err := wire.DecUvarint(b)
		if err != nil {
			return nil, nil, err
		}
		sep := byte('.')
		if i == 0 {
			sep = ':'
		}
		dst = strconv.AppendInt(append(dst, sep), int64(int(g)), 10)
		b = rest
	}
	return dst, b, nil
}

// decodeHead consumes an identifier up to its heritage: owner and host as
// views into b, the creation time, and the count of generations that
// follow.
func decodeHead(b []byte) (owner, host []byte, created time.Time, cnt int, rest []byte, err error) {
	if owner, b, err = wire.DecBytes(b); err != nil {
		return
	}
	if host, b, err = wire.DecBytes(b); err != nil {
		return
	}
	if created, b, err = wire.DecTime(b); err != nil {
		return
	}
	cnt, rest, err = wire.DecCount(b, 1)
	return
}
