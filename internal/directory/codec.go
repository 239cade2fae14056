package directory

import (
	"repro/internal/id"
	"repro/internal/wire"
)

// Binary codecs for the directory-protocol bodies, following the migration
// codec conventions (DESIGN.md §11): a leading version byte, no
// reflection, exact-size allocation; a payload that starts with any other
// byte is wire.ErrMalformed.

// bodyCodecVersion is the leading version byte of binary protocol bodies.
// Version 3 carries a closing dock's forwards in the deregister body.
const bodyCodecVersion = 3

// A RegisterBody and the Entry inside a ReplyBody carry the same fields in
// the same layout:
//
//	[NapletID] [uvarint event] [string server] [time at] [uvarint seq]

func appendEntry(dst []byte, e *Entry) []byte {
	dst = e.NapletID.AppendBinary(dst)
	dst = wire.AppendUvarint(dst, uint64(e.Event))
	dst = wire.AppendString(dst, e.Server)
	dst = wire.AppendTime(dst, e.At)
	return wire.AppendUvarint(dst, e.Seq)
}

func decodeEntry(e *Entry, rest []byte) (err error) {
	if e.NapletID, rest, err = id.DecodeBinary(rest); err != nil {
		return err
	}
	ev, rest, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	if ev != uint64(Arrival) {
		return wire.ErrMalformed
	}
	e.Event = Event(ev)
	if e.Server, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	if e.At, rest, err = wire.DecTime(rest); err != nil {
		return err
	}
	e.Seq, _, err = wire.DecUvarint(rest)
	return err
}

// AppendBinary appends the body's binary form to dst.
func (b *RegisterBody) AppendBinary(dst []byte) []byte {
	return appendEntry(append(dst, bodyCodecVersion), (*Entry)(b))
}

// Decode parses a register payload.
func (b *RegisterBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	return decodeEntry((*Entry)(b), rest)
}

// AppendBinary appends the body's binary form to dst.
func (b *LookupBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	return b.NapletID.AppendBinary(dst)
}

// Decode parses a lookup payload.
func (b *LookupBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	b.NapletID, _, err = id.DecodeBinary(rest)
	return err
}

// A DeregisterBody is the server and its forwards:
//
//	[string server] [uvarint n] n×([NapletID] [string server] [uvarint seq])

// AppendBinary appends the body's binary form to dst.
func (b *DeregisterBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendString(dst, b.Server)
	return wire.AppendSeq(dst, b.Moved, func(dst []byte, f Forward) []byte {
		dst = f.NapletID.AppendBinary(dst)
		dst = wire.AppendString(dst, f.Server)
		return wire.AppendUvarint(dst, f.Seq)
	})
}

// Decode parses a deregister payload.
func (b *DeregisterBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	server, rest, err := wire.DecString(rest)
	if err != nil {
		return err
	}
	moved, _, err := wire.DecSeq(rest, 3, decodeForward)
	if err != nil {
		return err
	}
	b.Server, b.Moved = server, moved
	return nil
}

func decodeForward(b []byte) (f Forward, _ []byte, err error) {
	if f.NapletID, b, err = id.DecodeBinary(b); err != nil {
		return Forward{}, nil, err
	}
	if f.Server, b, err = wire.DecString(b); err != nil {
		return Forward{}, nil, err
	}
	f.Seq, b, err = wire.DecUvarint(b)
	return f, b, err
}

// AppendBinary appends the body's binary form to dst. A not-found reply
// carries no entry bytes.
func (b *ReplyBody) AppendBinary(dst []byte) []byte {
	dst = wire.AppendBool(append(dst, bodyCodecVersion), b.Found)
	if !b.Found {
		return dst
	}
	return appendEntry(dst, &b.Entry)
}

// Decode parses a reply payload.
func (b *ReplyBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Found, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	b.Entry = Entry{}
	if !b.Found {
		return nil
	}
	return decodeEntry(&b.Entry, rest)
}
