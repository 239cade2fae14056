package messenger

import (
	"repro/internal/naplet"
	"repro/internal/wire"
)

// Binary codecs for the post-protocol bodies, mirroring the navigator
// bodies: a leading version byte, and any other first byte is
// wire.ErrMalformed.

// bodyCodecVersion is the leading version byte of binary message bodies.
const bodyCodecVersion = 1

// AppendBinary appends the body's binary form to dst.
func (b *PostBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = b.Msg.AppendBinary(dst)
	return wire.AppendUvarint(dst, uint64(b.Hops))
}

// Decode parses a post payload.
func (b *PostBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Msg, rest, err = naplet.DecodeMessageBinary(rest); err != nil {
		return err
	}
	hops, _, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	b.Hops = int(hops)
	return nil
}

// AppendBinary appends the body's binary form to dst.
func (b *ConfirmBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendBool(dst, b.Delivered)
	dst = wire.AppendBool(dst, b.Held)
	dst = wire.AppendString(dst, b.Server)
	return wire.AppendUvarint(dst, uint64(b.Hops))
}

// Decode parses a confirm payload.
func (b *ConfirmBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Delivered, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	if b.Held, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	if b.Server, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	hops, _, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	b.Hops = int(hops)
	return nil
}
