package locator

import (
	"repro/internal/id"
	"repro/internal/wire"
)

// Binary codecs for the locator-protocol bodies, per the migration codec
// conventions (DESIGN.md §11): a leading version byte, and any other first
// byte is wire.ErrMalformed.

// bodyCodecVersion is the leading version byte of binary protocol bodies.
const bodyCodecVersion = 1

// AppendBinary appends the body's binary form to dst.
func (b *QueryBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	return b.NapletID.AppendBinary(dst)
}

// Decode parses a query payload.
func (b *QueryBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	b.NapletID, _, err = id.DecodeBinary(rest)
	return err
}

// AppendBinary appends the body's binary form to dst.
func (b *ReplyBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendBool(dst, b.Found)
	return wire.AppendString(dst, b.Server)
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
	b.Server, _, err = wire.DecString(rest)
	return err
}

// AppendBinary appends the body's binary form to dst.
func (b *InvalidateBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = b.NapletID.AppendBinary(dst)
	return wire.AppendString(dst, b.Server)
}

// Decode parses an invalidate payload.
func (b *InvalidateBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.NapletID, rest, err = id.DecodeBinary(rest); err != nil {
		return err
	}
	b.Server, _, err = wire.DecString(rest)
	return err
}
