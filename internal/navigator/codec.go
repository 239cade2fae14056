package navigator

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/naplet"
	"repro/internal/wire"
)

// Binary codecs for the navigation-protocol bodies. Every body leads with
// one version byte; a payload that starts with anything else is
// wire.ErrMalformed (DESIGN.md §11).

// bodyCodecVersion is the leading version byte of binary protocol bodies.
// Version 2 carries code digests raw (see appendDigest).
const bodyCodecVersion = 2

// A code digest is the hex SHA-256 of a bundle in memory — it is a cache
// key and a proof-table entry — and 32 raw bytes behind a flag on the wire:
//
//	[1] [32 bytes]   a digest of 64 lower-case hex digits
//	[0] [string]     anything else: none, or a test's short name
//
// The conversions go through arrays on the stack: a warm hop carries one
// digest, and a heap round trip through encoding/hex cost it three
// allocations.
const (
	digestString = 0
	digestRaw    = 1
)

// unhex returns the value of one lower-case hex digit, or 0xff.
func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	}
	return 0xff
}

// rawDigest converts a digest of exactly 64 lower-case hex digits, the only
// spelling hex.EncodeToString gives back, and reports whether d was one.
func rawDigest(d string) (raw [sha256.Size]byte, ok bool) {
	if len(d) != 2*sha256.Size {
		return raw, false
	}
	for i := range raw {
		hi, lo := unhex(d[2*i]), unhex(d[2*i+1])
		if hi|lo == 0xff {
			return raw, false
		}
		raw[i] = hi<<4 | lo
	}
	return raw, true
}

func appendDigest(dst []byte, d string) []byte {
	if raw, ok := rawDigest(d); ok {
		return append(append(dst, digestRaw), raw[:]...)
	}
	return wire.AppendString(append(dst, digestString), d)
}

// decodeDigest consumes one digest. A string form that the raw form could
// have carried is malformed: each digest has one encoding.
func decodeDigest(b []byte) (string, []byte, error) {
	switch {
	case len(b) > sha256.Size && b[0] == digestRaw:
		var text [2 * sha256.Size]byte
		hex.Encode(text[:], b[1:1+sha256.Size])
		return string(text[:]), b[1+sha256.Size:], nil
	case len(b) > 0 && b[0] == digestString:
		d, rest, err := wire.DecString(b[1:])
		if _, ok := rawDigest(d); ok {
			err = wire.ErrMalformed
		}
		return d, rest, err
	}
	return "", nil, wire.ErrMalformed
}

// AppendBinary appends the body's binary form to dst.
func (b *LandingRequestBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = b.NapletID.AppendBinary(dst)
	dst = b.Credential.AppendBinary(dst)
	dst = wire.AppendString(dst, b.Codebase)
	dst = wire.AppendUvarint(dst, uint64(b.StateSize))
	return appendDigest(dst, b.CodeDigest)
}

// Decode parses a landing request payload.
func (b *LandingRequestBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.NapletID, rest, err = id.DecodeBinary(rest); err != nil {
		return err
	}
	if b.Credential, rest, err = cred.DecodeBinary(rest); err != nil {
		return err
	}
	if b.Codebase, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	size, rest, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	b.StateSize = int(size)
	b.CodeDigest, _, err = decodeDigest(rest)
	return err
}

// AppendBinary appends the body's binary form to dst.
func (b *LandingReplyBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendBool(dst, b.Granted)
	dst = wire.AppendBool(dst, b.NeedCode)
	return wire.AppendString(dst, b.Reason)
}

// Decode parses a landing reply payload.
func (b *LandingReplyBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Granted, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	if b.NeedCode, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	b.Reason, _, err = wire.DecString(rest)
	return err
}

// AppendBinary appends the body's binary form to dst. A cold push-mode
// transfer's bundle can be MiB, so dst grows once to hold the whole body:
// grown by append, the fields after the bundle would outgrow the buffer
// the bundle sized and copy it all again.
func (b *TransferBody) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, len(b.Record)+len(b.Code)+len(b.TransferID)+64)
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendBytes(dst, b.Record)
	dst = wire.AppendBytes(dst, b.Code)
	dst = wire.AppendString(dst, b.TransferID)
	return appendDigest(dst, b.CodeDigest)
}

// Decode parses a transfer payload. Record and Code alias the payload;
// HandleTransfer consumes both before its handler returns, per the
// transport Handler contract.
func (b *TransferBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Record, rest, err = wire.DecBytes(rest); err != nil {
		return err
	}
	if b.Code, rest, err = wire.DecBytes(rest); err != nil {
		return err
	}
	if b.TransferID, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	b.CodeDigest, _, err = decodeDigest(rest)
	return err
}

// AppendBinary appends the body's binary form to dst.
func (b *TransferAckBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendBool(dst, b.Accepted)
	dst = wire.AppendString(dst, b.Reason)
	dst = wire.AppendBool(dst, b.NeedCode)
	return wire.AppendBool(dst, b.Denied)
}

// Decode parses a transfer ack payload.
func (b *TransferAckBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Accepted, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	if b.Reason, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	if b.NeedCode, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	b.Denied, _, err = wire.DecBool(rest)
	return err
}

// AppendBinary appends the body's binary form to dst.
func (b *CodeFetchBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	return wire.AppendString(dst, b.Codebase)
}

// Decode parses a code fetch payload.
func (b *CodeFetchBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	b.Codebase, _, err = wire.DecString(rest)
	return err
}

// AppendBinary appends the body's binary form to dst, grown once to hold
// the bundle.
func (b *CodeBundleBody) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, len(b.Data)+16)
	dst = append(dst, bodyCodecVersion)
	return wire.AppendBytes(dst, b.Data)
}

// Decode parses a code bundle payload. Data aliases the payload.
func (b *CodeBundleBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	b.Data, _, err = wire.DecBytes(rest)
	return err
}

// AppendBinary appends the body's binary form to dst.
func (b *HomeEventBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = b.NapletID.AppendBinary(dst)
	dst = wire.AppendString(dst, b.Server)
	dst = wire.AppendBool(dst, b.Arrival)
	return wire.AppendTime(dst, b.At)
}

// Decode parses a home event payload.
func (b *HomeEventBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.NapletID, rest, err = id.DecodeBinary(rest); err != nil {
		return err
	}
	if b.Server, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	if b.Arrival, rest, err = wire.DecBool(rest); err != nil {
		return err
	}
	b.At, _, err = wire.DecTime(rest)
	return err
}

// bundleDigest returns the content digest of a code bundle: the
// bundle-cache key (hex SHA-256).
func bundleDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// EncodeRecord serializes a naplet record for transfer using the binary
// record codec (magic 'N' 'R' + version byte).
func EncodeRecord(rec *naplet.Record) ([]byte, error) {
	return wire.EncodeBody(rec), nil
}

// DecodeRecord reverses EncodeRecord. Data without the record magic, or
// with any version but naplet.RecordCodecVersion, is an error.
func DecodeRecord(data []byte) (*naplet.Record, error) {
	return naplet.DecodeRecordBinary(data)
}
