package cnmp

import (
	"fmt"

	"repro/internal/snmp"
	"repro/internal/wire"
)

// Binary codecs for the SNMP-over-fabric bodies, on the same primitives
// and conventions as the naplet protocols (DESIGN.md §11) — these are the
// bytes the CNMP side of the §6 comparison is metered on, so both sides
// pay for the same encoding.

// bodyCodecVersion is the leading version byte of binary protocol bodies.
const bodyCodecVersion = 1

// AppendBinary appends the body's binary form to dst.
func (b *RequestBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendString(dst, b.Community)
	dst = wire.AppendUvarint(dst, uint64(b.Op))
	dst = wire.AppendStrings(dst, b.OIDs)
	return wire.AppendStrings(dst, b.SetValues)
}

// Decode parses a request payload.
func (b *RequestBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.Community, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	op, rest, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	if op > uint64(snmp.OpSet) {
		return fmt.Errorf("%w: SNMP operation %d", wire.ErrMalformed, op)
	}
	b.Op = snmp.PDUOp(op)
	if b.OIDs, rest, err = wire.DecStrings(rest); err != nil {
		return err
	}
	b.SetValues, _, err = wire.DecStrings(rest)
	return err
}

// AppendBinary appends the body's binary form to dst.
func (b *ReplyBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendStrings(dst, b.OIDs)
	dst = wire.AppendStrings(dst, b.Values)
	return wire.AppendString(dst, b.Err)
}

// Decode parses a reply payload.
func (b *ReplyBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.OIDs, rest, err = wire.DecStrings(rest); err != nil {
		return err
	}
	if b.Values, rest, err = wire.DecStrings(rest); err != nil {
		return err
	}
	b.Err, _, err = wire.DecString(rest)
	return err
}

// AppendBinary appends the body's binary form to dst.
func (b *TrapBody) AppendBinary(dst []byte) []byte {
	t := &b.Trap
	dst = append(dst, bodyCodecVersion)
	dst = wire.AppendString(dst, t.Device)
	dst = wire.AppendUvarint(dst, uint64(t.Kind))
	dst = wire.AppendVarint(dst, int64(t.Seq))
	dst = wire.AppendVarint(dst, int64(t.Round))
	return wire.AppendString(dst, t.Detail)
}

// Decode parses a trap payload.
func (b *TrapBody) Decode(payload []byte) error {
	t := &b.Trap
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if t.Device, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	kind, rest, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	if kind > uint64(snmp.TrapHeartbeat) {
		return fmt.Errorf("%w: trap kind %d", wire.ErrMalformed, kind)
	}
	t.Kind = snmp.TrapKind(kind)
	seq, rest, err := wire.DecVarint(rest)
	if err != nil {
		return err
	}
	round, rest, err := wire.DecVarint(rest)
	if err != nil {
		return err
	}
	t.Seq, t.Round = int(seq), int(round)
	t.Detail, _, err = wire.DecString(rest)
	return err
}
