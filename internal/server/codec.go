package server

import (
	"fmt"

	"repro/internal/id"
	"repro/internal/manager"
	"repro/internal/wire"
)

// Binary codec for the report body, the one body of this package a dock
// sends on its own (per the conventions of DESIGN.md §11). The control
// bodies are operator-plane and JSON via wire.NewFrame.

// bodyCodecVersion is the leading version byte of binary protocol bodies.
const bodyCodecVersion = 1

// AppendBinary appends the body's binary form to dst:
//
//	[version] [NapletID] [kind byte] [uvarint status] [string err] [bytes body]
func (b *ReportBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = b.NapletID.AppendBinary(dst)
	dst = append(dst, byte(b.Kind))
	dst = wire.AppendUvarint(dst, uint64(b.Status))
	dst = wire.AppendString(dst, b.Err)
	return wire.AppendBytes(dst, b.Body)
}

// Decode parses a report payload. Body aliases the payload; the manager
// copies what it keeps.
func (b *ReportBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.NapletID, rest, err = id.DecodeBinary(rest); err != nil {
		return err
	}
	if len(rest) == 0 || rest[0] < byte(ReportResult) || rest[0] > byte(ReportStatus) {
		return fmt.Errorf("%w: report kind", wire.ErrMalformed)
	}
	b.Kind, rest = ReportKind(rest[0]), rest[1:]
	status, rest, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	if status > uint64(manager.StatusTrapped) {
		return fmt.Errorf("%w: naplet status %d", wire.ErrMalformed, status)
	}
	b.Status = manager.Status(status)
	if b.Err, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	b.Body, _, err = wire.DecBytes(rest)
	return err
}
