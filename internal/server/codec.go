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
// Version 2 carries an end's status, its key's log length and its results
// in one body.
const bodyCodecVersion = 2

// AppendBinary appends the body's binary form to dst:
//
//	[version] [NapletID] [kind byte] [uvarint status] [string err]
//	[uvarint len] [uvarint count] count × [bytes result]
func (b *ReportBody) AppendBinary(dst []byte) []byte {
	dst = append(dst, bodyCodecVersion)
	dst = b.NapletID.AppendBinary(dst)
	dst = append(dst, byte(b.Kind))
	dst = wire.AppendUvarint(dst, uint64(b.Status))
	dst = wire.AppendString(dst, b.Err)
	dst = wire.AppendUvarint(dst, uint64(b.Len))
	return wire.AppendSeq(dst, b.Results, wire.AppendBytes)
}

// Decode parses a report payload. Results alias the payload; the manager
// copies what it keeps. An end must carry a terminal status.
func (b *ReportBody) Decode(payload []byte) error {
	rest, err := wire.DecVersion(payload, bodyCodecVersion)
	if err != nil {
		return err
	}
	if b.NapletID, rest, err = id.DecodeBinary(rest); err != nil {
		return err
	}
	if len(rest) == 0 || rest[0] < byte(ReportResult) || rest[0] > byte(ReportEnd) {
		return fmt.Errorf("%w: report kind", wire.ErrMalformed)
	}
	b.Kind, rest = ReportKind(rest[0]), rest[1:]
	status, rest, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	b.Status = manager.Status(status)
	if status > uint64(manager.StatusTrapped) || (b.Kind == ReportEnd && !b.Status.Terminal()) {
		return fmt.Errorf("%w: naplet status %d", wire.ErrMalformed, status)
	}
	if b.Err, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	n, rest, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	b.Len = int(n)
	b.Results, _, err = wire.DecSeq(rest, 1, wire.DecBytes)
	return err
}
