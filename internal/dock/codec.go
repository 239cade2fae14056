package dock

import (
	"fmt"

	"repro/internal/naplet"
	"repro/internal/wire"
)

// Binary codec for snapshot payloads, built on the wire primitives; the
// envelope (magic, version, length, CRC) is dock.go's. Layout:
//
//	[string server] [time savedAt]
//	[uvarint r] r×Resident    ([string id] [bytes record] [string phase]
//	                           [string dest] [string transferID])
//	[msgmap mail]
//	  where msgmap = [uvarint n] n× (ascending by key, front-coded)
//	                 ([byte shared] [string suffix] [uvarint m] m×[Message])
//	[uvarint h] h×HomeEntry   ([string id] [string server] [bool arrival]
//	                           [uvarint seq] [time at])
//	[uvarint a] a×[string transferID]
//	[uvarint d] d×[string msgID]
//
// The mail table is wire.AppendMap's, so encoding is deterministic
// (golden-byte fixtures depend on it). Messages reuse the naplet binary
// message codec.

func appendMsgs(dst []byte, msgs []naplet.Message) []byte {
	return wire.AppendSeq(dst, msgs, func(dst []byte, m naplet.Message) []byte { return m.AppendBinary(dst) })
}

func decodeMsgs(b []byte) ([]naplet.Message, []byte, error) {
	return wire.DecSeq(b, 4, naplet.DecodeMessageBinary)
}

// decodeMsgMap restores an empty table as nil, the form a server that
// never held mail saves.
func decodeMsgMap(b []byte) (map[string][]naplet.Message, []byte, error) {
	m, b, err := wire.DecMap(b, decodeMsgs)
	if len(m) == 0 {
		m = nil
	}
	return m, b, err
}

func appendResident(dst []byte, r Resident) []byte {
	dst = wire.AppendString(dst, r.ID)
	dst = wire.AppendBytes(dst, r.Record)
	dst = wire.AppendString(dst, r.Phase)
	dst = wire.AppendString(dst, r.Dest)
	return wire.AppendString(dst, r.TransferID)
}

// decodeResident copies the record, so the resident does not alias b.
func decodeResident(b []byte) (r Resident, _ []byte, err error) {
	if r.ID, b, err = wire.DecString(b); err != nil {
		return Resident{}, nil, err
	}
	rec, b, err := wire.DecBytes(b)
	if err != nil {
		return Resident{}, nil, err
	}
	if rec != nil {
		r.Record = append([]byte(nil), rec...)
	}
	if r.Phase, b, err = wire.DecString(b); err != nil {
		return Resident{}, nil, err
	}
	if r.Dest, b, err = wire.DecString(b); err != nil {
		return Resident{}, nil, err
	}
	r.TransferID, b, err = wire.DecString(b)
	return r, b, err
}

func appendHomeEntry(dst []byte, h HomeEntry) []byte {
	dst = wire.AppendString(dst, h.ID)
	dst = wire.AppendString(dst, h.Server)
	dst = wire.AppendBool(dst, h.Arrival)
	dst = wire.AppendUvarint(dst, h.Seq)
	return wire.AppendTime(dst, h.At)
}

func decodeHomeEntry(b []byte) (h HomeEntry, _ []byte, err error) {
	if h.ID, b, err = wire.DecString(b); err != nil {
		return HomeEntry{}, nil, err
	}
	if h.Server, b, err = wire.DecString(b); err != nil {
		return HomeEntry{}, nil, err
	}
	if h.Arrival, b, err = wire.DecBool(b); err != nil {
		return HomeEntry{}, nil, err
	}
	if h.Seq, b, err = wire.DecUvarint(b); err != nil {
		return HomeEntry{}, nil, err
	}
	h.At, b, err = wire.DecTime(b)
	return h, b, err
}

// EncodedSize returns the length of the snapshot's payload encoding.
func (s *Snapshot) EncodedSize() int {
	return len(s.AppendBinary(nil))
}

// AppendBinary appends the snapshot's binary payload form to dst.
func (s *Snapshot) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, s.Server)
	dst = wire.AppendTime(dst, s.SavedAt)
	dst = wire.AppendSeq(dst, s.Residents, appendResident)
	dst = wire.AppendMap(dst, s.Mail, appendMsgs)
	dst = wire.AppendSeq(dst, s.Home, appendHomeEntry)
	dst = wire.AppendStrings(dst, s.AcceptedTransfers)
	return wire.AppendStrings(dst, s.DeliveredMsgs)
}

// DecodeSnapshotBinary parses a binary snapshot payload, all of b: the
// envelope delimits it, so bytes past the last field are an error. The
// returned snapshot does not alias b.
func DecodeSnapshotBinary(b []byte) (*Snapshot, error) {
	snap := new(Snapshot)
	var err error
	if snap.Server, b, err = wire.DecString(b); err != nil {
		return nil, err
	}
	if snap.SavedAt, b, err = wire.DecTime(b); err != nil {
		return nil, err
	}
	if snap.Residents, b, err = wire.DecSeq(b, 5, decodeResident); err != nil {
		return nil, err
	}
	if snap.Mail, b, err = decodeMsgMap(b); err != nil {
		return nil, err
	}
	if snap.Home, b, err = wire.DecSeq(b, 5, decodeHomeEntry); err != nil {
		return nil, err
	}
	if snap.AcceptedTransfers, b, err = wire.DecStrings(b); err != nil {
		return nil, err
	}
	if snap.DeliveredMsgs, b, err = wire.DecStrings(b); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", wire.ErrMalformed, len(b))
	}
	return snap, nil
}
