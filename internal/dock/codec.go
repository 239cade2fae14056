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
//	[msgmap held] [msgmap mailboxes]
//	  where msgmap = [uvarint n] n× (ascending by key, front-coded)
//	                 ([byte shared] [string suffix] [uvarint m] m×[Message])
//	[uvarint h] h×HomeEntry   ([string id] [string server] [bool arrival]
//	                           [time at])
//	[uvarint a] a×[string transferID]
//	[uvarint d] d×[string msgID]
//
// The mail tables are wire.AppendMap's, so encoding is deterministic
// (golden-byte fixtures depend on it). Messages reuse the naplet binary
// message codec.

func sizeMsgs(msgs []naplet.Message) int {
	return wire.SizeSeq(msgs, naplet.Message.EncodedSize)
}

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

// EncodedSize returns the exact binary-encoded payload size of the
// snapshot.
func (s *Snapshot) EncodedSize() int {
	sz := wire.SizeString(s.Server) + wire.SizeTime(s.SavedAt)
	sz += wire.SizeUvarint(uint64(len(s.Residents)))
	for i := range s.Residents {
		r := &s.Residents[i]
		sz += wire.SizeString(r.ID) + wire.SizeBytes(r.Record) +
			wire.SizeString(r.Phase) + wire.SizeString(r.Dest) +
			wire.SizeString(r.TransferID)
	}
	sz += wire.SizeMap(s.Held, sizeMsgs) + wire.SizeMap(s.Mailboxes, sizeMsgs)
	sz += wire.SizeUvarint(uint64(len(s.Home)))
	for i := range s.Home {
		h := &s.Home[i]
		sz += wire.SizeString(h.ID) + wire.SizeString(h.Server) +
			wire.SizeBool + wire.SizeTime(h.At)
	}
	return sz + wire.SizeStrings(s.AcceptedTransfers) + wire.SizeStrings(s.DeliveredMsgs)
}

// AppendBinary appends the snapshot's binary payload form to dst.
func (s *Snapshot) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, s.Server)
	dst = wire.AppendTime(dst, s.SavedAt)
	dst = wire.AppendUvarint(dst, uint64(len(s.Residents)))
	for i := range s.Residents {
		r := &s.Residents[i]
		dst = wire.AppendString(dst, r.ID)
		dst = wire.AppendBytes(dst, r.Record)
		dst = wire.AppendString(dst, r.Phase)
		dst = wire.AppendString(dst, r.Dest)
		dst = wire.AppendString(dst, r.TransferID)
	}
	dst = wire.AppendMap(dst, s.Held, appendMsgs)
	dst = wire.AppendMap(dst, s.Mailboxes, appendMsgs)
	dst = wire.AppendUvarint(dst, uint64(len(s.Home)))
	for i := range s.Home {
		h := &s.Home[i]
		dst = wire.AppendString(dst, h.ID)
		dst = wire.AppendString(dst, h.Server)
		dst = wire.AppendBool(dst, h.Arrival)
		dst = wire.AppendTime(dst, h.At)
	}
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
	rcnt, b, err := wire.DecCount(b, 5)
	if err != nil {
		return nil, err
	}
	if rcnt > 0 {
		snap.Residents = make([]Resident, rcnt)
		for i := range snap.Residents {
			r := &snap.Residents[i]
			if r.ID, b, err = wire.DecString(b); err != nil {
				return nil, err
			}
			var rec []byte
			if rec, b, err = wire.DecBytes(b); err != nil {
				return nil, err
			}
			if rec != nil {
				r.Record = append([]byte(nil), rec...)
			}
			if r.Phase, b, err = wire.DecString(b); err != nil {
				return nil, err
			}
			if r.Dest, b, err = wire.DecString(b); err != nil {
				return nil, err
			}
			if r.TransferID, b, err = wire.DecString(b); err != nil {
				return nil, err
			}
		}
	}
	if snap.Held, b, err = decodeMsgMap(b); err != nil {
		return nil, err
	}
	if snap.Mailboxes, b, err = decodeMsgMap(b); err != nil {
		return nil, err
	}
	hcnt, b, err := wire.DecCount(b, 4)
	if err != nil {
		return nil, err
	}
	if hcnt > 0 {
		snap.Home = make([]HomeEntry, hcnt)
		for i := range snap.Home {
			h := &snap.Home[i]
			if h.ID, b, err = wire.DecString(b); err != nil {
				return nil, err
			}
			if h.Server, b, err = wire.DecString(b); err != nil {
				return nil, err
			}
			if h.Arrival, b, err = wire.DecBool(b); err != nil {
				return nil, err
			}
			if h.At, b, err = wire.DecTime(b); err != nil {
				return nil, err
			}
		}
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
