// Package dock persists one naplet server's recoverable state — resident
// naplet records, the Messenger's mail slots, and home-track
// registrations — so a crashed-and-restarted server picks up exactly where
// it stopped.
//
// The on-disk format wraps a versioned payload in a small self-describing
// envelope:
//
//	magic   [8]byte  "NAPDOCK\n"
//	version uint16   big-endian; 4 is the only version written or loaded
//	length  uint32   big-endian payload byte count
//	payload []byte   Snapshot.AppendBinary (codec.go)
//	crc     uint32   big-endian IEEE CRC-32 of the payload
//
// Writes are atomic: the snapshot lands in a temp file in the same
// directory, is fsynced, and is renamed over the live file, so a crash
// mid-write leaves the previous snapshot intact. A truncated or corrupted
// file fails Load with a descriptive error rather than restoring garbage.
package dock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/naplet"
	"repro/internal/wire"
)

// Snapshot format constants.
const (
	// Version is the snapshot format version: a hand-rolled binary
	// payload (see codec.go) with version-3 records and, as of 4, one
	// front-coded mail table. Any other version fails Load.
	Version = 4
	// FileName is the live snapshot file inside the store directory.
	FileName = "dock.snap"
)

var magic = [8]byte{'N', 'A', 'P', 'D', 'O', 'C', 'K', '\n'}

// ErrCorrupt wraps any snapshot-decoding failure: bad magic, unsupported
// version, short file, CRC mismatch, or a payload decode error.
var ErrCorrupt = errors.New("dock: corrupt snapshot")

// Resident handoff phases. The phase distinguishes how far a naplet's
// migration had progressed when the snapshot was taken, which decides how
// the restarted server resumes it.
const (
	// PhaseResident: the naplet's visit completed; resume the itinerary
	// engine at the next Next() decision.
	PhaseResident = "resident"
	// PhaseVisiting: the naplet had a pending visit that may not have
	// run; re-run the visit (at-least-once within a visit).
	PhaseVisiting = "visiting"
	// PhaseDeparting: dispatch to Dest was in flight under TransferID;
	// replay the dispatch under the same ID so the destination's dedup
	// window gives exactly-once handoff.
	PhaseDeparting = "departing"
)

// Resident is one persisted naplet.
type Resident struct {
	// ID is the naplet ID string (diagnostics; the authoritative ID is
	// inside Record).
	ID string
	// Record is the navigator-encoded naplet record.
	Record []byte
	// Phase is one of the Phase* constants.
	Phase string
	// Dest is the in-flight dispatch destination (PhaseDeparting).
	Dest string
	// TransferID is the in-flight transfer ID (PhaseDeparting).
	TransferID string
}

// HomeEntry is one persisted home-track observation (the distributed
// directory's newest-wins location record for a naplet launched here).
type HomeEntry struct {
	ID      string
	Server  string
	Arrival bool
	At      time.Time
}

// Snapshot is everything a server persists between commits.
type Snapshot struct {
	// Server is the address that wrote the snapshot.
	Server string
	// SavedAt stamps the commit.
	SavedAt time.Time
	// Residents are the naplets docked here (any phase).
	Residents []Resident
	// Mail is the Messenger's mail slots, keyed by naplet ID key: mail
	// held for naplets that have not landed and mail queued unread in
	// residents' mailboxes. All of it is restored as held mail.
	Mail map[string][]naplet.Message
	// Home is the manager's home-track table.
	Home []HomeEntry
	// AcceptedTransfers are the navigator's landing-dedup transfer IDs:
	// restoring them keeps a replayed pre-crash migration exactly-once.
	AcceptedTransfers []string
	// DeliveredMsgs are the messenger's delivery-dedup message IDs.
	DeliveredMsgs []string
}

// Store persists snapshots under one directory.
type Store struct {
	dir string
	mu  sync.Mutex
}

// Open prepares a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("dock: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dock: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the live snapshot file path.
func (s *Store) Path() string { return filepath.Join(s.dir, FileName) }

// DiskUsage reports the bytes the dock currently occupies on disk: the
// sum of every regular file under the store directory (the live snapshot
// plus any in-flight temporary). Fleet heartbeats carry this figure so
// the master's watchdog can stop routing waves at an over-watermark dock.
func (s *Store) DiskUsage() (uint64, error) {
	var total uint64
	err := filepath.WalkDir(s.dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			// The file vanished between listing and stat (an atomic
			// replace); usage is a snapshot, not an audit.
			return nil
		}
		total += uint64(info.Size())
		return nil
	})
	return total, err
}

// Save atomically replaces the live snapshot.
func (s *Store) Save(snap *Snapshot) error {
	payload := wire.EncodeBody(snap)
	buf := make([]byte, 0, len(magic)+2+4+len(payload)+4)
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))

	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, FileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("dock: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("dock: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("dock: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("dock: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.Path()); err != nil {
		return fmt.Errorf("dock: commit snapshot: %w", err)
	}
	return nil
}

// Load reads the live snapshot. A store with no snapshot yet returns
// (nil, nil); a damaged file returns an error wrapping ErrCorrupt.
func (s *Store) Load() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.Path())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dock: %w", err)
	}
	if len(data) < len(magic)+2+4+4 {
		return nil, fmt.Errorf("%w: short file (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := data[len(magic):]
	ver := binary.BigEndian.Uint16(rest)
	if ver != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	n := binary.BigEndian.Uint32(rest[2:])
	rest = rest[6:]
	if uint32(len(rest)) != n+4 {
		return nil, fmt.Errorf("%w: payload length %d does not match file", ErrCorrupt, n)
	}
	payload := rest[:n]
	want := binary.BigEndian.Uint32(rest[n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	snap, err := DecodeSnapshotBinary(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, nil
}
