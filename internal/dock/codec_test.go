package dock

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/naplet"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden fixtures in testdata/")

var goldenTime = time.Date(2026, 1, 2, 3, 4, 5, 600700800, time.UTC)

func goldenSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	from := id.MustNew("czxu", "sa1", goldenTime)
	to := id.MustNew("amgr", "sb2", goldenTime.Add(time.Second))
	msg := naplet.Message{
		ID:      "sa/m-9",
		From:    from,
		To:      to,
		Class:   naplet.UserMessage,
		Subject: "held",
		Body:    []byte("payload"),
		SentAt:  goldenTime.Add(250 * time.Millisecond),
	}
	return &Snapshot{
		Server:  "sa:1",
		SavedAt: goldenTime,
		Residents: []Resident{
			{
				ID:         from.String(),
				Record:     []byte{'N', 'R', 1, 0xAA, 0xBB},
				Phase:      PhaseDeparting,
				Dest:       "sb:2",
				TransferID: "xfer-42",
			},
			{
				ID:     to.String(),
				Phase:  PhaseResident,
				Record: []byte{0x40, 0x01, 0x02},
			},
		},
		Mail:              map[string][]naplet.Message{to.Key(): {msg}, from.Key(): {msg, msg}},
		Home:              []HomeEntry{{ID: from.String(), Server: "sb:2", Arrival: true, Seq: 3, At: goldenTime.Add(time.Minute)}},
		AcceptedTransfers: []string{"xfer-41", "xfer-40"},
		DeliveredMsgs:     []string{"sa/m-8"},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run go test -update): %v", err)
	}
	want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding drifted from the pinned layout.\n got %s\nwant %s\n"+
			"If the change is intentional, bump dock.Version and regenerate with -update.",
			name, hex.EncodeToString(got), hex.EncodeToString(want))
	}
}

func TestSnapshotGoldenBytes(t *testing.T) {
	snap := goldenSnapshot(t)
	got := snap.AppendBinary(nil)
	if len(got) != snap.EncodedSize() {
		t.Fatalf("EncodedSize = %d, encoded %d bytes", snap.EncodedSize(), len(got))
	}
	checkGolden(t, "snapshot_v5.hex", got)

	dec, err := DecodeSnapshotBinary(got)
	if err != nil {
		t.Fatal(err)
	}
	if re := dec.AppendBinary(nil); !bytes.Equal(got, re) {
		t.Fatal("decode→encode of golden snapshot is not byte-identical")
	}
	if !reflect.DeepEqual(snap, dec) {
		t.Fatalf("decoded snapshot differs:\n got %+v\nwant %+v", dec, snap)
	}
}

// TestLoadRejectsV1Envelope: an envelope of a retired version — 1, the gob
// payload; 2, plain map keys and version-2 records; 3, separate held and
// mailbox tables; 4, home-track entries without their sequence — with an
// intact CRC fails Load loudly instead of being parsed.
func TestLoadRejectsV1Envelope(t *testing.T) {
	for _, version := range []uint16{1, 2, 3, 4} {
		loadRejectsVersion(t, version)
	}
}

func loadRejectsVersion(t *testing.T, version uint16) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(goldenSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(data[len(magic):], version)
	if err := os.WriteFile(st.Path(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load()
	if want := fmt.Sprintf("unsupported version %d", version); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load of a v%d envelope: err = %v, want ErrCorrupt: %s", version, err, want)
	}
	if snap != nil {
		t.Fatalf("Load of a v%d envelope returned a partial snapshot: %+v", version, snap)
	}
}

func randString(r *rand.Rand, max int) string {
	n := r.Intn(max)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randTime(r *rand.Rand) time.Time {
	if r.Intn(8) == 0 {
		return time.Time{}
	}
	return time.Unix(r.Int63n(4e9)-2e9, r.Int63n(1e9)).UTC()
}

func randMsgs(r *rand.Rand) []naplet.Message {
	msgs := make([]naplet.Message, 1+r.Intn(3))
	for i := range msgs {
		msgs[i] = naplet.Message{
			ID:      randString(r, 10),
			From:    id.MustNew(randString(r, 6)+"o", randString(r, 6)+"h", randTime(r)),
			To:      id.MustNew(randString(r, 6)+"o", randString(r, 6)+"h", randTime(r)),
			Class:   naplet.MessageClass(r.Intn(2)),
			Subject: randString(r, 12),
			SentAt:  randTime(r),
		}
		if r.Intn(3) != 0 {
			msgs[i].Body = []byte(randString(r, 30))
		}
	}
	return msgs
}

func TestSnapshotEncodeDecodeEncodeIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		snap := &Snapshot{Server: randString(r, 10), SavedAt: randTime(r)}
		for j := r.Intn(4); j > 0; j-- {
			res := Resident{
				ID:    randString(r, 20),
				Phase: []string{PhaseResident, PhaseVisiting, PhaseDeparting}[r.Intn(3)],
			}
			if r.Intn(4) != 0 {
				res.Record = []byte(randString(r, 60))
			}
			if res.Phase == PhaseDeparting {
				res.Dest = randString(r, 10)
				res.TransferID = randString(r, 10)
			}
			snap.Residents = append(snap.Residents, res)
		}
		if r.Intn(3) != 0 {
			snap.Mail = map[string][]naplet.Message{}
			for j := 1 + r.Intn(5); j > 0; j-- {
				snap.Mail[randString(r, 8)+"k"] = randMsgs(r)
			}
		}
		for j := r.Intn(3); j > 0; j-- {
			snap.Home = append(snap.Home, HomeEntry{
				ID: randString(r, 15), Server: randString(r, 8),
				Arrival: r.Intn(2) == 0, At: randTime(r),
			})
		}
		for j := r.Intn(3); j > 0; j-- {
			snap.AcceptedTransfers = append(snap.AcceptedTransfers, randString(r, 10))
		}
		for j := r.Intn(3); j > 0; j-- {
			snap.DeliveredMsgs = append(snap.DeliveredMsgs, randString(r, 10))
		}

		enc := snap.AppendBinary(nil)
		if len(enc) != snap.EncodedSize() {
			t.Fatalf("iter %d: EncodedSize %d, encoded %d", i, snap.EncodedSize(), len(enc))
		}
		dec, err := DecodeSnapshotBinary(enc)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if re := dec.AppendBinary(nil); !bytes.Equal(enc, re) {
			t.Fatalf("iter %d: encode→decode→encode not byte-identical", i)
		}
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder: never
// panic, never over-allocate, and an accepted payload is the one encoding of
// its snapshot — encode(decode(x)) == x, byte for byte.
func FuzzDecodeSnapshot(f *testing.F) {
	golden := goldenSnapshot(f).AppendBinary(nil)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	corrupt := append([]byte(nil), golden...)
	corrupt[len(corrupt)/3] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(append(append([]byte(nil), golden...), 0)) // a trailing byte
	// An otherwise empty snapshot around a hand-built mail table.
	withMail := func(table ...byte) []byte {
		b := wire.AppendTime(wire.AppendString(nil, "s"), time.Time{})
		b = append(append(b, 0), table...) // no residents, then the table
		return append(b, 0, 0, 0)          // no home entries, transfers, messages
	}
	f.Add(withMail(2, 0, 1, 'k', 0, 0, 1, 'l', 0)) // two keys, in order
	f.Add(withMail(2, 0, 1, 'k', 0, 1, 0, 0))      // the same key twice
	f.Add(withMail(2, 0, 1, 'k', 0, 2, 1, 'x', 0)) // sharing more than the previous key has
	f.Add(withMail(2, 0, 1, 'l', 0, 0, 1, 'k', 0)) // descending

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshotBinary(data)
		if err != nil {
			return
		}
		enc := snap.AppendBinary(nil)
		if len(enc) != snap.EncodedSize() {
			t.Fatalf("EncodedSize %d, encoded %d", snap.EncodedSize(), len(enc))
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted snapshot is not canonical:\n  in %x\n out %x", data, enc)
		}
	})
}
