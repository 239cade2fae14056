package dock

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/naplet"
)

func sampleSnapshot() *Snapshot {
	nid, err := id.New("alice", "h1", time.Unix(50, 0))
	if err != nil {
		panic(err)
	}
	return &Snapshot{
		Server:  "h1:7001",
		SavedAt: time.Unix(1234, 0).UTC(),
		Residents: []Resident{
			{ID: "alice:n1@h1", Record: []byte{1, 2, 3}, Phase: PhaseResident},
			{ID: "alice:n2@h1", Record: []byte{4, 5}, Phase: PhaseDeparting, Dest: "h2:7001", TransferID: "h1:7001/17"},
		},
		Mail: map[string][]naplet.Message{
			nid.Key(): {{ID: "m1", To: nid, Subject: "hi", Body: []byte("x")}, {ID: "m2", To: nid, Subject: "queued"}},
		},
		Home: []HomeEntry{{ID: nid.Key(), Server: "h2:7001", Arrival: true, At: time.Unix(99, 0).UTC()}},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Empty store loads as nil, nil.
	if snap, err := st.Load(); err != nil || snap != nil {
		t.Fatalf("empty Load = %v, %v; want nil, nil", snap, err)
	}
	want := sampleSnapshot()
	if err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Overwrite keeps only the latest snapshot.
	want.SavedAt = want.SavedAt.Add(time.Hour)
	want.Residents = want.Residents[:1]
	if err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err = st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overwrite mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	path := st.Path()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"bad magic":    append([]byte("XXXXXXXX"), good[8:]...),
		"bad version":  append(append(append([]byte{}, good[:8]...), 0xff, 0xff), good[10:]...),
		"flipped byte": flip(good, len(good)/2),
		"truncated":    good[:len(good)-3],
		"short file":   good[:6],
	}
	for name, data := range cases {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load error = %v, want ErrCorrupt", name, err)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xff
	return out
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Save(sampleSnapshot()); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != FileName {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory contents = %v, want only %s", names, FileName)
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "dock")
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("Open did not create %s: %v", dir, err)
	}
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") should fail")
	}
}
