package wire

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden fixtures in testdata/")

// checkGolden compares got against the hex fixture, rewriting it under
// -update. Fixtures pin the wire layout: a mismatch means the codec
// layout drifted and needs a version bump plus regenerated fixtures, not
// a silent fixture refresh.
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
			"If the change is intentional, bump the codec version and regenerate with -update.",
			name, hex.EncodeToString(got), hex.EncodeToString(want))
	}
}

// goldenFrame is the fixture frame; only Seq differs between the two
// golden encodings.
func goldenFrame(seq uint64) Frame {
	return Frame{
		Kind:    KindPost,
		From:    "dock-a:1",
		To:      "dock-b:2",
		Seq:     seq,
		Payload: []byte("golden payload"),
	}
}

// TestFrameGoldenBytes pins the budget-less version-2 encoding: version
// bits in the length word, a one-byte kind, the sequence number shifted
// past the budget flag.
func TestFrameGoldenBytes(t *testing.T) {
	got, err := Encode(goldenFrame(42))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "frame_v2.hex", got)
}

// TestFrameBudgetGoldenBytes pins the budget-bearing encoding: the flag
// rides the sequence varint's low bit and the milliseconds follow as a
// varint of their own — three bytes here where the packed Seq took ten.
func TestFrameBudgetGoldenBytes(t *testing.T) {
	f := goldenFrame(PackBudget(42, 1500*time.Millisecond))
	got, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "frame_v2_budget.hex", got)

	dec, _, err := Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Seq != f.Seq || dec.BareSeq() != 42 {
		t.Fatalf("Seq = %#x (bare %d), want %#x (bare 42)", dec.Seq, dec.BareSeq(), f.Seq)
	}
	if d, ok := dec.Budget(); !ok || d != 1500*time.Millisecond {
		t.Fatalf("Budget = (%v, %v), want (1.5s, true)", d, ok)
	}
	plain, err := Encode(goldenFrame(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plain)+2 {
		t.Fatalf("a 1.5 s budget costs %d bytes, want 2", len(got)-len(plain))
	}
}

// TestFrameV1Refused: the two fixtures the previous frame version pinned
// carry no version bits. Both are refused by version — not misparsed with
// their len(Kind) byte read as a table index.
func TestFrameV1Refused(t *testing.T) {
	for name, fixture := range map[string]string{
		"frame_v1":        "000000300e6d657373656e6765722e706f737408646f636b2d613a3108646f636b2d623a322a676f6c64656e207061796c6f6164",
		"frame_v1_budget": "000000390e6d657373656e6765722e706f737408646f636b2d613a3108646f636b2d623a32aa8080808080ee858001676f6c64656e207061796c6f6164",
	} {
		data, err := hex.DecodeString(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Decode(data); !errors.Is(err, ErrFrameVersion) {
			t.Errorf("%s: Decode error = %v, want ErrFrameVersion", name, err)
		}
		if _, err := ReadFrame(bytes.NewReader(data)); !errors.Is(err, ErrFrameVersion) {
			t.Errorf("%s: ReadFrame error = %v, want ErrFrameVersion", name, err)
		}
	}
}

// TestSeqWireForm: whatever the budget, the packed in-memory Seq — what
// the mux correlates on and Budget/BareSeq unpack — is bit for bit what
// the layout in budget.go says, survives the wire unchanged, and
// EncodedSize stays exact. The sizes are the point of splitting the two
// halves on the wire.
func TestSeqWireForm(t *testing.T) {
	const seq = 300
	cases := []struct {
		name      string
		remaining time.Duration
		packed    uint64
		seqBytes  int
	}{
		{"none", 0, seq, 2},
		{"1 ms", time.Millisecond, seq | 1<<63 | 1<<41, 3},
		{"sub-ms rounds up", time.Microsecond, seq | 1<<63 | 1<<41, 3},
		{"30 s", 30 * time.Second, seq | 1<<63 | 30000<<41, 5},
		{"max", MaxBudget, seq | 1<<63 | (1<<22-1)<<41, 6},
		{"saturating", 48 * time.Hour, seq | 1<<63 | (1<<22-1)<<41, 6},
	}
	for _, tc := range cases {
		f := Frame{Kind: KindDirRegister, From: "a", To: "b", Seq: PackBudget(seq, tc.remaining)}
		if f.Seq != tc.packed {
			t.Errorf("%s: PackBudget = %#x, want %#x", tc.name, f.Seq, tc.packed)
		}
		data, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		// 4 length word, 1 kind, 2+2 addresses, then Seq.
		if len(data) != f.EncodedSize() || len(data)-9 != tc.seqBytes {
			t.Errorf("%s: %d bytes (EncodedSize %d), Seq takes %d, want %d", tc.name, len(data), f.EncodedSize(), len(data)-9, tc.seqBytes)
		}
		if dec, _, err := Decode(data); err != nil || dec.Seq != f.Seq {
			t.Errorf("%s: decoded Seq %#x, %v; want %#x", tc.name, dec.Seq, err, f.Seq)
		}
	}
}

func TestPackBudget(t *testing.T) {
	cases := []struct {
		name      string
		seq       uint64
		remaining time.Duration
		want      time.Duration
		wantOK    bool
	}{
		{"zero remaining", 7, 0, 0, false},
		{"negative remaining", 7, -time.Second, 0, false},
		{"exact ms", 7, 250 * time.Millisecond, 250 * time.Millisecond, true},
		{"rounds up", 7, 100 * time.Microsecond, time.Millisecond, true},
		{"saturates", 7, 48 * time.Hour, MaxBudget, true},
		{"max budget exact", 7, MaxBudget, MaxBudget, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := Frame{Seq: PackBudget(tc.seq, tc.remaining)}
			got, ok := f.Budget()
			if ok != tc.wantOK || got != tc.want {
				t.Fatalf("Budget = (%v, %v), want (%v, %v)", got, ok, tc.want, tc.wantOK)
			}
			if f.BareSeq() != tc.seq {
				t.Fatalf("BareSeq = %d, want %d", f.BareSeq(), tc.seq)
			}
			if !tc.wantOK && f.Seq != tc.seq {
				t.Fatalf("no-budget pack must leave seq untouched: %d", f.Seq)
			}
		})
	}
}

func TestPackBudgetPreservesLowSeqBits(t *testing.T) {
	// A sequence number overflowing the 41-bit field keeps its low bits;
	// correlation still works because the reply echoes the packed value.
	seq := uint64(1)<<seqBits + 99
	f := Frame{Seq: PackBudget(seq, time.Second)}
	if f.BareSeq() != 99 {
		t.Fatalf("BareSeq = %d, want 99", f.BareSeq())
	}
}

func TestBudgetExpired(t *testing.T) {
	now := time.Now()
	f := Frame{Seq: PackBudget(1, 100*time.Millisecond)}
	if f.BudgetExpired(now) {
		t.Fatal("no ReceivedAt stamp: must never report expired")
	}
	f.ReceivedAt = now
	if f.BudgetExpired(now.Add(50 * time.Millisecond)) {
		t.Fatal("half the budget left: not expired")
	}
	if !f.BudgetExpired(now.Add(100 * time.Millisecond)) {
		t.Fatal("budget fully elapsed: expired")
	}
	plain := Frame{Seq: 1, ReceivedAt: now}
	if plain.BudgetExpired(now.Add(time.Hour)) {
		t.Fatal("frame without budget never expires")
	}
}

func TestBudgetContext(t *testing.T) {
	now := time.Now()
	f := Frame{Seq: PackBudget(1, 5*time.Second), ReceivedAt: now}
	ctx, cancel := f.BudgetContext(context.Background())
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("budget frame must yield a deadline context")
	}
	if want := now.Add(5 * time.Second); !dl.Equal(want) {
		t.Fatalf("deadline = %v, want %v", dl, want)
	}

	plain := Frame{Seq: 1}
	pctx, pcancel := plain.BudgetContext(context.Background())
	if _, ok := pctx.Deadline(); ok {
		t.Fatal("budget-less frame must not invent a deadline")
	}
	pcancel()
	if pctx.Err() == nil {
		t.Fatal("cancel must cancel the derived context")
	}
}
