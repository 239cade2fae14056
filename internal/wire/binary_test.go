package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestBinaryPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	now := time.Date(2026, 8, 8, 12, 34, 56, 789, time.UTC)
	b = AppendString(b, "naplet")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendUvarint(b, 1<<40)
	b = AppendVarint(b, -12345)
	b = AppendTime(b, now)
	b = AppendTime(b, time.Time{})

	s, rest, err := DecString(b)
	if err != nil || s != "naplet" {
		t.Fatalf("string: %q %v", s, err)
	}
	bs, rest, err := DecBytes(rest)
	if err != nil || !bytes.Equal(bs, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v %v", bs, err)
	}
	v1, rest, err := DecBool(rest)
	if err != nil || !v1 {
		t.Fatalf("bool true: %v %v", v1, err)
	}
	v2, rest, err := DecBool(rest)
	if err != nil || v2 {
		t.Fatalf("bool false: %v %v", v2, err)
	}
	u, rest, err := DecUvarint(rest)
	if err != nil || u != 1<<40 {
		t.Fatalf("uvarint: %d %v", u, err)
	}
	i, rest, err := DecVarint(rest)
	if err != nil || i != -12345 {
		t.Fatalf("varint: %d %v", i, err)
	}
	tm, rest, err := DecTime(rest)
	if err != nil || !tm.Equal(now) {
		t.Fatalf("time: %v %v", tm, err)
	}
	zt, rest, err := DecTime(rest)
	if err != nil || !zt.IsZero() {
		t.Fatalf("zero time: %v %v", zt, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
}

func TestBinarySizesExact(t *testing.T) {
	times := []time.Time{
		{},
		time.Unix(0, 0),
		time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2026, 8, 8, 1, 2, 3, 4, time.UTC),
	}
	for _, tm := range times {
		if got, want := SizeTime(tm), len(AppendTime(nil, tm)); got != want {
			t.Errorf("SizeTime(%v) = %d, encoded %d", tm, got, want)
		}
	}
	for _, x := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		if got, want := SizeVarint(x), len(AppendVarint(nil, x)); got != want {
			t.Errorf("SizeVarint(%d) = %d, encoded %d", x, got, want)
		}
	}
	for _, x := range []uint64{0, 127, 128, math.MaxUint64} {
		if got, want := SizeUvarint(x), len(AppendUvarint(nil, x)); got != want {
			t.Errorf("SizeUvarint(%d) = %d, encoded %d", x, got, want)
		}
	}
	for _, s := range []string{"", "x", "приложение"} {
		if got, want := SizeString(s), len(AppendString(nil, s)); got != want {
			t.Errorf("SizeString(%q) = %d, encoded %d", s, got, want)
		}
	}
}

func TestBinaryDecodeMalformed(t *testing.T) {
	if _, _, err := DecString([]byte{5, 'a'}); !errors.Is(err, ErrMalformed) {
		t.Errorf("short string: %v", err)
	}
	if _, _, err := DecBytes(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty bytes input: %v", err)
	}
	if _, _, err := DecBool([]byte{2}); !errors.Is(err, ErrMalformed) {
		t.Errorf("non-canonical bool: %v", err)
	}
	if _, _, err := DecTime([]byte{1, 0, 0x80}); !errors.Is(err, ErrMalformed) {
		t.Errorf("dangling time varint: %v", err)
	}
	// Nanoseconds out of range.
	bad := AppendVarint([]byte{1}, 0)
	bad = AppendUvarint(bad, 2e9)
	if _, _, err := DecTime(bad); !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized nanoseconds: %v", err)
	}
	// A count claiming more elements than bytes remain.
	if _, _, err := DecCount([]byte{200}, 1); !errors.Is(err, ErrMalformed) {
		t.Errorf("hostile count: %v", err)
	}
}

func TestBinaryTimeRoundTripProperty(t *testing.T) {
	f := func(sec int64, nsec uint32) bool {
		in := time.Unix(sec%1e12, int64(nsec%1e9)).UTC()
		got, rest, err := DecTime(AppendTime(nil, in))
		return err == nil && len(rest) == 0 && got.Equal(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqAndMapRoundTrip(t *testing.T) {
	ss := []string{"b", "", "a"}
	m := map[string]string{"z": "1", "a": "", "m": "3"}
	var b []byte
	b = AppendStrings(b, ss)
	b = AppendStrings(b, nil)
	b = AppendStringMap(b, m)
	b = AppendStringMap(b, nil)
	if want := SizeStrings(ss) + SizeStrings(nil) + SizeStringMap(m) + SizeStringMap(nil); len(b) != want {
		t.Fatalf("encoded %d bytes, sizes sum to %d", len(b), want)
	}
	// Maps encode in sorted key order whatever the iteration order.
	if want := []byte{3, 1, 'a', 0, 1, 'm', 1, '3', 1, 'z', 1, '1'}; !bytes.Equal(AppendStringMap(nil, m), want) {
		t.Fatalf("map encoding %v, want %v", AppendStringMap(nil, m), want)
	}

	gotSS, rest, err := DecStrings(b)
	if err != nil || !reflect.DeepEqual(gotSS, ss) {
		t.Fatalf("strings: %v %v", gotSS, err)
	}
	empty, rest, err := DecStrings(rest)
	if err != nil || empty != nil {
		t.Fatalf("empty list: %v %v, want nil", empty, err)
	}
	gotM, rest, err := DecStringMap(rest)
	if err != nil || !reflect.DeepEqual(gotM, m) {
		t.Fatalf("map: %v %v", gotM, err)
	}
	emptyM, rest, err := DecStringMap(rest)
	if err != nil || emptyM == nil || len(emptyM) != 0 || len(rest) != 0 {
		t.Fatalf("empty map: %v %v, %d bytes left; want a non-nil empty map", emptyM, err, len(rest))
	}

	// A forged count fails before anything is reserved for it.
	hostile := AppendUvarint(nil, 1<<40)
	if _, _, err := DecStrings(hostile); !errors.Is(err, ErrMalformed) {
		t.Fatalf("hostile list count: %v", err)
	}
	if _, _, err := DecStringMap(hostile); !errors.Is(err, ErrMalformed) {
		t.Fatalf("hostile map count: %v", err)
	}
	if _, _, err := DecStrings([]byte{2, 1, 'a'}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated list: %v", err)
	}
}

func TestDecVersion(t *testing.T) {
	rest, err := DecVersion([]byte{1, 9}, 1)
	if err != nil || !bytes.Equal(rest, []byte{9}) {
		t.Fatalf("DecVersion = %v, %v", rest, err)
	}
	for _, payload := range [][]byte{nil, {0, 9}, {2, 9}, []byte(`{"OK":true}`)} {
		if rest, err := DecVersion(payload, 1); !errors.Is(err, ErrMalformed) || rest != nil {
			t.Errorf("DecVersion(%v) = %v, %v; want nil, ErrMalformed", payload, rest, err)
		}
	}
}
