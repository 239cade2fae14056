package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
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
	// One encoding per value: a varint padded past its shortest form, and
	// the zero time spelled out instead of flagged.
	if _, _, err := DecUvarint([]byte{0x80, 0x00}); !errors.Is(err, ErrMalformed) {
		t.Errorf("over-long uvarint: %v", err)
	}
	if _, _, err := DecVarint([]byte{0x81, 0x80, 0x00}); !errors.Is(err, ErrMalformed) {
		t.Errorf("over-long varint: %v", err)
	}
	if _, _, err := DecString([]byte{0x81, 0x00, 'a'}); !errors.Is(err, ErrMalformed) {
		t.Errorf("over-long string length: %v", err)
	}
	var zero time.Time
	spelled := AppendUvarint(AppendVarint([]byte{1}, zero.Unix()), 0)
	if _, _, err := DecTime(spelled); !errors.Is(err, ErrMalformed) {
		t.Errorf("zero time in absolute form: %v", err)
	}
	for _, x := range []int64{0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64} {
		if got, rest, err := DecVarint(AppendVarint(nil, x)); err != nil || got != x || len(rest) != 0 {
			t.Errorf("DecVarint(AppendVarint(%d)) = %d, %v", x, got, err)
		}
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
	// Maps encode in sorted key order whatever the iteration order, each
	// key as [shared] [suffix].
	if want := []byte{3, 0, 1, 'a', 0, 0, 1, 'm', 1, '3', 0, 1, 'z', 1, '1'}; !bytes.Equal(AppendStringMap(nil, m), want) {
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

// genMap builds n distinct keys of the awkward kinds — the empty key, a key
// that is a prefix of the next, runs sharing more than the clamp, bytes that
// are not UTF-8 — and maps each to a value derived from it.
func genMap(r *rand.Rand, n int) map[string]string {
	m := make(map[string]string, n)
	long := strings.Repeat("1.3.6.1.4.1.9999.", 5) // 85 bytes, past the clamp
	for len(m) < n {
		var k string
		switch r.Intn(6) {
		case 0:
			k = ""
		case 1:
			k = long[:r.Intn(len(long))]
		case 2:
			k = long + strconv.Itoa(r.Intn(4*n+1))
		case 3:
			k = string([]byte{0xff, 0xfe, byte(r.Intn(256)), 0x80})
		case 4:
			k = "dev" + strconv.Itoa(r.Intn(40)) + "|" + long[:12] + strconv.Itoa(r.Intn(n+1))
		default:
			b := make([]byte, r.Intn(6))
			r.Read(b)
			k = string(b)
		}
		m[k] = k + "=" + strconv.Itoa(len(m))
	}
	return m
}

// TestMapFrontCodingProperties: over generated maps of 0, 1, 17 and 300
// entries (below, at and past what sorts on the stack), the round trip is
// lossless, and the encoding is the canonical one: keys ascending, each
// sharing all it can with its predecessor up to the clamp.
func TestMapFrontCodingProperties(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 17, smallMapKeys, smallMapKeys + 1, 300} {
		for round := 0; round < 20; round++ {
			m := genMap(r, n)
			enc := AppendStringMap(nil, m)
			got, rest, err := DecStringMap(enc)
			if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, m) {
				t.Fatalf("n=%d: round trip: %v, %d bytes left, equal=%v", n, err, len(rest), reflect.DeepEqual(got, m))
			}
			// Walk the entries by hand against the sorted keys.
			cnt, b, err := DecCount(enc, 3)
			if err != nil || cnt != n {
				t.Fatalf("n=%d: count %d, %v", n, cnt, err)
			}
			prev := ""
			for _, k := range SortedKeys(m) {
				shared, suffix := int(b[0]), ""
				if suffix, b, err = DecString(b[1:]); err != nil {
					t.Fatal(err)
				}
				if want := sharedPrefix(prev, k); shared != want || shared > maxSharedPrefix || prev[:shared]+suffix != k {
					t.Fatalf("key %q after %q: shared %d suffix %q, want shared %d", k, prev, shared, suffix, want)
				}
				if _, b, err = DecString(b); err != nil {
					t.Fatal(err)
				}
				prev = k
			}
		}
	}
	// Front coding is what it is for: 256 status keys of the §6 sweep.
	sweep := make(map[string]string)
	for dev := 0; dev < 16; dev++ {
		for v := 0; v < 16; v++ {
			sweep[fmt.Sprintf("dev%02d|1.3.6.1.4.1.9999.1.%d.0", dev, v)] = "7"
		}
	}
	plain := 0
	for k, v := range sweep {
		plain += sizeString(k) + sizeString(v)
	}
	if got := len(AppendStringMap(nil, sweep)); got*2 > plain {
		t.Errorf("256 sweep keys: %d bytes front-coded, %d plain; want less than half", got, plain)
	}
}

// TestDecMapRejectsNonCanonical: every way an entry's key can be other than
// the one AppendMap would have written is malformed.
func TestDecMapRejectsNonCanonical(t *testing.T) {
	long := strings.Repeat("k", maxSharedPrefix+6)
	for name, enc := range map[string][]byte{
		"duplicate key":              {2, 0, 1, 'a', 0, 1, 0, 0},
		"descending keys":            {2, 0, 1, 'b', 0, 0, 1, 'a', 0},
		"equal after sharing":        {2, 0, 2, 'a', 'b', 0, 1, 1, 'b', 0},
		"shared past previous key":   {2, 0, 1, 'a', 0, 2, 1, 'b', 0},
		"first key shares":           {1, 1, 1, 'a', 0},
		"shares less than it could":  {2, 0, 2, 'a', 'b', 0, 0, 2, 'a', 'c', 0},
		"truncated after shared":     {1, 0},
		"suffix overruns":            {1, 0, 9, 'a', 0},
		"over-long count varint":     {0x81, 0x00, 0, 1, 'a', 0},
		"count larger than input":    {200, 0, 1, 'a', 0},
		"shared past clamp (forged)": append(append([]byte{2, 0, 70}, long[:70]...), 0, 70, 1, 'x', 0),
	} {
		if m, _, err := DecStringMap(enc); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: DecStringMap = %v, %v; want ErrMalformed", name, m, err)
		}
	}
	// The same two long keys as the encoder writes them share exactly the
	// clamp and decode.
	enc := AppendStringMap(nil, map[string]string{long: "", long + "x": ""})
	if shared := enc[len(enc)-10]; shared != maxSharedPrefix { // [64] [7] kkkkkkx [0]
		t.Fatalf("second key shares %d, want the clamp %d", shared, maxSharedPrefix)
	}
	if m, _, err := DecStringMap(enc); err != nil || len(m) != 2 {
		t.Fatalf("keys sharing more than the clamp: %v, %v", m, err)
	}
}

// TestMapCodecAllocations: encoding a small map sorts on the stack, and
// decoding costs one allocation per key beyond the map itself —
// the budget the hop benchmarks were cut against.
func TestMapCodecAllocations(t *testing.T) {
	m := map[string]string{}
	for i := 0; i < 17; i++ {
		m["DeviceStatus/dev"+strconv.Itoa(i)] = ""
	}
	dst := AppendStringMap(nil, m)
	if n := testing.AllocsPerRun(100, func() { dst = AppendStringMap(dst[:0], m) }); n != 0 {
		t.Errorf("AppendStringMap of %d keys: %v allocs, want 0", len(m), n)
	}
	one := AppendStringMap(nil, map[string]string{"DeviceStatus/dev1": ""})
	// The map header and bucket, and the key.
	if n := testing.AllocsPerRun(100, func() { DecStringMap(one) }); n > 3 {
		t.Errorf("DecStringMap of one key: %v allocs, want at most 3", n)
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
