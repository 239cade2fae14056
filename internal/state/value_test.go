package state

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden fixtures in testdata/")

// TestValueGoldenBytes pins every tag and payload layout of the value
// codec: one line of testdata/state_values_v1.hex per type, in tag order.
// A mismatch means the layout drifted and naplet.RecordCodecVersion must be
// bumped with the fixture, not that the fixture needs a silent refresh.
func TestValueGoldenBytes(t *testing.T) {
	var lines []string
	for i, v := range twelveTypes() {
		enc, err := encodeValue(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if enc[0] != byte(i+1) {
			t.Errorf("%T: tag %d, want %d", v, enc[0], i+1)
		}
		dec, err := decodePayload(enc)
		if err != nil || !reflect.DeepEqual(dec, v) {
			t.Fatalf("%T: decoded %#v, %v", v, dec, err)
		}
		if re, err := encodeValue(dec); err != nil || !bytes.Equal(enc, re) {
			t.Errorf("%T: encode→decode→encode is not byte-identical: %x, then %x (%v)", v, enc, re, err)
		}
		lines = append(lines, hex.EncodeToString(enc))
	}
	got := strings.Join(lines, "\n") + "\n"
	const path = "testdata/state_values_v1.hex"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s: value encoding drifted from the pinned layout.\n got:\n%swant:\n%s", path, got, want)
	}
}

// TestUnsupportedValues: what is outside the closed set is refused when it
// is stored, by name, not when the naplet next tries to migrate.
func TestUnsupportedValues(t *testing.T) {
	type custom struct{ N int }
	deep := any("leaf")
	for i := 0; i <= maxValueDepth; i++ {
		deep = []any{deep}
	}
	s := New()
	s.SetPublic("k", "old")
	for name, v := range map[string]any{
		"struct":     custom{1},
		"uint":       uint(1),
		"[]float64":  []float64{1},
		"nested nil": []any{nil},
		"nested bad": map[string]any{"k": custom{2}},
		"too deep":   deep,
	} {
		if err := s.SetPrivate(name, v); !errors.Is(err, ErrUnsupportedType) {
			t.Errorf("%s: Set error = %v, want ErrUnsupportedType", name, err)
		}
		if err := s.ServerView("srv").Update("k", v); !errors.Is(err, ErrUnsupportedType) {
			t.Errorf("%s: Update error = %v, want ErrUnsupportedType", name, err)
		}
	}
	if v, _ := s.Get("k"); s.Len() != 1 || v != "old" {
		t.Fatalf("refused values changed the container: %d entries, k = %v", s.Len(), v)
	}
	// One container fewer is the deepest value that travels.
	if err := s.SetPrivate("deepest", deep.([]any)[0]); err != nil {
		t.Fatalf("value nested %d deep: %v", maxValueDepth, err)
	}
	if _, err := s.Get("deepest"); err != nil {
		t.Fatalf("value nested %d deep does not decode: %v", maxValueDepth, err)
	}
}

// nestedLists returns the encoding of a string wrapped in depth lists.
func nestedLists(depth int) []byte {
	var enc []byte
	for i := 0; i < depth; i++ {
		enc = append(enc, tagList, 1)
	}
	return append(enc, tagString, 1, 'x')
}

func TestDecodeRejectsBadPayloads(t *testing.T) {
	for name, payload := range map[string][]byte{
		"empty":          nil,
		"tag 0":          {0},
		"unknown tag":    {13, 0},
		"truncated":      {tagString, 5, 'a'},
		"trailing bytes": {tagBool, 1, 0},
		"hostile count":  {tagStrings, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"past depth cap": nestedLists(maxValueDepth + 1),
	} {
		if v, err := decodePayload(payload); !errors.Is(err, ErrBadPayload) || v != nil {
			t.Errorf("%s: decodePayload = %v, %v; want nil, ErrBadPayload", name, v, err)
		}
	}
	if _, err := decodePayload(nestedLists(maxValueDepth)); err != nil {
		t.Errorf("at the depth cap: %v", err)
	}
}

// TestDecodeBinaryRejectsUnknownMode: a mode number past Public off the
// wire is malformed, not silently Private.
func TestDecodeBinaryRejectsUnknownMode(t *testing.T) {
	s := New()
	s.SetPublic("k", 1)
	enc := s.AppendBinary(nil)
	enc[bytes.IndexByte(enc, 'k')+1] = 7
	if got, _, err := DecodeBinary(enc); !errors.Is(err, wire.ErrMalformed) || got != nil {
		t.Fatalf("mode 7: DecodeBinary = %v, %v; want nil, wire.ErrMalformed", got, err)
	}
}

// FuzzDecodeValue feeds arbitrary bytes to the value decoder: no panic (the
// depth cap holds), allocation bounded by the input length, and whatever
// decodes re-encodes and decodes again to an equal value.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range twelveTypes() {
		enc, err := encodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add(nestedLists(maxValueDepth))
	f.Add(nestedLists(maxValueDepth + 1))
	f.Add(bytes.Repeat([]byte{tagList, 0xff, 0xff, 0x03}, 64))
	f.Add(bytes.Repeat([]byte{tagMap, 0x7f, 0}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, rest, err := decodeValue(data, 0)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+1<<18) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest %d exceeds input %d", len(rest), len(data))
		}
		enc, err := encodeValue(v)
		if err != nil {
			t.Fatalf("accepted value %#v does not re-encode: %v", v, err)
		}
		again, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted value: %v", err)
		}
		// NaN is a legal float64 and never equal to itself; compare the
		// encodings, which are canonical for what encodeValue emits.
		if re, err := encodeValue(again); err != nil || !bytes.Equal(enc, re) {
			t.Fatalf("re-decoded value differs: %#v, then %#v (%v)", v, again, err)
		}
	})
}
