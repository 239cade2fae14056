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
// codec: one line of testdata/state_values_v2.hex per type, in tag order.
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
	const path = "testdata/state_values_v2.hex"
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

// ampSeed is the input built to make front coding amplify the most: a map
// whose first key is as long as the clamp lets later keys reuse, then
// entries of five bytes — share all of it, add two bytes, hold an empty
// string — that each decode to a 66-byte key.
func ampSeed(entries int) []byte {
	enc := wire.AppendUvarint([]byte{tagStringMap}, uint64(entries))
	enc = append(enc, 0, 64)
	enc = append(enc, bytes.Repeat([]byte{'k'}, 64)...)
	enc = append(enc, 0)
	for i := 1; i < entries; i++ {
		enc = append(enc, 64, 2, byte(i>>8), byte(i), 0)
	}
	return enc
}

// TestDecodeAmplificationBounded: the seed above decodes (it is canonical)
// and stays inside the fuzz target's allocation bound with room to spare.
func TestDecodeAmplificationBounded(t *testing.T) {
	seed := ampSeed(20000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := decodePayload(seed)
	runtime.ReadMemStats(&after)
	if m, ok := v.(map[string]string); err != nil || !ok || len(m) != 20000 {
		t.Fatalf("amplification seed: %T of %d, %v", v, len(m), err)
	}
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(seed)+1<<18); grew > bound {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(seed), grew, bound)
	}
}

// FuzzDecodeValue feeds arbitrary bytes to the value decoder: no panic (the
// depth cap holds), allocation bounded by the input length, and whatever
// decodes is the one encoding of its value: encode(decode(x)) == x.
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
	f.Add(ampSeed(250))
	f.Add([]byte{tagStringMap, 2, 0, 1, 'a', 0, 2, 1, 'b', 0}) // shared past the previous key
	seventy := append([]byte{tagStringMap, 2, 0, 70}, bytes.Repeat([]byte{'k'}, 70)...)
	f.Add(append(seventy, 0, 65, 1, 'x', 0))                   // shared within the previous key, past the clamp
	f.Add([]byte{tagStringMap, 2, 0, 1, 'a', 0, 0, 1, 'a', 0}) // duplicate key
	f.Add([]byte{tagString, 0x81, 0x00, 'a'})                  // over-long length varint
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
		if consumed := data[:len(data)-len(rest)]; !bytes.Equal(enc, consumed) {
			t.Fatalf("accepted value is not canonical:\n  in %x\n out %x", consumed, enc)
		}
	})
}
