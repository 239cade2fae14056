package directory

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

// body is what every directory-protocol body offers its frame.
type body interface {
	wire.BinaryBody
	Decode([]byte) error
}

// codecBodies pairs a representative value of every body a socket feeds
// this package with a constructor of its zero value.
func codecBodies() (samples []body, zero []func() body) {
	nid := id.MustNew("u", "home", t0)
	samples = []body{
		&RegisterBody{NapletID: nid, Event: Arrival, Server: "s1", At: t0, Seq: 9},
		&LookupBody{NapletID: nid},
		&DeregisterBody{Server: "s1", Moved: []Forward{{NapletID: nid, Server: "s2", Seq: 7}}},
		&ReplyBody{Found: true, Entry: Entry{NapletID: nid, Event: Arrival, Server: "s1", At: t0, Seq: 4}},
	}
	zero = []func() body{
		func() body { return new(RegisterBody) },
		func() body { return new(LookupBody) },
		func() body { return new(DeregisterBody) },
		func() body { return new(ReplyBody) },
	}
	return samples, zero
}

// gobStream is what a gob-era sender would have put in a payload.
func gobStream(t *testing.T) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Server, Err string }{"sa", "x"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBodiesRejectOldFormats: a payload whose first byte is not the body
// version — version 1 (whose entries still carried a departure's
// destination), version 2 (whose deregister body carried no forwards),
// version 4, a gob stream, nothing — is wire.ErrMalformed and leaves the
// body untouched; there is no second parser to hand it to.
func TestBodiesRejectOldFormats(t *testing.T) {
	samples, zero := codecBodies()
	for i, sample := range samples {
		good := sample.AppendBinary(nil)
		for name, payload := range map[string][]byte{
			"version 1": append([]byte{1}, good[1:]...),
			"version 2": append([]byte{2}, good[1:]...),
			"version 4": append([]byte{4}, good[1:]...),
			"gob":       gobStream(t),
			"empty":     nil,
		} {
			got := zero[i]()
			if err := got.Decode(payload); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%T, %s: Decode error = %v, want wire.ErrMalformed", sample, name, err)
			}
			if !reflect.DeepEqual(got, zero[i]()) {
				t.Errorf("%T, %s: rejected payload left a partial result %+v", sample, name, got)
			}
		}
	}
}

// TestBodiesEncodeDecodeEncodeIdentical: every sample survives
// encode→decode→encode byte for byte.
func TestBodiesEncodeDecodeEncodeIdentical(t *testing.T) {
	samples, zero := codecBodies()
	for i, sample := range samples {
		enc := sample.AppendBinary(nil)
		got := zero[i]()
		if err := got.Decode(enc); err != nil {
			t.Fatalf("%T: %v", sample, err)
		}
		if re := got.AppendBinary(nil); !bytes.Equal(enc, re) {
			t.Errorf("%T: re-encoding differs:\n got %x\nwant %x", sample, re, enc)
		}
	}
}

// FuzzDecodeBodies feeds arbitrary bytes to every body decoder: no panic,
// allocation bounded by the input length, and whatever decodes re-encodes
// and decodes again to an equal value.
func FuzzDecodeBodies(f *testing.F) {
	samples, zero := codecBodies()
	for i, sample := range samples {
		enc := sample.AppendBinary(nil)
		f.Add(uint8(i), enc)
		f.Add(uint8(i), enc[:len(enc)/2])
	}
	f.Add(uint8(0), []byte{bodyCodecVersion, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		mk := zero[int(which)%len(zero)]
		got := mk()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := got.Decode(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+1<<18) {
			t.Fatalf("%T: decoding %d bytes allocated %d", got, len(data), grew)
		}
		if err != nil {
			return
		}
		enc := got.AppendBinary(nil)
		again := mk()
		if err := again.Decode(enc); err != nil {
			t.Fatalf("%T: re-decode of an accepted body: %v", got, err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("%T: re-decoded value differs:\n got %+v\nwant %+v", got, again, got)
		}
	})
}

// TestCodecAllocations holds what the bodies of a register and of a lookup
// reply — one of each per naplet hop and per chased message — take from the
// heap: the exact-size payload to encode, the identifier's text and the
// server name to decode.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector say nothing about the code")
	}
	nid := id.MustNew("czxu", "sa", t0)
	reg := RegisterBody{NapletID: nid, Event: Arrival, Server: "srv7", At: t0, Seq: 11}
	regEnc := wire.EncodeBody(&reg)
	rep := ReplyBody{Found: true, Entry: Entry{NapletID: nid, Server: "srv3", At: t0, Seq: 5}}
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"register encode", 1, func() { wire.EncodeBody(&reg) }},
		{"register decode", 2, func() { new(RegisterBody).Decode(regEnc) }},
		{"reply round trip", 3, func() { new(ReplyBody).Decode(wire.EncodeBody(&rep)) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n > tc.max {
			t.Errorf("%s: %v allocs, want at most %v", tc.name, n, tc.max)
		}
	}
}
