package cnmp

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/snmp"
	"repro/internal/wire"
)

// body is what every SNMP-over-fabric body offers its frame.
type body interface {
	wire.BinaryBody
	Decode([]byte) error
}

// codecBodies pairs a representative value of every body a socket feeds
// this package with a constructor of its zero value.
func codecBodies() (samples []body, zero []func() body) {
	samples = []body{
		&RequestBody{Community: "public", Op: snmp.OpSet, OIDs: []string{"1.3.6.1.2.1.1.5.0"}, SetValues: []string{"core-7"}},
		&ReplyBody{OIDs: []string{"1.3.6.1.2.1.1.3.0"}, Values: []string{"4711"}, Err: "noSuchName"},
		&TrapBody{Trap: snmp.Trap{Device: "dev3", Kind: snmp.TrapLinkDown, Seq: 7, Round: 2, Detail: "eth2 down"}},
	}
	zero = []func() body{
		func() body { return new(RequestBody) },
		func() body { return new(ReplyBody) },
		func() body { return new(TrapBody) },
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
// version — version 0, version 2, a gob stream, nothing — is
// wire.ErrMalformed and leaves the body untouched; there is no second
// parser to hand it to.
func TestBodiesRejectOldFormats(t *testing.T) {
	samples, zero := codecBodies()
	for i, sample := range samples {
		good := sample.AppendBinary(nil)
		for name, payload := range map[string][]byte{
			"version 0": append([]byte{0}, good[1:]...),
			"version 2": append([]byte{2}, good[1:]...),
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
	f.Add(uint8(0), []byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
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
