package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/manager"
	"repro/internal/wire"
)

// body is what every report body offers its frame.
type body interface {
	wire.BinaryBody
	Decode([]byte) error
}

// codecBodies pairs a representative value of every body a socket feeds
// this package with a constructor of its zero value.
func codecBodies() (samples []body, zero []func() body) {
	nid := id.MustNew("czxu", "sa", time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	samples = []body{
		&ReportBody{NapletID: nid, Kind: ReportStatus, Status: manager.StatusTrapped, Err: "boom"},
		&ReportBody{NapletID: nid, Kind: ReportResult, Body: []byte("toured: sa -> sb")},
	}
	zero = []func() body{
		func() body { return new(ReportBody) },
		func() body { return new(ReportBody) },
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

// TestReportBodyRejectsOldFormats: a payload whose first byte is not the body
// version — version 0, version 2, a gob stream, nothing — is
// wire.ErrMalformed and leaves the body untouched; there is no second
// parser to hand it to.
func TestReportBodyRejectsOldFormats(t *testing.T) {
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

// TestControlBodyJSONKeepsZeroID: every launch request carries the zero
// NapletID, which must survive the operator plane's JSON engine — and a
// set one must too.
func TestControlBodyJSONKeepsZeroID(t *testing.T) {
	nid := id.MustNew("czxu", "sa", time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	for _, in := range []ControlBody{
		{Op: "launch", Codebase: "example.Greeter", Route: "seq(sb,sa)", Params: []string{"p"}, StateKV: map[string]string{"k": "v"}},
		{Op: "status", NapletID: nid},
	} {
		f, err := wire.NewFrame(wire.KindControl, "", "", &in)
		if err != nil {
			t.Fatalf("%s: %v", in.Op, err)
		}
		var out ControlBody
		if err := f.Body(&out); err != nil {
			t.Fatalf("%s: %v (payload %s)", in.Op, err, f.Payload)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v", in.Op, out, in)
		}
	}
}
