package navigator

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/naplet"
	"repro/internal/wire"
)

// body is what every navigation-protocol body offers its frame.
type body interface {
	wire.BinaryBody
	Decode([]byte) error
}

var codecTime = time.Date(2026, 1, 2, 3, 4, 5, 600, time.UTC)

// codecBodies pairs a representative value of every body a socket feeds
// this package with a constructor of its zero value.
func codecBodies() (samples []body, zero []func() body) {
	nid := id.MustNew("czxu", "sa", codecTime)
	samples = []body{
		&LandingRequestBody{NapletID: nid, Codebase: "test.Agent", StateSize: 512, CodeDigest: "abc",
			Credential: cred.Credential{NapletID: nid, Codebase: "test.Agent", Roles: []string{"guest"}, IssuedAt: codecTime, Signature: []byte{1, 2}}},
		&LandingReplyBody{Granted: true, NeedCode: true, Reason: "r"},
		&TransferBody{Record: []byte("NR\x03rec"), Code: []byte("code"), TransferID: "sa#1", CodeDigest: "abc"},
		&TransferAckBody{Reason: "at capacity", Denied: true},
		&CodeFetchBody{Codebase: "test.Agent"},
		&CodeBundleBody{Data: []byte("bundle")},
		&HomeEventBody{NapletID: nid, Server: "sb", Arrival: true, Seq: 5, At: codecTime},
	}
	zero = []func() body{
		func() body { return new(LandingRequestBody) },
		func() body { return new(LandingReplyBody) },
		func() body { return new(TransferBody) },
		func() body { return new(TransferAckBody) },
		func() body { return new(CodeFetchBody) },
		func() body { return new(CodeBundleBody) },
		func() body { return new(HomeEventBody) },
	}
	return samples, zero
}

// TestBodiesRejectOldFormats: a payload whose first byte is not the body
// version — version 0, the retired versions 1 and 2 (whose home event
// carried no sequence), version 4, a gob stream, nothing — is
// wire.ErrMalformed and leaves the body untouched; there is no second
// parser to hand it to.
func TestBodiesRejectOldFormats(t *testing.T) {
	samples, zero := codecBodies()
	for i, sample := range samples {
		good := sample.AppendBinary(nil)
		for name, payload := range map[string][]byte{
			"version 0": append([]byte{0}, good[1:]...),
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

// TestDigestTravelsRaw: a real digest — 64 lower-case hex digits — costs
// 33 bytes on the wire where its string took 65, comes back the same
// string, and converts without touching the heap beyond that string; any
// other spelling rides the string form; and each has only its one encoding.
func TestDigestTravelsRaw(t *testing.T) {
	digest := bundleDigest([]byte("bundle"))
	for _, d := range []string{digest, "", "abc", strings.ToUpper(digest), digest[:63] + "g", digest + "00"} {
		enc := appendDigest(nil, d)
		wantSize := 1 + len(wire.AppendString(nil, d))
		if d == digest {
			wantSize = 33
		}
		if len(enc) != wantSize {
			t.Errorf("%q: %d bytes, want %d", d, len(enc), wantSize)
		}
		got, rest, err := decodeDigest(enc)
		if err != nil || got != d || len(rest) != 0 {
			t.Errorf("%q: decoded %q, %v, %d bytes left", d, got, err, len(rest))
		}
	}
	raw := appendDigest(nil, digest)
	for name, enc := range map[string][]byte{
		"empty":                  nil,
		"31-byte raw digest":     raw[:32],
		"unknown flag":           append([]byte{2}, raw[1:]...),
		"hex digest as a string": wire.AppendString([]byte{digestString}, digest),
		"truncated string":       {digestString, 5, 'a'},
	} {
		if got, _, err := decodeDigest(enc); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: decoded %q, %v; want wire.ErrMalformed", name, got, err)
		}
	}
	body := TransferBody{Record: []byte("NR"), TransferID: "sa/boot/2", CodeDigest: digest}
	dst := body.AppendBinary(nil)
	if n := testing.AllocsPerRun(100, func() { dst = body.AppendBinary(dst[:0]) }); n != 0 {
		t.Errorf("encoding a transfer with a digest: %v allocs, want 0", n)
	}
	var out TransferBody
	// The transfer ID and the digest: one string each, as before.
	if n := testing.AllocsPerRun(100, func() { _ = out.Decode(dst) }); n != 2 {
		t.Errorf("decoding a transfer with a digest: %v allocs, want 2", n)
	}
}

// TestBlobBodiesReserveOnce: the two bodies that can carry a code bundle
// make room for it before the first append, so a MiB of code is written
// into scratch that already fits it: growing as the fields arrive would end
// a quarter over and have copied the bundle again to get there. (The
// transfer ID is longer than the allocator's rounding of a MiB can absorb,
// so what follows the bundle cannot fit by luck.)
func TestBlobBodiesReserveOnce(t *testing.T) {
	blob := make([]byte, 1<<20)
	for _, b := range []body{
		&CodeBundleBody{Data: blob},
		&TransferBody{Record: []byte("NR"), Code: blob, TransferID: strings.Repeat("t", 16<<10), CodeDigest: bundleDigest(blob)},
	} {
		enc := b.AppendBinary(make([]byte, 0, 4096))
		if cap(enc) > len(enc)+len(enc)/8 {
			t.Errorf("%T: %d bytes ended in scratch of %d: it grew after the bundle went in", b, len(enc), cap(enc))
		}
	}
}

// TestEncodeRecordAllocations holds what the migration codecs take from the
// heap on a mid-tour record and a 256-byte message. To encode, a record
// costs its one exact-size slice and the address book's sorted listing,
// taken once. To decode, it costs 26 (42 while the state, book and log were
// decoded on landing): they keep one copy of their bytes instead.
func TestEncodeRecordAllocations(t *testing.T) {
	rec := midTourRecord(t)
	enc, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if want := rec.AppendBinary(nil); !bytes.Equal(enc, want) || cap(enc) != len(enc) {
		t.Errorf("EncodeRecord: %d bytes (cap %d), want the record's own %d", len(enc), cap(enc), len(want))
	}
	if raceEnabled {
		return
	}
	msg := naplet.Message{
		ID:      "sa/m-17",
		From:    id.MustNew("czxu", "sa", codecTime),
		To:      id.MustNew("amgr", "sb", codecTime),
		Class:   naplet.UserMessage,
		Subject: "price-quote",
		Body:    make([]byte, 256),
		SentAt:  codecTime,
	}
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"record encode", 3, func() { EncodeRecord(rec) }},
		{"record decode", 26, func() { DecodeRecord(enc) }},
		{"mail round trip", 6, func() { naplet.DecodeMessageBinary(wire.EncodeBody(&msg)) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n > tc.max {
			t.Errorf("%s: %v allocs, want at most %v", tc.name, n, tc.max)
		}
	}
}

// gobStream is what a gob-era sender would have put in a payload.
func gobStream(t *testing.T) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Codebase, Home string }{"test.Agent", "sa"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeBodies feeds arbitrary bytes to every body decoder: no panic,
// allocation bounded by the input length, and whatever decodes re-encodes,
// decodes again to an equal value, and was the one encoding of that value
// to begin with.
func FuzzDecodeBodies(f *testing.F) {
	samples, zero := codecBodies()
	for i, sample := range samples {
		enc := sample.AppendBinary(nil)
		f.Add(uint8(i), enc)
		f.Add(uint8(i), enc[:len(enc)/2])
	}
	f.Add(uint8(0), []byte{bodyCodecVersion, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// The direct path's shapes: a code-less transfer naming its digest, the
	// re-ask that answers it on a cold dock, and a plain acceptance.
	direct := (&TransferBody{Record: []byte("NR\x03rec"), TransferID: "sa/boot/2", CodeDigest: strings.Repeat("a", 64)}).AppendBinary(nil)
	f.Add(uint8(2), direct)
	f.Add(uint8(2), direct[:len(direct)-1]) // a 31-byte raw digest
	f.Add(uint8(3), (&TransferAckBody{NeedCode: true}).AppendBinary(nil))
	f.Add(uint8(3), (&TransferAckBody{Accepted: true}).AppendBinary(nil))
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
		// Bodies ignore bytes past their last field, so the input may be
		// longer than canonical, never different before that.
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("%T: accepted body is not canonical:\n  in %x\n out %x", got, data, enc)
		}
	})
}

// TestRecordRejectsOldFormats: a gob-encoded record, and a record with the
// NR magic but a retired version byte, fail with a descriptive error.
func TestRecordRejectsOldFormats(t *testing.T) {
	rec := record(t, nil, "a")
	good, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte(nil), good...)
	v2[2] = 2
	for name, data := range map[string][]byte{"gob": gobStream(t), "NR version 2": v2} {
		got, err := DecodeRecord(data)
		if err == nil || got != nil {
			t.Errorf("%s: DecodeRecord = %v, %v; want nil and an error", name, got, err)
		}
	}
	if _, err := DecodeRecord(v2); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("NR version 2: error %v does not name the version", err)
	}
	if _, err := DecodeRecord(gobStream(t)); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("gob: error %v, want wire.ErrMalformed", err)
	}
}
