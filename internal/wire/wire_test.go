package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

type testBody struct {
	Name  string
	Count int
	Data  []byte
}

func TestMarshalUnmarshal(t *testing.T) {
	in := testBody{Name: "x", Count: 3, Data: []byte{1, 2}}
	payload, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out testBody
	if err := Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Count != in.Count || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestNewFrameAndBody(t *testing.T) {
	f, err := NewFrame(KindPost, "a", "b", &testBody{Name: "msg"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindPost || f.From != "a" || f.To != "b" {
		t.Fatalf("frame header: %+v", f)
	}
	var body testBody
	if err := f.Body(&body); err != nil {
		t.Fatal(err)
	}
	if body.Name != "msg" {
		t.Fatalf("body = %+v", body)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f, _ := NewFrame(KindDirLookup, "s1", "s2", &testBody{Name: "q", Count: 7})
	f.Seq = 42
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Fatalf("consumed %d of %d", n, len(data))
	}
	if got.Kind != f.Kind || got.From != f.From || got.To != f.To || got.Seq != 42 {
		t.Fatalf("decoded header: %+v", got)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestDecodeTruncated(t *testing.T) {
	f, _ := NewFrame(KindPost, "a", "b", &testBody{})
	data, _ := Encode(f)
	for _, cut := range []int{0, 1, 3, len(data) - 1} {
		if _, _, err := Decode(data[:cut]); !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(%d bytes): %v, want ErrTruncated", cut, err)
		}
	}
}

// lengthWord builds a current-version length word announcing n body bytes.
func lengthWord(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, frameVersion<<versionShift|n)
}

func TestDecodeOversizedPrefix(t *testing.T) {
	data := append(lengthWord(MaxFrameSize+1), 0, 0, 0, 0)
	if _, _, err := Decode(data); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestReadWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	a, _ := NewFrame(KindPost, "x", "y", &testBody{Name: "1"})
	b, _ := NewFrame(KindPostConfirm, "y", "x", &testBody{Name: "2"})
	if _, err := WriteFrame(&buf, a); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFrame(&buf, b); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	ra, _, err := r.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := r.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Kind != KindPost || rb.Kind != KindPostConfirm {
		t.Fatalf("stream order broken: %v %v", ra.Kind, rb.Kind)
	}
	if _, _, err := r.Next(nil); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF at end of stream, got %v", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	f, _ := NewFrame(KindPost, "a", "b", &testBody{Data: make([]byte, 100)})
	data, _ := Encode(f)
	r := NewReader(bytes.NewReader(data[:len(data)-10]))
	if _, _, err := r.Next(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	if _, _, err := NewReader(bytes.NewReader(lengthWord(MaxFrameSize + 1))).Next(nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestRoundTripAllKinds: every kind the framework defines is in the table
// and travels as one byte; a kind outside it rides the escape as a string,
// and a kind byte past the table is malformed.
func TestRoundTripAllKinds(t *testing.T) {
	roundTrip := func(k Kind) []byte {
		t.Helper()
		in := Frame{Kind: k, From: "src", To: "dst", Seq: 9, Payload: []byte{0xff, 0, 1}}
		data, err := Encode(in)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		out, n, err := Decode(data)
		if err != nil || n != len(data) || n != in.EncodedSize() {
			t.Fatalf("%s: decode n=%d of %d (EncodedSize %d) err=%v", k, n, len(data), in.EncodedSize(), err)
		}
		if out.Kind != in.Kind || out.From != in.From || out.To != in.To ||
			out.Seq != in.Seq || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("%s: round trip mismatch: %+v", k, out)
		}
		return data
	}
	seen := map[Kind]bool{}
	for code, k := range kindTable {
		if code == kindEscape {
			continue
		}
		if k == "" || seen[k] {
			t.Fatalf("kind table code %d: empty or repeated kind %q", code, k)
		}
		seen[k] = true
		// 4 length word, 1 kind, 4+4 addresses, 1 seq, 3 payload.
		if data := roundTrip(k); len(data) != 17 || data[4] != byte(code) {
			t.Errorf("%s: %d bytes with kind byte %d, want 17 with %d", k, len(data), data[4], code)
		}
	}
	for _, k := range []Kind{"", "app.probe", KindReport + ".error", "приложение.зонд"} {
		if data := roundTrip(k); len(data) != 17+sizeString(string(k)) || data[4] != kindEscape {
			t.Errorf("%q: %d bytes with kind byte %d, want the escape and the string", k, len(data), data[4])
		}
	}
	data := roundTrip(KindPost)
	data[4] = byte(len(kindTable))
	if _, _, err := Decode(data); !errors.Is(err, ErrMalformed) {
		t.Fatalf("kind byte past the table: %v, want ErrMalformed", err)
	}
}

// TestKindTableIsComplete: a kind added to the const block without a table
// code would still work, through the escape, at twenty bytes a frame; this
// fails instead. The list is every Kind constant of wire.go.
func TestKindTableIsComplete(t *testing.T) {
	for _, k := range []Kind{
		KindLandingRequest, KindLandingReply, KindNapletTransfer, KindTransferAck,
		KindCodeFetch, KindCodeBundle,
		KindDirRegister, KindDirLookup, KindDirReply, KindDirDeregister,
		KindPost, KindPostConfirm, KindPostForward,
		KindControl, KindControlReply, KindReport, KindHomeEvent,
		KindLocatorQuery, KindLocatorReply, KindLocatorInvalidate,
		KindServiceInvoke, KindServiceReply,
		KindFleetRegister, KindFleetHeartbeat, KindFleetEvents, KindFleetSubscribe,
		KindFleetWave, KindFleetNodes, KindFleetReply,
		KindSNMPRequest, KindSNMPReply, KindSNMPTrap,
	} {
		if kindCodes[k] == kindEscape {
			t.Errorf("%s has no table code", k)
		}
	}
	if len(kindCodes) != len(kindTable)-1 {
		t.Errorf("%d codes for %d table entries", len(kindCodes), len(kindTable)-1)
	}
}

// TestEncodedSizeMatchesEncode pins the regression the old gob codec had:
// EncodedSize must be byte-exact against Encode for every frame shape,
// including the empty payload, a body of exactly MaxFrameSize, and
// multi-byte UTF-8 addresses.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	maxFrame := Frame{Kind: KindNapletTransfer, From: "origin", To: "dest"}
	maxFrame.Payload = make([]byte, MaxFrameSize-maxFrame.headerSize(kindCodes[maxFrame.Kind]))
	frames := []Frame{
		{},
		{Kind: KindPost, From: "a", To: "b"},
		{Kind: KindPost, From: "a", To: "b", Seq: 1 << 63, Payload: []byte("x")},
		{Kind: KindPost, From: "a", To: "b", Seq: 1<<63 - 1},
		{Kind: KindPost, From: "a", To: "b", Seq: ^uint64(0)},
		{Kind: "приложение.зонд", From: "сервер-α", To: "数据中心", Seq: 300, Payload: []byte("πληρωμή")},
		{Kind: KindDirLookup, From: "s1", To: "s2", Seq: 127, Payload: make([]byte, 4096)},
		maxFrame,
	}
	for i, f := range frames {
		data, err := Encode(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got, want := f.EncodedSize(), len(data); got != want {
			t.Errorf("frame %d: EncodedSize=%d, len(Encode)=%d", i, got, want)
		}
	}
}

func TestEncodeRejectsOversizedBody(t *testing.T) {
	f := Frame{Kind: KindPost, Payload: make([]byte, MaxFrameSize+1)}
	if _, err := Encode(f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if _, err := WriteFrame(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame: want ErrFrameTooLarge, got %v", err)
	}
}

func TestDecodeMalformedHeader(t *testing.T) {
	cases := map[string][]byte{
		// Body length says 4 but the escaped kind's length claims 200 bytes.
		"length overrun": append(lengthWord(4), 0, 200, 'a', 'b'),
		// Body present but empty: no header fields at all.
		"empty body": lengthWord(0),
		// Unterminated uvarint for Seq (continuation bit set at end).
		"dangling varint": append(lengthWord(4), 1, 0, 0, 0x80),
		// The budget flag with no budget bytes after it.
		"budget flag alone": append(lengthWord(4), 1, 0, 0, 0x01),
		// A varint in other than its shortest form.
		"over-long varint": append(lengthWord(5), 1, 0, 0, 0x82, 0x00),
	}
	for name, data := range cases {
		if _, _, err := Decode(data); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: want ErrMalformed, got %v", name, err)
		}
	}
}

func TestReadFrameReuse(t *testing.T) {
	var buf bytes.Buffer
	want := []Frame{
		{Kind: KindPost, From: "x", To: "y", Seq: 1, Payload: []byte("first")},
		{Kind: KindPostConfirm, From: "y", To: "x", Seq: 2, Payload: bytes.Repeat([]byte("grow"), 512)},
		{Kind: KindReport, From: "x", To: "z", Seq: 3},
	}
	for _, f := range want {
		if _, err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	var scratch []byte
	for i, w := range want {
		got, grown, err := r.Next(scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		scratch = grown
		if got.Kind != w.Kind || got.From != w.From || got.To != w.To || got.Seq != w.Seq || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("frame %d mismatch: %+v", i, got)
		}
	}
	if _, _, err := r.Next(scratch); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestWriteFrameConcurrent exercises the encode buffer pool from many
// goroutines; run under -race it guards the sync.Pool sharing.
func TestWriteFrameConcurrent(t *testing.T) {
	f, _ := NewFrame(KindPost, "a", "b", &testBody{Data: make([]byte, 512)})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := WriteFrame(io.Discard, f); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestEncodedSizeGrowsWithPayload(t *testing.T) {
	small, _ := NewFrame(KindPost, "a", "b", &testBody{})
	big, _ := NewFrame(KindPost, "a", "b", &testBody{Data: make([]byte, 4096)})
	if small.EncodedSize() <= 0 {
		t.Fatal("size must be positive")
	}
	if big.EncodedSize() <= small.EncodedSize()+4000 {
		t.Fatalf("size must reflect payload: small=%d big=%d", small.EncodedSize(), big.EncodedSize())
	}
}

func TestWireError(t *testing.T) {
	e := &Error{Code: "denied", Message: "no LANDING permission for naplet-1"}
	if e.Error() != "denied: no LANDING permission for naplet-1" {
		t.Fatalf("Error() = %q", e.Error())
	}
	bare := &Error{Message: "just text"}
	if bare.Error() != "just text" {
		t.Fatalf("Error() = %q", bare.Error())
	}
}

func TestPropEncodeDecodeRoundTrip(t *testing.T) {
	f := func(kind string, from, to string, seq uint64, payload []byte) bool {
		in := Frame{Kind: Kind(kind), From: from, To: to, Seq: seq, Payload: payload}
		data, err := Encode(in)
		if err != nil {
			return false
		}
		if in.EncodedSize() != len(data) {
			return false
		}
		out, n, err := Decode(data)
		if err != nil || n != len(data) {
			return false
		}
		return out.Kind == in.Kind && out.From == in.From && out.To == in.To &&
			out.Seq == in.Seq && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropDecodeNeverPanicsOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		Decode(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestErrorCodec: the error reply is [version] [code] [message], survives
// encode→decode→encode byte for byte, and rejects what is not that.
func TestErrorCodec(t *testing.T) {
	in := Error{Code: "deadline-past", Message: "budget spent before dispatch"}
	enc := in.AppendBinary(nil)
	want := append([]byte{1, 13}, "deadline-past"...)
	want = append(append(want, 28), "budget spent before dispatch"...)
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding %x, want %x", enc, want)
	}
	var out Error
	if err := out.Decode(enc); err != nil || out != in {
		t.Fatalf("decoded %+v, %v", out, err)
	}
	if re := out.AppendBinary(nil); !bytes.Equal(re, enc) {
		t.Fatalf("re-encoding %x, want %x", re, enc)
	}
	for name, payload := range map[string][]byte{
		"empty":     nil,
		"version 0": append([]byte{0}, enc[1:]...),
		"version 2": append([]byte{2}, enc[1:]...),
		"json":      []byte(`{"Code":"handler","Message":"x"}`),
		"truncated": enc[:len(enc)-3],
	} {
		var got Error
		if err := got.Decode(payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Decode error = %v, want ErrMalformed", name, err)
		}
	}
}

// BenchmarkStreamWriteRead writes a 1 KiB frame to a stream and reads it
// back into reused scratch: the per-frame codec cost of a connection, where
// BenchmarkFrameCodec (bench_test.go) is the one-shot Encode/Decode pair.
func BenchmarkStreamWriteRead(b *testing.B) {
	f := Frame{Kind: KindPost, From: "station", To: "device-7", Seq: 42, Payload: make([]byte, 1024)}
	var buf bytes.Buffer
	r := NewReader(&buf)
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		var err error
		if _, scratch, err = r.Next(scratch); err != nil {
			b.Fatal(err)
		}
	}
}
