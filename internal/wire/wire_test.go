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

func TestDecodeOversizedPrefix(t *testing.T) {
	var data [8]byte
	binary.BigEndian.PutUint32(data[:], MaxFrameSize+1)
	if _, _, err := Decode(data[:]); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestReadWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	a, _ := NewFrame(KindPost, "x", "y", &testBody{Name: "1"})
	b, _ := NewFrame(KindPostConfirm, "y", "x", &testBody{Name: "2"})
	if err := WriteFrame(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, b); err != nil {
		t.Fatal(err)
	}
	ra, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Kind != KindPost || rb.Kind != KindPostConfirm {
		t.Fatalf("stream order broken: %v %v", ra.Kind, rb.Kind)
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF at end of stream, got %v", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	f, _ := NewFrame(KindPost, "a", "b", &testBody{Data: make([]byte, 100)})
	data, _ := Encode(f)
	r := bytes.NewReader(data[:len(data)-10])
	if _, err := ReadFrame(r); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// allKinds enumerates every protocol kind the framework defines, for
// round-trip coverage.
var allKinds = []Kind{
	KindLandingRequest, KindLandingReply, KindNapletTransfer, KindTransferAck,
	KindCodeFetch, KindCodeBundle,
	KindDirRegister, KindDirLookup, KindDirReply,
	KindPost, KindPostConfirm, KindPostForward,
	KindControl, KindControlReply, KindReport, KindHomeEvent,
	KindLocatorQuery, KindLocatorReply, KindServiceInvoke, KindServiceReply,
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, k := range allKinds {
		in := Frame{Kind: k, From: "src", To: "dst", Seq: 9, Payload: []byte{0xff, 0, 1}}
		data, err := Encode(in)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		out, n, err := Decode(data)
		if err != nil || n != len(data) {
			t.Fatalf("%s: decode n=%d err=%v", k, n, err)
		}
		if out.Kind != in.Kind || out.From != in.From || out.To != in.To ||
			out.Seq != in.Seq || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("%s: round trip mismatch: %+v", k, out)
		}
	}
}

// TestEncodedSizeMatchesEncode pins the regression the old gob codec had:
// EncodedSize must be byte-exact against Encode for every frame shape,
// including the empty payload, a body of exactly MaxFrameSize, and
// multi-byte UTF-8 addresses.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	maxFrame := Frame{Kind: KindNapletTransfer, From: "origin", To: "dest"}
	maxFrame.Payload = make([]byte, MaxFrameSize-maxFrame.headerSize())
	frames := []Frame{
		{},
		{Kind: KindPost, From: "a", To: "b"},
		{Kind: KindPost, From: "a", To: "b", Seq: 1 << 63, Payload: []byte("x")},
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
	if err := WriteFrame(io.Discard, f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame: want ErrFrameTooLarge, got %v", err)
	}
}

func TestDecodeMalformedHeader(t *testing.T) {
	cases := map[string][]byte{
		// Body length says 3 but the kind length prefix claims 200 bytes.
		"length overrun": {0, 0, 0, 3, 200, 'a', 'b'},
		// Body present but empty: no header fields at all.
		"empty body": {0, 0, 0, 0},
		// Unterminated uvarint for Seq (continuation bit set at end).
		"dangling varint": {0, 0, 0, 4, 0, 0, 0, 0x80},
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
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, w := range want {
		got, grown, err := ReadFrameReuse(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		scratch = grown
		if got.Kind != w.Kind || got.Seq != w.Seq || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("frame %d mismatch: %+v", i, got)
		}
	}
	if _, _, err := ReadFrameReuse(&buf, scratch); !errors.Is(err, io.EOF) {
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
				if err := WriteFrame(io.Discard, f); err != nil {
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
	e := NewError("denied", "no LANDING permission for %s", "naplet-1")
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
	if len(enc) != in.EncodedSize() {
		t.Fatalf("EncodedSize %d, encoded %d", in.EncodedSize(), len(enc))
	}
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
