package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// fuzzSeeds returns a corpus of valid encoded frames plus hostile inputs:
// truncated headers, oversized length prefixes, and garbage bodies.
func fuzzSeeds(tb testing.TB) [][]byte {
	frames := []Frame{
		{Kind: KindPost, From: "a", To: "b", Seq: 1, Payload: []byte("hello")},
		{Kind: KindNapletTransfer, From: "server-α", To: "数据中心", Seq: 1 << 40, Payload: make([]byte, 300)},
		{},
	}
	var seeds [][]byte
	for _, f := range frames {
		data, err := Encode(f)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data, data[:len(data)/2])
	}
	budgeted, err := Encode(Frame{Kind: KindDirRegister, From: "a", To: "b", Seq: PackBudget(7, MaxBudget), Payload: []byte{1}})
	if err != nil {
		tb.Fatal(err)
	}
	v1 := []byte{0, 0, 0, 5, 1, 'k', 0, 0, 7} // a version-1 frame: no version bits
	seeds = append(seeds,
		budgeted,
		v1,
		append(lengthWord(MaxFrameSize+1), 0, 0, 0, 0),                                  // hostile length
		append(lengthWord(4), 0, 200, 'a', 'b'),                                         // escaped kind's length overruns body
		append(lengthWord(4), byte(len(kindTable)), 0, 0, 0),                            // kind byte past the table
		append(lengthWord(4), 1, 0, 0, 0x80),                                            // dangling uvarint continuation
		append(lengthWord(4), 1, 0, 0, 0x01),                                            // budget flag with no budget bytes
		append(lengthWord(8), 1, 0, 0, 0x01, 0xff, 0xff, 0xff, 0x7f),                    // budget past its 22 bits
		append(lengthWord(11), 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x01), // budgeted sequence past its 41 bits
		[]byte{0xff, 0xff},             // short length word
		bytes.Repeat([]byte{0x80}, 32), // varint that never terminates
	)
	return seeds
}

// FuzzDecode feeds arbitrary bytes to Decode: it must never panic, must
// never report consuming more bytes than it was given, and any frame it
// does accept must survive a canonical re-encode round trip.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data)
		if err != nil {
			return
		}
		if n < 4 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A table kind sent through the escape makes the input longer
		// than canonical; nothing makes it shorter.
		if fr.EncodedSize() > n {
			t.Fatalf("EncodedSize %d exceeds consumed %d", fr.EncodedSize(), n)
		}
		re, err := Encode(fr)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, m, err := Decode(re)
		if err != nil || m != len(re) {
			t.Fatalf("re-decode: n=%d err=%v", m, err)
		}
		if back.Kind != fr.Kind || back.From != fr.From || back.To != fr.To ||
			back.Seq != fr.Seq || !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", back, fr)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the streaming reader: no panics,
// no over-reads, and hostile length prefixes must be rejected before any
// large allocation. An accepted first frame is also replayed as a stream —
// the frame, copies of it under other names, then the rest of the input —
// and every frame one Reader reads back to back, into reused scratch, must
// equal Decode of the same bytes: a stale remembered From or To fails it.
func FuzzReadFrame(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	var stream []byte
	for _, fr := range []Frame{
		{Kind: KindPost, From: "dock-a:1", To: "dock-b:2", Seq: 1, Payload: []byte("one")},
		{Kind: KindPostConfirm, From: "dock-b:2", To: "dock-a:1", Seq: 1},
		{Kind: "app.kind", From: "dock-b:2", To: "dock-c:3", Seq: 2, Payload: []byte("two")},
	} {
		data, err := Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		stream = append(stream, data...)
	}
	f.Add(stream)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := NewReader(bytes.NewReader(data)).Next(nil)
		if err != nil {
			return
		}
		if fr.EncodedSize() > len(data) {
			t.Fatalf("accepted frame of size %d from %d input bytes", fr.EncodedSize(), len(data))
		}
		_, n, err := Decode(data)
		if err != nil {
			t.Fatalf("Reader accepted a frame Decode refuses: %v", err)
		}
		stream := append([]byte(nil), data[:n]...)
		for _, names := range [][2]string{{fr.To, fr.From + "'"}, {fr.From, fr.To}, {"", fr.To + "'"}} {
			g := fr
			g.From, g.To = names[0], names[1]
			if stream, err = appendFrame(stream, &g); err != nil {
				return
			}
		}
		stream = append(stream, data[n:]...)
		r := NewReader(bytes.NewReader(stream))
		var scratch []byte
		for off := 0; ; {
			want, m, derr := Decode(stream[off:])
			var got Frame
			var rerr error
			got, scratch, rerr = r.Next(scratch)
			if derr != nil {
				if rerr == nil {
					t.Fatalf("at %d: Reader accepted %+v where Decode failed: %v", off, got, derr)
				}
				return
			}
			if rerr != nil {
				t.Fatalf("at %d: Reader failed where Decode accepted: %v", off, rerr)
			}
			if got.Kind != want.Kind || got.From != want.From || got.To != want.To ||
				got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("at %d: Reader read %+v, Decode %+v", off, got, want)
			}
			off += m
		}
	})
}

// FuzzDecodeError feeds arbitrary bytes to the error-reply decoder: no
// panic, allocation bounded by the input length, and whatever decodes
// re-encodes and decodes again to an equal value.
func FuzzDecodeError(f *testing.F) {
	golden := (&Error{Code: "overloaded", Message: "gate: queue full"}).AppendBinary(nil)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte(`{"Code":"handler"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := got.Decode(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+1<<18) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc := got.AppendBinary(nil)
		var again Error
		if err := again.Decode(enc); err != nil || again != got {
			t.Fatalf("re-decode of an accepted error: %+v, %v; want %+v", again, err, got)
		}
	})
}
