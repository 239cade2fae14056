package naplet

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder: it must
// never panic or over-allocate, and any record it accepts must re-encode
// deterministically (encode(decode(x)) is a fixed point).
func FuzzDecodeRecord(f *testing.F) {
	golden := goldenRecord(f).AppendBinary(nil)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:3])
	corrupt := append([]byte(nil), golden...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte("NR\x02"))
	f.Add([]byte{'N', 'R', 2, 0xff, 0xff, 0xff, 0xff, 0xff})
	// The retired version byte, and a state entry whose protection mode
	// is past Public: both must be rejected, not reinterpreted.
	retired := append([]byte(nil), golden...)
	retired[2] = 1
	f.Add(retired)
	badMode := append([]byte(nil), golden...)
	key := []byte("\x0abest-price")
	badMode[bytes.Index(badMode, key)+len(key)] = 7
	f.Add(badMode)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecordBinary(data)
		if err != nil {
			return
		}
		enc := rec.AppendBinary(nil)
		if len(enc) != rec.EncodedSize() {
			t.Fatalf("EncodedSize %d, encoded %d", rec.EncodedSize(), len(enc))
		}
		rec2, err := DecodeRecordBinary(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if re := rec2.AppendBinary(nil); !bytes.Equal(enc, re) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}

// FuzzDecodeMail is the same property for the message codec.
func FuzzDecodeMail(f *testing.F) {
	golden := goldenMessage(f).AppendBinary(nil)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	corrupt := append([]byte(nil), golden...)
	corrupt[0] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, rest, err := DecodeMessageBinary(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest %d exceeds input %d", len(rest), len(data))
		}
		enc := msg.AppendBinary(nil)
		if len(enc) != msg.EncodedSize() {
			t.Fatalf("EncodedSize %d, encoded %d", msg.EncodedSize(), len(enc))
		}
		msg2, rest2, err := DecodeMessageBinary(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest2))
		}
		if re := msg2.AppendBinary(nil); !bytes.Equal(enc, re) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}
