package naplet

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder: it must
// never panic or over-allocate, and any record it accepts is the one
// encoding of what it decoded to — encode(decode(x)) == x, byte for byte.
func FuzzDecodeRecord(f *testing.F) {
	golden := goldenRecord(f).AppendBinary(nil)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:3])
	corrupt := append([]byte(nil), golden...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte("NR\x03"))
	f.Add([]byte{'N', 'R', RecordCodecVersion, 0xff, 0xff, 0xff, 0xff, 0xff})
	// A retired version byte, and a state entry whose protection mode
	// is past Public: both must be rejected, not reinterpreted.
	retired := append([]byte(nil), golden...)
	retired[2] = 2
	f.Add(retired)
	mutate := func(at []byte, offset int, to byte) {
		bad := append([]byte(nil), golden...)
		bad[bytes.Index(bad, at)+offset] = to
		f.Add(bad)
	}
	mutate([]byte("\x0abest-price"), 11, 7)
	// Map keys: the second state key ("visited") claiming to share bytes
	// with "best-price" — one it does not have in common, more than the
	// key has.
	mutate([]byte("\x00\x07visited"), 0, 1)
	mutate([]byte("\x00\x07visited"), 0, 11)
	// Log times: the first hop's arrival turned into a delta with no base,
	// and the flag byte of its departure (a delta) turned absolute.
	mutate([]byte("\x04sa:1\x01"), 5, 2)
	mutate([]byte("\x04sb:2\x02"), 5, 1)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecordBinary(data)
		if err != nil {
			return
		}
		enc := rec.AppendBinary(nil)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted record is not canonical:\n  in %x\n out %x", data, enc)
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
