package wire

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// Test bodies in the three shapes a hop sends: a reply of a few dozen
// bytes (Error itself), a record-bearing transfer, and a MAN report's map.

// blobBody is [bytes], grown once like navigator's blob-bearing bodies.
type blobBody []byte

func (b blobBody) AppendBinary(dst []byte) []byte {
	return AppendBytes(slices.Grow(dst, len(b)+16), b)
}

type mapBody map[string]string

func (m mapBody) AppendBinary(dst []byte) []byte { return AppendStringMap(dst, m) }

// TestBinaryFrameAllocations: a frame's payload is the one allocation
// EncodeBody makes, whatever the body's size, once the pool holds scratch
// that fits it.
func TestBinaryFrameAllocations(t *testing.T) {
	ack := &Error{Code: "deadline-past", Message: "budget spent before dispatch"}
	transfer := blobBody(bytes.Repeat([]byte("r"), 5<<10))
	report := mapBody{}
	for i := 0; i < 300; i++ {
		report["dev"+strconv.Itoa(i/16)+"|1.3.6.1.4.1.9999.1."+strconv.Itoa(i%16)+".0"] = "7"
	}
	for _, tc := range []struct {
		name string
		body BinaryBody
		want float64
	}{
		{"50 B ack", ack, 1},
		{"5 KiB transfer", &transfer, 1},
		// Past smallMapKeys the sort's key list is the second; the size
		// pass used to sort a third.
		{"300-key report", &report, 2},
	} {
		var f Frame
		if n := testing.AllocsPerRun(200, func() { f = BinaryFrame(KindReport, "sa", "sb", tc.body) }); n != tc.want && !raceEnabled {
			t.Errorf("%s: %v allocs per frame, want %v", tc.name, n, tc.want)
		}
		if want := tc.body.AppendBinary(nil); !bytes.Equal(f.Payload, want) || cap(f.Payload) != len(want) {
			t.Errorf("%s: payload of %d bytes (cap %d), want the body's own %d", tc.name, len(f.Payload), cap(f.Payload), len(want))
		}
	}
}

// TestEncodeBodyDoesNotAliasScratch: what EncodeBody returns is the
// caller's alone — the next encode, on this goroutine or another, reuses
// the scratch and must not reach the bytes already handed out.
func TestEncodeBodyDoesNotAliasScratch(t *testing.T) {
	a := EncodeBody(&Error{Code: "a", Message: "first body"})
	keep := bytes.Clone(a)
	EncodeBody(&Error{Code: "b", Message: "a second body, longer than the first"})
	if !bytes.Equal(a, keep) {
		t.Fatalf("a second encode rewrote the first one's bytes: %q, was %q", a, keep)
	}

	const workers, rounds = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			code := strconv.Itoa(w)
			check := func(enc []byte, msg string) bool {
				var got Error
				if err := got.Decode(enc); err != nil || got.Code != code || got.Message != msg {
					t.Errorf("worker %d: decoded %+v, %v; want message %q", w, got, err, msg)
					return false
				}
				return true
			}
			// Each round's bytes are checked twice: fresh, and again after
			// the next round's encode and every other worker's in between.
			held, heldMsg := EncodeBody(&Error{Code: code}), ""
			for i := 0; i < rounds; i++ {
				msg := "worker " + code + " round " + strconv.Itoa(i)
				enc := EncodeBody(&Error{Code: code, Message: msg})
				if !check(enc, msg) || !check(held, heldMsg) {
					return
				}
				held, heldMsg = enc, msg
			}
		}(w)
	}
	wg.Wait()
}

// TestEncodeBodyBlobScratch: a body of a MiB grows its scratch once, to
// fit — not by doubling, which would copy the blob twice over — and that
// scratch is dropped, not left in the pool for every later ack to pin.
func TestEncodeBodyBlobScratch(t *testing.T) {
	blob := blobBody(make([]byte, 1<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	enc := EncodeBody(&blob)
	runtime.ReadMemStats(&after)
	if len(enc) < len(blob) {
		t.Fatalf("encoded %d bytes of a %d-byte blob", len(enc), len(blob))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 5<<19 && !raceEnabled {
		t.Errorf("encoding a 1 MiB body allocated %d bytes, want under 2.5 MiB", grew)
	}
	for i := 0; i < 4; i++ {
		bp := encBufPool.Get().(*[]byte)
		if cap(*bp) > maxPooledBuf {
			t.Fatalf("pooled scratch of %d bytes after a 1 MiB body, want at most %d", cap(*bp), maxPooledBuf)
		}
		defer encBufPool.Put(bp)
	}
}
