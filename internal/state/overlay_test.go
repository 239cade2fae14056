package state

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// overlayKeys are the keys a script draws from: keys that share starts of
// every length, so a written key lands between encoded ones and changes
// how its neighbours front-code, and two that share past the clamp.
var overlayKeys = []string{
	"", "a", "ab", "abc", "b", "ba",
	"dev/01", "dev/02", "dev/10", "route",
	strings.Repeat("x", 70) + "1", strings.Repeat("x", 70) + "2",
}

// runOverlayOp applies one script step to st and renders what it answered.
func runOverlayOp(st *State, op, k, v byte) string {
	key := overlayKeys[int(k)%len(overlayKeys)]
	server := fmt.Sprintf("s%d", v%3)
	switch op % 7 {
	case 0:
		mode := Mode(v % 3)
		var value any = int(v)
		if v&4 != 0 {
			value = []string{key, server}
		}
		return fmt.Sprint(st.Set(key, value, mode, server, "s2"))
	case 1:
		st.Delete(key)
		return ""
	case 2:
		val, err := st.Get(key)
		mode, merr := st.ModeOf(key)
		return fmt.Sprint(val, err, mode, merr)
	case 3:
		return fmt.Sprint(st.ServerView(server).Update(key, int(v)))
	case 4:
		val, err := st.ServerView(server).Get(key)
		return fmt.Sprint(val, err)
	case 5:
		return fmt.Sprint(st.Keys(), st.ServerView(server).Keys())
	default:
		return fmt.Sprint(st.Len())
	}
}

// FuzzOverlay holds a state written while still encoded to one built with
// New: a byte-driven script of sets, deletes, reads and clones runs on a
// state decoded from bytes and on the state it was encoded from, and the
// two answer every step alike and encode to the same bytes after it.
func FuzzOverlay(f *testing.F) {
	f.Add([]byte{2, 0, 9, 1, 0, 8, 2, 0, 9, 5, 2, 9, 0})
	f.Add([]byte{3, 0, 1, 0, 0, 3, 0, 0, 5, 0, 0, 4, 2, 0, 0, 2, 1, 0, 0, 2, 6, 0, 0})
	f.Add([]byte{1, 0, 10, 0, 0, 11, 4, 0, 0, 9, 2, 10, 0, 7, 0, 0, 1, 10, 0})
	f.Add([]byte{2, 0, 6, 2, 0, 8, 1, 3, 6, 1, 3, 7, 2, 4, 6, 1, 0, 7, 6, 1, 7, 0})
	f.Add([]byte{0, 0, 3, 0, 0, 1, 0, 2, 3, 0, 1, 1, 5, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 256 { // a short script reaches every merge case
			return
		}
		// The first byte says how many steps build the landed state.
		before, script := int(script[0]), script[1:]
		eager := New()
		for i := 0; i+2 < len(script) && i < 3*before; i += 3 {
			runOverlayOp(eager, script[i], script[i+1], script[i+2])
		}
		script = script[min(len(script), 3*before):]
		enc := eager.AppendBinary(nil)
		lazy, rest, err := DecodeBinary(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decoding %x: %v, %d bytes left", enc, err, len(rest))
		}
		for i := 0; i+2 < len(script); i += 3 {
			op, k, v := script[i], script[i+1], script[i+2]
			if op%7 == 6 && v%2 == 1 { // a clone carries on in the original's place
				lazy, eager = lazy.Clone(), eager.Clone()
			}
			got, want := runOverlayOp(lazy, op, k, v), runOverlayOp(eager, op, k, v)
			if got != want {
				t.Fatalf("step %d (%d %q %d): the landed state answered %s, the built one %s", i/3, op%7, overlayKeys[int(k)%len(overlayKeys)], v, got, want)
			}
			if got, want := lazy.AppendBinary(nil), eager.AppendBinary(nil); !bytes.Equal(got, want) {
				t.Fatalf("step %d: the landed state encodes\n  %x\nthe built one\n  %x", i/3, got, want)
			}
		}
	})
}

// TestOverlayWriteCost: writing one key of a landed state costs the
// encoded value and the record of the write, whatever else the state
// holds, and leaves every other key encoded.
func TestOverlayWriteCost(t *testing.T) {
	for _, others := range []int{1, 64} {
		st := New()
		for i := 0; i < others; i++ {
			if err := st.SetPublic(fmt.Sprintf("other/%03d", i), i); err != nil {
				t.Fatal(err)
			}
		}
		enc := st.AppendBinary(nil)
		dst := make([]byte, 0, 2*len(enc))
		write := func() {
			landed, _, err := DecodeBinary(enc)
			if err != nil {
				t.Fatal(err)
			}
			if err := landed.SetPrivate("route", 7); err != nil {
				t.Fatal(err)
			}
			dst = landed.AppendBinary(dst[:0])
		}
		write()
		if err := st.SetPrivate("route", 7); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, st.AppendBinary(nil)) {
			t.Fatalf("%d others: the overlaid state encodes unlike the decoded one", others)
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(100, write); n > 4 {
			t.Errorf("decode, one write and the encode beside %d other keys: %v allocs, want at most 4", others, n)
		}
	}
	landed, _, _ := DecodeBinary(New().AppendBinary(nil))
	landed.SetPrivate("k", 1)
	if !reflect.DeepEqual(landed.Keys(), []string{"k"}) || landed.Len() != 1 {
		t.Fatalf("keys after a write on an empty landed state: %v", landed.Keys())
	}
}
