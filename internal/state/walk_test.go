package state

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// walkStrings reads a []string through a walk.
func walkStrings(s *State, key string) ([]string, error) {
	w, err := s.WalkStrings(key)
	if err != nil {
		return nil, err
	}
	var out []string
	for w.Next() {
		out = append(out, string(w.Value()))
	}
	return out, nil
}

// walkStringMap reads a map[string]string through a walk, checking that
// its keys come in ascending order.
func walkStringMap(s *State, key string) (map[string]string, error) {
	w, err := s.WalkStringMap(key)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, w.Len())
	var prev []byte
	for i := 0; w.Next(); i++ {
		k := w.AppendKey(nil)
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			return nil, errors.New("walk keys out of order: " + string(prev) + " then " + string(k))
		}
		out[string(k)], prev = string(w.Value()), k
	}
	return out, nil
}

// TestWalk: a walk reads what Load reads — from a state built by Set, from
// one decoded and left encoded, and from one written over its encoding —
// refuses what Load refuses, and allocates nothing to read a value.
func TestWalk(t *testing.T) {
	list := []string{"1.3.6.1.2.1.1.5.0", "", "1.3.6.1.2.1.1.3.0"}
	m := map[string]string{"1.3.6.1.2.1.2.2.1.10.2": "7", "1.3.6.1.2.1.2.2.1.10.1": "", "": "empty key"}
	built := New()
	for k, v := range map[string]any{"list": list, "map": m, "int": 7, "none": []string(nil)} {
		if err := built.SetPrivate(k, v); err != nil {
			t.Fatal(err)
		}
	}
	encoded, _, err := DecodeBinary(built.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	written, _, _ := DecodeBinary(built.AppendBinary(nil))
	if err := written.SetPrivate("list", list); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*State{"built": built, "encoded": encoded, "written": written} {
		if got, err := walkStrings(s, "list"); err != nil || !reflect.DeepEqual(got, list) {
			t.Errorf("%s: list walk = %q, %v; want %q", name, got, err, list)
		}
		if got, err := walkStrings(s, "none"); err != nil || got != nil {
			t.Errorf("%s: empty list walk = %q, %v", name, got, err)
		}
		if got, err := walkStringMap(s, "map"); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%s: map walk = %q, %v; want %q", name, got, err, m)
		}
		for _, key := range []string{"map", "int"} {
			if _, err := s.WalkStrings(key); !errors.Is(err, ErrBadPayload) {
				t.Errorf("%s: WalkStrings(%q) = %v, want ErrBadPayload", name, key, err)
			}
		}
		if _, err := s.WalkStringMap("list"); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: WalkStringMap(list) = %v, want ErrBadPayload", name, err)
		}
		if _, err := s.WalkStrings("missing"); !errors.Is(err, ErrNoSuchKey) {
			t.Errorf("%s: WalkStrings(missing) = %v, want ErrNoSuchKey", name, err)
		}
		n := testing.AllocsPerRun(100, func() {
			var key [64]byte
			w, _ := s.WalkStringMap("map")
			for w.Next() {
				w.AppendKey(key[:0])
			}
			w, _ = s.WalkStrings("list")
			for w.Next() {
			}
		})
		if n != 0 && !raceEnabled {
			t.Errorf("%s: walking a list and a map allocates %.0f times, want 0", name, n)
		}
	}
}

// maxWalkErrAllocs is what a refused walk may allocate: its error, wrapped
// twice, with its arguments boxed (7 for trailing bytes past 255).
const maxWalkErrAllocs = 8

// FuzzWalk stores arbitrary bytes as the payload of an entry — in a
// container DecodeBinary accepts, which checks no payload — and walks it
// as both shapes. A walk must accept exactly what Load accepts, with the
// same elements in the same order (a map's in ascending key order), and
// reject the rest with ErrBadPayload; it must never panic, and must read
// an accepted value allocating nothing and refuse one allocating no more
// than its error does, whatever the element count.
func FuzzWalk(f *testing.F) {
	for _, v := range []any{
		[]string{"1.3.6.1.2.1.1.5.0", "", "x"},
		[]string(nil),
		map[string]string{"1.3.6.1.2.1.2.2.1.10.1": "4711", "1.3.6.1.2.1.2.2.1.10.2": "", "": "e"},
		map[string]string{},
		"a string",
		7,
	} {
		enc, err := encodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(enc, 0)) // a trailing byte
	}
	f.Add([]byte{tagStrings, 3, 1, 'a', 1, 'b'})                                    // a count past the elements
	f.Add([]byte{tagStringMap, 2, 0, 1, 'b', 0, 0, 1, 'a', 0})                      // keys out of order
	f.Add([]byte{tagStringMap, 2, 0, 1, 'a', 0, 0, 1, 'a', 0})                      // a duplicate key
	f.Add([]byte{tagStringMap, 2, 0, 1, 'a', 0, 2, 1, 'b', 0})                      // shared past the previous key
	f.Add([]byte{tagStrings, 0x81, 0x00, 1, 'a'})                                   // an over-long count
	f.Add(append([]byte{tagStrings, 0xe8, 0x07}, bytes.Repeat([]byte{0}, 1000)...)) // 1000 empty strings
	f.Fuzz(func(t *testing.T, payload []byte) {
		container := appendEntry(wire.AppendMapKey(wire.AppendUvarint(nil, 1), "", "k"), entry{Payload: payload})
		s, _, err := DecodeBinary(container)
		if err != nil {
			t.Fatalf("a container around the payload does not decode: %v", err)
		}

		var list []string
		loadErr := s.Load("k", &list)
		got, err := walkStrings(s, "k")
		if (err == nil) != (loadErr == nil) || err != nil && !errors.Is(err, ErrBadPayload) {
			t.Fatalf("WalkStrings error %v, Load error %v", err, loadErr)
		}
		if err == nil && !reflect.DeepEqual(got, list) {
			t.Fatalf("WalkStrings read %q, Load %q", got, list)
		}

		var m map[string]string
		loadErr = s.Load("k", &m)
		gotMap, err := walkStringMap(s, "k")
		if (err == nil) != (loadErr == nil) || err != nil && !errors.Is(err, ErrBadPayload) {
			t.Fatalf("WalkStringMap error %v, Load error %v", err, loadErr)
		}
		if err == nil && !reflect.DeepEqual(gotMap, m) {
			t.Fatalf("WalkStringMap read %q, Load %q", gotMap, m)
		}

		if raceEnabled {
			return
		}
		key := make([]byte, 0, len(payload)+64) // room for any key the payload holds
		for _, mapped := range []bool{false, true} {
			var err error
			allocs := testing.AllocsPerRun(1, func() {
				var w Walk
				if mapped {
					w, err = s.WalkStringMap("k")
				} else {
					w, err = s.WalkStrings("k")
				}
				for w.Next() {
					w.AppendKey(key[:0])
				}
			})
			if err == nil && allocs > 0 || allocs > maxWalkErrAllocs {
				t.Fatalf("walking %d bytes as a map (%v) allocated %.0f times (error %v)", len(payload), mapped, allocs, err)
			}
		}
	})
}

// TestSetStringMap: the setter's bytes are those Set writes for the map
// the pairs make — a later pair replacing an earlier one under its key,
// no pairs making an empty map, keys sharing more than the front-coding
// clamp — and a Protected entry's allow list is sorted and enforced alike.
func TestSetStringMap(t *testing.T) {
	long := strings.Repeat("1.3.6.1.2.1.2.2.1.10.", 4)
	for name, pairs := range map[string][][2]string{
		"duplicates": {{"b", "1"}, {"a", "2"}, {"b", "3"}, {"c", ""}, {"a", "4"}, {"b", "5"}},
		"empty":      nil,
		"long keys":  {{long + "2", "x"}, {long + "1", "y"}, {long, "z"}, {"", "empty key"}},
	} {
		want := make(map[string]string)
		for _, p := range pairs {
			want[p[0]] = p[1]
		}
		for _, mode := range []Mode{Private, Protected, Public} {
			byMap, byPairs := New(), New()
			if err := byMap.Set("status", want, mode, "s2", "s1"); err != nil {
				t.Fatal(err)
			}
			byPairs.SetStringMap("status", slices.Clone(pairs), mode, "s2", "s1")
			if got, exp := byPairs.AppendBinary(nil), byMap.AppendBinary(nil); !bytes.Equal(got, exp) {
				t.Fatalf("%s, %v: SetStringMap encodes\n  %x\nSet of the map\n  %x", name, mode, got, exp)
			}
			var got map[string]string
			if err := byPairs.Load("status", &got); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %v: loaded %q, %v; want %q", name, mode, got, err, want)
			}
			for _, server := range []string{"s1", "s2", "s3"} {
				_, err := byPairs.ServerView(server).Get("status")
				_, exp := byMap.ServerView(server).Get("status")
				if (err == nil) != (exp == nil) {
					t.Fatalf("%s, %v: server %s reads with %v, want %v", name, mode, server, err, exp)
				}
			}
		}
	}
}

// TestKeysWithPrefix: a prefix listing reads the keys where they lie, in a
// landed container and over what was written and deleted since, and costs
// one string and the slice, whatever the number of keys.
func TestKeysWithPrefix(t *testing.T) {
	built := New()
	var want []string
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("DeviceStatus/dev%d", i)
		built.SetStringMap(key, [][2]string{{"1.3.6.1.2.1.1.5.0", "core"}}, Protected, "station")
		want = append(want, key)
	}
	for _, key := range []string{"D", "DeviceStatus", "E", "man.params"} {
		if err := built.SetPrivate(key, 1); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(want)
	landed, _, err := DecodeBinary(built.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	written, _, _ := DecodeBinary(built.AppendBinary(nil))
	written.Delete(want[3])
	written.SetPrivate("DeviceStatus/dev99", 1)
	writtenWant := append(slices.Delete(slices.Clone(want), 3, 4), "DeviceStatus/dev99")
	slices.Sort(writtenWant)
	for name, c := range map[string]struct {
		s    *State
		want []string
	}{"built": {built, want}, "landed": {landed, want}, "written": {written, writtenWant}} {
		if got := c.s.KeysWithPrefix("DeviceStatus/"); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: KeysWithPrefix = %q, want %q", name, got, c.want)
		}
		if got := c.s.KeysWithPrefix("nothing"); got != nil {
			t.Fatalf("%s: KeysWithPrefix(nothing) = %q", name, got)
		}
		if n := testing.AllocsPerRun(100, func() { c.s.KeysWithPrefix("DeviceStatus/") }); n > 2 && !raceEnabled {
			t.Errorf("%s: listing %d keys allocates %.0f times, want at most 2", name, len(c.want), n)
		}
	}
}
