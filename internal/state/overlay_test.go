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

// overlayKeys are the keys a script draws from: keys that share starts of
// every length, so a written key lands between encoded ones and changes
// how its neighbours front-code, and two that share past the clamp.
var overlayKeys = []string{
	"", "a", "ab", "abc", "b", "ba",
	"dev/01", "dev/02", "dev/10", "route",
	strings.Repeat("x", 70) + "1", strings.Repeat("x", 70) + "2",
}

// overlayPrefixes are the prefixes a script lists keys by.
var overlayPrefixes = []string{"", "a", "ab", "b", "dev/", "dev/1", "r", strings.Repeat("x", 70), "z"}

// model is what a state should hold: an entry per key, encoded as the
// package encodes it, kept in a plain map.
type model map[string]entry

func (m model) set(key string, value any, mode Mode, servers ...string) {
	payload, err := encodeValue(value)
	if err != nil {
		panic(err)
	}
	e := entry{Mode: mode, Payload: payload}
	if mode == Protected {
		names := slices.Clone(servers)
		slices.Sort(names)
		e.Servers = wire.AppendStrings(nil, names)
	}
	m[key] = e
}

// get is the entry under key if server may access it ("" for the naplet).
func (m model) get(key, server string) (entry, error) {
	e, ok := m[key]
	if !ok {
		return e, ErrNoSuchKey
	}
	names, _, _ := wire.DecStrings(e.Servers)
	if server != "" && e.Mode != Public && (e.Mode != Protected || !slices.Contains(names, server)) {
		return e, ErrForbidden
	}
	return e, nil
}

// keys lists the keys that start with prefix and that server may access.
func (m model) keys(prefix, server string) []string {
	var keys []string
	for k := range m {
		if _, err := m.get(k, server); err == nil && strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// value decodes what a read of key by server answers.
func (m model) value(key, server string) (any, error) {
	e, err := m.get(key, server)
	if err != nil {
		return nil, err
	}
	return decodePayload(e.Payload)
}

// same reports whether an answer matches the model's: the same value, and
// an error that is the model's sentinel, or none.
func same(got any, gotErr error, want any, wantErr error) bool {
	if wantErr != nil {
		return errors.Is(gotErr, wantErr)
	}
	return gotErr == nil && reflect.DeepEqual(got, want)
}

// overlayPairs draws a status reply's pairs for SetStringMap: keys may
// repeat, and the later pair is the one a map keeps.
func overlayPairs(k, v byte) ([][2]string, map[string]string) {
	pairs := make([][2]string, int(v%6))
	m := make(map[string]string, len(pairs))
	for i := range pairs {
		pairs[i] = [2]string{overlayKeys[(int(k)+i*int(v))%len(overlayKeys)], fmt.Sprint(i)}
		m[pairs[i][0]] = pairs[i][1]
	}
	return pairs, m
}

// runOverlayOp applies one script step to st and to the model, returning
// the state to carry on with and, on a mismatch, what differed.
func runOverlayOp(st *State, m model, op, k, v byte) (*State, string) {
	key := overlayKeys[int(k)%len(overlayKeys)]
	server := fmt.Sprintf("s%d", v%3)
	mode := Mode(v % 3)
	switch op % 11 {
	case 0:
		var value any = int(v)
		if v&4 != 0 {
			value = []string{key, server}
		}
		m.set(key, value, mode, server, "s2")
		if err := st.Set(key, value, mode, server, "s2"); err != nil {
			return st, fmt.Sprint("Set: ", err)
		}
	case 1:
		pairs, value := overlayPairs(k, v)
		m.set(key, value, mode, server)
		st.SetStringMap(key, pairs, mode, server)
	case 2:
		delete(m, key)
		st.Delete(key)
	case 3:
		want, wantErr := m.value(key, "")
		got, err := st.Get(key)
		mode, merr := st.ModeOf(key)
		if !same(got, err, want, wantErr) || !same(mode, merr, m[key].Mode, wantErr) || st.Has(key) != (wantErr == nil) {
			return st, fmt.Sprintf("Get %v, %v; ModeOf %v, %v; Has %v; want %v, %v", got, err, mode, merr, st.Has(key), want, wantErr)
		}
	case 4:
		_, wantErr := m.get(key, server)
		if wantErr == nil {
			e := m[key]
			e.Payload, _ = encodeValue(int(v))
			m[key] = e
		}
		if err := st.ServerView(server).Update(key, int(v)); !same(nil, err, nil, wantErr) {
			return st, fmt.Sprintf("ServerView(%s).Update: %v, want %v", server, err, wantErr)
		}
	case 5:
		want, wantErr := m.value(key, server)
		if got, err := st.ServerView(server).Get(key); !same(got, err, want, wantErr) {
			return st, fmt.Sprintf("ServerView(%s).Get: %v, %v; want %v, %v", server, got, err, want, wantErr)
		}
	case 6:
		prefix := overlayPrefixes[int(v)%len(overlayPrefixes)]
		all, view, listed := st.Keys(), st.ServerView(server).Keys(), st.KeysWithPrefix(prefix)
		if !reflect.DeepEqual(all, m.keys("", "")) || !reflect.DeepEqual(view, m.keys("", server)) || !reflect.DeepEqual(listed, m.keys(prefix, "")) {
			return st, fmt.Sprintf("Keys %q, ServerView(%s).Keys %q, KeysWithPrefix(%q) %q", all, server, view, prefix, listed)
		}
	case 7:
		if n := st.Len(); n != len(m) {
			return st, fmt.Sprintf("Len %d, want %d", n, len(m))
		}
	case 8:
		// The clone carries on; a write to the original must not reach it.
		c := st.Clone()
		st.SetPublic(key, "left behind")
		st.Delete(overlayKeys[int(v)%len(overlayKeys)])
		return c, ""
	case 9:
		landed, rest, err := DecodeBinary(st.AppendBinary(nil))
		if err != nil || len(rest) != 0 {
			return st, fmt.Sprintf("decoding its own encoding: %v, %d bytes left", err, len(rest))
		}
		return landed, ""
	default:
		want, wantErr := m.value(key, "")
		if _, ok := want.(map[string]string); !ok && wantErr == nil {
			wantErr = ErrBadPayload
		}
		if got, err := walkStringMap(st, key); !same(got, err, want, wantErr) {
			return st, fmt.Sprintf("WalkStringMap %v, %v; want %v, %v", got, err, want, wantErr)
		}
	}
	return st, ""
}

// FuzzOverlay holds the state to a model: a byte-driven script of sets
// (by value and by pairs), deletes, reads, server-view reads, updates and
// listings, counts, clones, and round trips through the encoding runs
// against a state and a plain map of entries. Every answer must be the
// model's, and after every step the state must encode to exactly what
// wire.AppendMap writes for the model, tombstones and all.
func FuzzOverlay(f *testing.F) {
	f.Add([]byte{0, 0, 9, 0, 1, 8, 0, 2, 9, 9, 0, 0, 2, 9, 0, 6, 0, 0, 3, 9, 0})
	f.Add([]byte{0, 0, 1, 0, 3, 0, 9, 0, 0, 2, 0, 0, 6, 0, 1, 0, 0, 2, 7, 0, 0, 3, 0, 0})
	f.Add([]byte{1, 10, 3, 1, 11, 5, 1, 6, 4, 9, 0, 0, 10, 10, 0, 10, 11, 0, 6, 0, 4, 6, 0, 7})
	f.Add([]byte{0, 6, 2, 0, 8, 1, 9, 0, 0, 8, 6, 1, 6, 0, 0, 3, 6, 0, 4, 8, 1, 5, 8, 1, 7, 0, 0})
	f.Add([]byte{
		0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 0, 7, 8, 0, 8, 9, 0, 9, 10,
		3, 4, 0, 2, 3, 0, 6, 0, 0, 9, 0, 0, 2, 4, 0, 0, 4, 1, 6, 0, 5, 7, 0, 0,
	})
	f.Add([]byte{0, 2, 1, 9, 0, 0, 4, 2, 1, 4, 2, 0, 5, 2, 1, 1, 2, 2, 10, 2, 0, 8, 2, 1, 3, 2, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 { // a short script reaches every merge case
			return
		}
		st, m := New(), model{}
		for i := 0; i+2 < len(script); i += 3 {
			op, k, v := script[i], script[i+1], script[i+2]
			var diff string
			if st, diff = runOverlayOp(st, m, op, k, v); diff != "" {
				t.Fatalf("step %d (%d %q %d): %s", i/3, op%11, overlayKeys[int(k)%len(overlayKeys)], v, diff)
			}
			if got, want := st.AppendBinary(nil), wire.AppendMap(nil, m, appendEntry); !bytes.Equal(got, want) {
				t.Fatalf("step %d: the state encodes\n  %x\nthe model\n  %x", i/3, got, want)
			}
			if st.Len() != len(m) {
				t.Fatalf("step %d: Len %d, the model holds %d", i/3, st.Len(), len(m))
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
