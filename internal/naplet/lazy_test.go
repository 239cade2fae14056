package naplet

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/state"
	"repro/internal/wire"
)

// recordHead returns the golden record's encoding up to its sections.
func recordHead(t testing.TB) []byte {
	t.Helper()
	rec := goldenRecord(t)
	rec.State, rec.Itin, rec.Book, rec.Log = nil, nil, nil, nil
	enc := rec.AppendBinary(nil)
	return enc[:len(enc)-4] // three absent sections and no state
}

// recordWith returns the golden record's encoding with its state,
// itinerary, address book and log replaced by the given bytes (nil:
// absent), each section behind a well-formed length mark and the state
// running to the end.
func recordWith(t testing.TB, sections [4][]byte) []byte {
	t.Helper()
	b := recordHead(t)
	for _, sec := range sections[1:] {
		if sec == nil {
			b = append(b, 0)
			continue
		}
		b = append(wire.AppendUvarint(b, uint64(len(sec))+1), sec...)
	}
	if sections[0] == nil {
		return append(b, 0)
	}
	return append(append(b, 1), sections[0]...)
}

// goldenSections returns the golden record's four sections as they encode
// on their own.
func goldenSections(t testing.TB) [4][]byte {
	rec := goldenRecord(t)
	return [4][]byte{rec.State.AppendBinary(nil), rec.Itin.AppendBinary(nil), rec.Book.AppendBinary(nil), rec.Log.AppendBinary(nil)}
}

// malformedSections are records whose section marks are all well formed
// but one section is not what its encoder writes. Each must be refused by
// the decode, not at the first touch of the section.
func malformedSections(t testing.TB) map[string][]byte {
	g := goldenSections(t)
	with := func(i int, sec []byte) []byte {
		s := g
		s[i] = sec
		return recordWith(t, s)
	}
	payload := []byte{1, 1, 'v'} // a state entry's payload: the string "v"
	entry := func(dst []byte, shared byte, suffix string, mode byte) []byte {
		dst = append(wire.AppendString(append(dst, shared), suffix), mode, 0)
		return wire.AppendBytes(dst, payload)
	}
	a, b := id.MustNew("amgr", "sb2", goldenTime), id.MustNew("czxu", "sa1", goldenTime)
	bookEntry := func(dst []byte, n id.NapletID) []byte { return wire.AppendString(n.AppendBinary(dst), "naplet://x") }
	abs := wire.AppendTime(nil, goldenTime)
	// A log section claiming two bytes where only the state's mark follows.
	overrun := append(recordHead(t), 0, 0, 3, 0)
	return map[string][]byte{
		"state keys descending":          with(0, entry(entry([]byte{2}, 0, "b", 0), 0, "a", 0)),
		"state key repeated":             with(0, entry(entry([]byte{2}, 0, "k", 0), 1, "", 0)),
		"state key shares too little":    with(0, entry(entry([]byte{2}, 0, "ka", 0), 0, "kb", 0)),
		"state mode past public":         with(0, entry([]byte{1}, 0, "k", 7)),
		"state count past its bytes":     with(0, entry([]byte{3}, 0, "k", 0)),
		"state with a trailing byte":     with(0, append(entry([]byte{1}, 0, "k", 0), 0)),
		"itinerary kind unknown":         with(1, []byte{9}),
		"itinerary with a trailing byte": with(1, append(g[1], 0)),
		"book out of order":              with(2, bookEntry(bookEntry([]byte{2}, b), a)),
		"book entry repeated":            with(2, bookEntry(bookEntry([]byte{2}, a), a)),
		"log delta with no base":         with(3, []byte{1, 1, 'a', timeDelta, 2, 0, 0}),
		"log absolute where a delta fits": with(3, append(append(append([]byte{1, 1, 'a'}, abs...),
			wire.AppendTime(nil, goldenTime.Add(time.Second))...), 0)),
		"log time flag unknown":   with(3, append(append([]byte{1, 1, 'a'}, abs...), 3, 2, 0)),
		"empty section":           with(3, []byte{}),
		"section overruns record": overrun,
	}
}

// TestDecodeRecordRejectsMalformedSections: a section is checked in full
// when the record is decoded, although it stays encoded; and a record of
// the previous codec version is refused by number, with a typed error.
func TestDecodeRecordRejectsMalformedSections(t *testing.T) {
	if got, want := recordWith(t, goldenSections(t)), goldenRecord(t).AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatalf("the golden sections behind their marks:\n %x\nwant the golden record\n %x", got, want)
	}
	for name, enc := range malformedSections(t) {
		if rec, err := DecodeRecordBinary(enc); !errors.Is(err, wire.ErrMalformed) || rec != nil {
			t.Errorf("%s: %v, %v; want nil, wire.ErrMalformed", name, rec, err)
		}
	}
	v3 := readHexFixture(t, "record_v3.hex")
	if _, err := DecodeRecordBinary(v3); !errors.Is(err, ErrRecordVersion) || err.Error() != "naplet: unsupported record codec version 3" {
		t.Errorf("a version-3 record: %v, want ErrRecordVersion", err)
	}
}

func readHexFixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// touchAll forces every section of rec that is still encoded through the
// accessors that decode it.
func touchAll(rec *Record) {
	if rec.State != nil {
		for _, k := range rec.State.Keys() {
			rec.State.Get(k)
		}
	}
	if rec.Itin != nil {
		_ = rec.Itin.String()
	}
	if rec.Book != nil {
		rec.Book.Entries()
	}
	if rec.Log != nil {
		rec.Log.Route()
		rec.Log.Reroutes()
	}
}

// sizedRecord is a mid-tour record carrying the key its agent reads beside
// others more state entries, hops closed hops in its log, and a flat tour
// of stops stops still ahead.
func sizedRecord(t testing.TB, others, hops, stops int) *Record {
	t.Helper()
	rec := goldenRecord(t)
	servers := make([]string, stops)
	for i := range servers {
		servers[i] = fmt.Sprintf("stop%d:7001", i)
	}
	rec.Itin = itinerary.MustNew(itinerary.SeqVisits(servers, ""))
	st := state.New()
	if err := st.SetPrivate("route", []string{"sa:1", "sb:2"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < others; i++ {
		if err := st.SetPublic(fmt.Sprintf("other/%03d", i), []string{"payload", "of", "an", "entry"}); err != nil {
			t.Fatal(err)
		}
	}
	log := NewNavigationLog()
	at := goldenTime
	for i := 0; i < hops; i++ {
		server := fmt.Sprintf("dock%d:7001", i)
		log.RecordArrival(server, at)
		at = at.Add(300 * time.Microsecond)
		if err := log.RecordDeparture(server, at); err != nil {
			t.Fatal(err)
		}
		at = at.Add(150 * time.Microsecond)
	}
	rec.State, rec.Log = st, log
	return rec
}

// TestUntouchedSectionsCostNothing: what a dock does with a landed record —
// decode it, read one state key, take the itinerary's next stop, record
// its arrival, perhaps write the key back, encode it for the next hop —
// allocates the same whatever else the record carries: more state entries,
// a longer log, more stops ahead. What the dock did not touch leaves as the
// bytes it arrived as, and the whole record as the bytes the same hop on
// the record as built writes.
func TestUntouchedSectionsCostNothing(t *testing.T) {
	arrival := goldenTime.Add(time.Hour)
	visit := func(rec *Record, write bool) {
		var route []string
		if err := rec.State.Load("route", &route); err != nil || len(route) != 2 {
			t.Fatalf("route = %v, %v", route, err)
		}
		if d, err := rec.Itin.Next(nil); err != nil || d.Visit.Server != "stop0:7001" {
			t.Fatalf("next stop: %+v, %v", d, err)
		}
		rec.Log.RecordArrival("dock9:7001", arrival)
		if write {
			if err := rec.State.SetPrivate("route", append(route, "dock9:7001")); err != nil {
				t.Fatal(err)
			}
		}
	}
	hop := func(enc, dst []byte, write bool) []byte {
		rec, err := DecodeRecordBinary(enc)
		if err != nil {
			t.Fatal(err)
		}
		visit(rec, write)
		return rec.AppendBinary(dst)
	}
	for _, write := range []bool{false, true} {
		counts := map[string]float64{}
		for _, size := range []struct{ others, hops, stops int }{
			{1, 1, 1}, {64, 1, 1}, {1, 32, 1}, {1, 1, 64}, {64, 32, 64},
		} {
			name := fmt.Sprintf("writes %v, %d other entries, %d hops, %d stops", write, size.others, size.hops, size.stops)
			rec := sizedRecord(t, size.others, size.hops, size.stops)
			enc := rec.AppendBinary(nil)
			out := hop(enc, nil, write)
			// The same hop on the record as built, never encoded.
			visit(rec, write)
			if want := rec.AppendBinary(nil); !bytes.Equal(out, want) {
				t.Errorf("%s: the hop re-encoded\n  %x\nwant\n  %x", name, out, want)
			}
			if raceEnabled {
				continue
			}
			dst := make([]byte, 0, 2*len(out))
			counts[name] = testing.AllocsPerRun(100, func() { dst = hop(enc, dst[:0], write) })
		}
		if raceEnabled {
			continue
		}
		want := counts[fmt.Sprintf("writes %v, 1 other entries, 1 hops, 1 stops", write)]
		for name, n := range counts {
			if n != want {
				t.Errorf("%s: %v allocs, want %v as with one of each: untouched entries, hops and stops must cost nothing", name, n, want)
			}
		}
		t.Logf("writes %v: decode, one key read, a step, an arrival and the encode: %v allocs", write, want)
	}
}

// TestConcurrentFirstTouch: goroutines that meet a freshly decoded record
// at once — reading its state, book and log, encoding it, one recording an
// arrival — decode each section once, under its lock (run it with -race).
func TestConcurrentFirstTouch(t *testing.T) {
	enc := goldenRecord(t).AppendBinary(nil)
	for round := 0; round < 20; round++ {
		rec, err := DecodeRecordBinary(enc)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g {
				case 0:
					if v, err := rec.State.Get("best-price"); err != nil || v != 42 {
						t.Errorf("Get = %v, %v", v, err)
					}
				case 1:
					if keys := rec.State.Keys(); len(keys) != 2 {
						t.Errorf("Keys = %v", keys)
					}
				case 2:
					if route := rec.Log.Route(); len(route) < 2 || route[1] != "sb:2" {
						t.Errorf("Route = %v", route)
					}
				case 3:
					if err := rec.Log.RecordDeparture("sb:2", goldenTime.Add(4*time.Second)); err != nil {
						t.Error(err)
					}
				case 4:
					if n := len(rec.Book.Entries()); n != 2 {
						t.Errorf("%d book entries", n)
					}
				case 5:
					if !rec.Book.Knows(id.MustNew("czxu", "sa1", goldenTime)) {
						t.Error("the book lost an entry")
					}
				case 6:
					rec.AppendBinary(nil)
				case 7:
					if rec.State.Len() != 2 || rec.Log.Len() != 2 || rec.Book.Len() != 2 {
						t.Errorf("Len: state %d, log %d, book %d", rec.State.Len(), rec.Log.Len(), rec.Book.Len())
					}
				}
			}(g)
		}
		wg.Wait()
		want := goldenRecord(t)
		if err := want.Log.RecordDeparture("sb:2", goldenTime.Add(4*time.Second)); err != nil {
			t.Fatal(err)
		}
		if got := rec.AppendBinary(nil); !bytes.Equal(got, want.AppendBinary(nil)) {
			t.Fatalf("round %d: the record re-encoded differently after its first touches", round)
		}
	}
}

// TestClonedSectionsShareTheirBytes: a clone of a record still encoded
// reads and re-encodes like its parent, and changing the clone leaves
// the parent's sections as they were.
func TestClonedSectionsShareTheirBytes(t *testing.T) {
	enc := goldenRecord(t).AppendBinary(nil)
	parent, err := DecodeRecordBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	branch := itinerary.MustNew(itinerary.Singleton(itinerary.Visit{Server: "sf:6"}))
	clone, err := parent.CloneFor(1, branch, parent.Credential)
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.State.SetPublic("best-price", 7); err != nil {
		t.Fatal(err)
	}
	clone.Book.Remove(id.MustNew("czxu", "sa1", goldenTime))
	clone.Log.RecordArrival("sf:6", goldenTime.Add(time.Hour))
	if got := parent.AppendBinary(nil); !bytes.Equal(got, enc) {
		t.Fatal("changing a clone changed its parent's encoding")
	}
	if v, _ := parent.State.Get("best-price"); v != 42 {
		t.Errorf("parent's best-price = %v", v)
	}
	if parent.Book.Len() != 2 || clone.Book.Len() != 1 || parent.Log.Len() != 2 || clone.Log.Len() != 3 {
		t.Errorf("book %d/%d, log %d/%d", parent.Book.Len(), clone.Book.Len(), parent.Log.Len(), clone.Log.Len())
	}
}
