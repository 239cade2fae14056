package id

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// referenceString is the formatter String had before the identifier carried
// its text: the four fields written out on every call. It is kept as what
// seal's output is compared against.
func referenceString(n NapletID) string {
	var b strings.Builder
	b.WriteString(n.owner)
	b.WriteByte('@')
	b.WriteString(n.host)
	b.WriteByte(':')
	b.WriteString(n.created.Format(TimeLayout))
	if len(n.heritage) > 0 {
		b.WriteByte(':')
		b.WriteString(n.heritage.String())
	}
	return b.String()
}

// checkText asserts everything that must hold of an identifier however it
// was made: its text is the reference text, Key is String, owner and host
// read back, and both codecs return an Equal identifier with the same key.
func checkText(t *testing.T, how string, n NapletID) {
	t.Helper()
	want := referenceString(n)
	if n.String() != want || n.Key() != want {
		t.Fatalf("%s: String %q, Key %q, reference %q", how, n.String(), n.Key(), want)
	}
	if !n.IsZero() && (n.text != want || n.owner != want[:len(n.owner)] || !strings.HasPrefix(want[len(n.owner)+1:], n.host)) {
		t.Fatalf("%s: text %q owner %q host %q, reference %q", how, n.text, n.owner, n.host, want)
	}
	dec, rest, err := DecodeBinary(n.AppendBinary(nil))
	if err != nil || len(rest) != 0 || !dec.Equal(n) || dec.Key() != n.Key() || dec.IsZero() != n.IsZero() {
		t.Fatalf("%s: binary round trip of %q gave %q (%d left), %v", how, want, dec.Key(), len(rest), err)
	}
	if n.IsZero() {
		if dec.text != "" {
			t.Fatalf("zero identifier decoded with text %q, want NapletID{}", dec.text)
		}
		return // the zero identifier has no textual grammar
	}
	parsed, err := Parse(n.String())
	if err != nil || !parsed.Equal(n) || parsed.Key() != n.Key() {
		t.Fatalf("%s: Parse(%q) gave %q, %v", how, want, parsed.Key(), err)
	}
}

// TestPropTextMatchesReference: for random owner, host, time and heritage,
// every way of making an identifier seals it with the reference text.
func TestPropTextMatchesReference(t *testing.T) {
	checkText(t, "zero", NapletID{})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Long enough, now and then, to outgrow seal's stack array.
		owner := "u" + strings.Repeat("x", r.Intn(60))
		host := "h" + strings.Repeat(".y", r.Intn(40))
		base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
		created := base.Add(time.Duration(r.Int63n(int64(68 * 365 * 24 * time.Hour))))
		n, err := New(owner, host, created)
		if err != nil {
			return false
		}
		checkText(t, "New", n)
		checkText(t, "Root of an original", n.Root())
		checkText(t, "Originator of an original", n.Originator())
		for _, g := range randomHeritage(r) {
			if n, err = n.Clone(g*100 + 1); err != nil {
				return false
			}
			checkText(t, "Clone", n)
		}
		checkText(t, "Originator", n.Originator())
		checkText(t, "Root", n.Root())
		parsed, err := Parse(referenceString(n))
		if err != nil {
			return false
		}
		checkText(t, "Parse", parsed)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBinaryDoesNotAliasTheBuffer: the TCP fabric decodes out of
// pooled read buffers, so an identifier must own its bytes once decoded.
func TestDecodeBinaryDoesNotAliasTheBuffer(t *testing.T) {
	orig, _ := MustNew("czxu", "ece.eng.wayne.edu", t0).Clone(2)
	buf := orig.AppendBinary(nil)
	dec, _, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'Z'
	}
	if dec.Owner() != "czxu" || dec.Host() != "ece.eng.wayne.edu" || dec.Key() != "czxu@ece.eng.wayne.edu:010512172720:2" || !dec.Equal(orig) {
		t.Fatalf("decoded identifier changed with its buffer: owner %q host %q key %q", dec.Owner(), dec.Host(), dec.Key())
	}
}

// TestTextAllocations pins what carrying the text buys: a key is free, and
// making an identifier costs its one string (plus the heritage, for a clone).
func TestTextAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	orig := MustNew("czxu", "ece.eng.wayne.edu", t0)
	clone, _ := orig.Clone(2)
	origEnc, cloneEnc := orig.AppendBinary(nil), clone.AppendBinary(nil)
	var s string
	var n NapletID
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Key", 0, func() { s = clone.Key() }},
		{"String", 0, func() { s = clone.String() }},
		{"Root of an original", 0, func() { n = orig.Root() }},
		{"New", 1, func() { n, _ = New("czxu", "ece.eng.wayne.edu", t0) }},
		{"DecodeBinary of an original", 1, func() { n, _, _ = DecodeBinary(origEnc) }},
		{"DecodeBinary of a clone", 2, func() { n, _, _ = DecodeBinary(cloneEnc) }},
	} {
		if got := testing.AllocsPerRun(200, tc.f); got > tc.max {
			t.Errorf("%s: %v allocs, want at most %v", tc.name, got, tc.max)
		}
	}
	_, _ = s, n
}
