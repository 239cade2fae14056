package id

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)

func TestNewAndString(t *testing.T) {
	nid := MustNew("czxu", "ece.eng.wayne.edu", t0)
	want := "czxu@ece.eng.wayne.edu:010512172720"
	if got := nid.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if nid.Owner() != "czxu" || nid.Host() != "ece.eng.wayne.edu" {
		t.Fatalf("owner/host mismatch: %q %q", nid.Owner(), nid.Host())
	}
	if !nid.Created().Equal(t0) {
		t.Fatalf("created = %v, want %v", nid.Created(), t0)
	}
}

func TestNewRejectsBadPrincipals(t *testing.T) {
	cases := []struct{ owner, host string }{
		{"", "h"},
		{"o", ""},
		{"a@b", "h"},
		{"a:b", "h"},
		{"o", "h@x"},
		{"o", "h:x"},
	}
	for _, c := range cases {
		if _, err := New(c.owner, c.host, t0); err == nil {
			t.Errorf("New(%q, %q) accepted invalid principal", c.owner, c.host)
		}
	}
}

func TestPaperExampleCloneID(t *testing.T) {
	// The paper's example: czxu@ece.eng.wayne.edu:010512172720:2.1 is the
	// naplet cloned from the original created by czxu at 17:27:20 May 12 2001.
	nid, err := Parse("czxu@ece.eng.wayne.edu:010512172720:2.1")
	if err != nil {
		t.Fatal(err)
	}
	if got := nid.Heritage().String(); got != "2.1" {
		t.Fatalf("heritage = %q, want 2.1", got)
	}
	if nid.IsOriginal() {
		t.Fatal("2.1 must not be original")
	}
	root := nid.Root()
	if root.String() != "czxu@ece.eng.wayne.edu:010512172720" {
		t.Fatalf("root = %q", root.String())
	}
	if !root.SameLineage(nid) {
		t.Fatal("root should share lineage with clone")
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"czxu@ece.eng.wayne.edu:010512172720",
		"czxu@ece.eng.wayne.edu:010512172720:0",
		"czxu@ece.eng.wayne.edu:010512172720:2.0",
		"czxu@ece.eng.wayne.edu:010512172720:2.1",
		"czxu@ece.eng.wayne.edu:010512172720:2.2",
		"alice@node1:260704120000:1.2.3.4",
	}
	for _, in := range inputs {
		nid, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if out := nid.String(); out != in {
			t.Errorf("round trip %q -> %q", in, out)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"noatsign",
		"@host:010512172720",
		"user@:010512172720",
		"user@host",
		"user@host:notatime",
		"user@host:010512172720:x",
		"user@host:010512172720:1..2",
		"user@host:010512172720:-1",
		"user@host:010512172720:1:2",
		"user@host:010512172720:01", // leading zero component
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestCloneHeritage(t *testing.T) {
	orig := MustNew("czxu", "ece", t0)
	c1, err := orig.Clone(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := orig.Clone(2)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Heritage().String() != "1" || c2.Heritage().String() != "2" {
		t.Fatalf("clone heritages %q %q", c1.Heritage(), c2.Heritage())
	}
	// Recursive clone, as Figure 1: 2.0, 2.1, 2.2 belong to generation 2.
	g1, _ := c2.Clone(1)
	g2, _ := c2.Clone(2)
	if g1.String() != "czxu@ece:010512172720:2.1" {
		t.Fatalf("g1 = %q", g1)
	}
	if g2.String() != "czxu@ece:010512172720:2.2" {
		t.Fatalf("g2 = %q", g2)
	}
	if got := g1.Originator().Heritage().String(); got != "2.0" {
		t.Fatalf("originator of 2.1 = %q, want 2.0", got)
	}
	if !c2.Heritage().IsAncestorOf(g1.Heritage()) {
		t.Fatal("2 should be ancestor of 2.1")
	}
	if g1.Heritage().IsAncestorOf(c2.Heritage()) {
		t.Fatal("2.1 must not be ancestor of 2")
	}
	if _, err := orig.Clone(0); err == nil {
		t.Fatal("Clone(0) should be rejected; 0 is reserved for the originator")
	}
}

func TestCloneDoesNotMutateParent(t *testing.T) {
	orig := MustNew("u", "h", t0)
	c, _ := orig.Clone(3)
	cc, _ := c.Clone(1)
	if c.Heritage().String() != "3" {
		t.Fatalf("parent heritage mutated: %q", c.Heritage())
	}
	if cc.Heritage().String() != "3.1" {
		t.Fatalf("grandchild heritage: %q", cc.Heritage())
	}
	// Mutating the returned heritage slice must not affect the ID.
	h := c.Heritage()
	h[0] = 99
	if c.Heritage().String() != "3" {
		t.Fatal("Heritage() leaked internal slice")
	}
}

func TestHeritageOps(t *testing.T) {
	h, err := ParseHeritage("2.1.3")
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 3 {
		t.Fatalf("depth = %d", h.Depth())
	}
	p, ok := h.Parent()
	if !ok || p.String() != "2.1" {
		t.Fatalf("parent = %q ok=%v", p, ok)
	}
	if _, ok := Heritage(nil).Parent(); ok {
		t.Fatal("empty heritage has no parent")
	}
	if h.Compare(p) != 1 || p.Compare(h) != -1 || h.Compare(h) != 0 {
		t.Fatal("Compare ordering broken")
	}
	a, _ := ParseHeritage("1.5")
	b, _ := ParseHeritage("2")
	if a.Compare(b) != -1 {
		t.Fatal("1.5 should sort before 2")
	}
}

func TestOriginatorAndIsOriginal(t *testing.T) {
	orig := MustNew("u", "h", t0)
	if !orig.IsOriginal() {
		t.Fatal("fresh ID must be original")
	}
	z, _ := Parse("u@h:010512172720:0.0")
	if !z.IsOriginal() {
		t.Fatal("all-zero heritage names originators")
	}
	c, _ := orig.Clone(2)
	if c.IsOriginal() {
		t.Fatal("clone 2 is not original")
	}
	if got := orig.Originator(); !got.Equal(orig) {
		t.Fatal("originator of original should be itself")
	}
}

func TestEqualAndKey(t *testing.T) {
	a := MustNew("u", "h", t0)
	b := MustNew("u", "h", t0)
	if !a.Equal(b) {
		t.Fatal("identical IDs must be equal")
	}
	c, _ := a.Clone(1)
	if a.Equal(c) {
		t.Fatal("clone must differ from parent")
	}
	if a.Key() != a.String() {
		t.Fatal("Key must equal String")
	}
	d := MustNew("u", "h", t0.Add(time.Second))
	if a.SameLineage(d) {
		t.Fatal("different creation times are different lineages")
	}
}

func TestMarshalText(t *testing.T) {
	orig, _ := Parse("czxu@ece:010512172720:2.1")
	text, err := orig.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back NapletID
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(orig) {
		t.Fatalf("text round trip mismatch: %v vs %v", back, orig)
	}
	if err := back.UnmarshalText([]byte("garbage")); err == nil {
		t.Fatal("UnmarshalText should reject garbage")
	}
}

func TestIsZero(t *testing.T) {
	var z NapletID
	if !z.IsZero() {
		t.Fatal("zero value must report IsZero")
	}
	if MustNew("u", "h", t0).IsZero() {
		t.Fatal("real ID must not be zero")
	}
}

func TestGeneratorUniqueness(t *testing.T) {
	// A frozen clock still yields unique IDs: the generator advances the
	// timestamp when needed.
	fixed := func() time.Time { return t0 }
	g, err := NewGenerator("czxu", "ece", fixed)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		nid := g.Next()
		if seen[nid.Key()] {
			t.Fatalf("duplicate ID %v at i=%d", nid, i)
		}
		seen[nid.Key()] = true
	}
}

func TestGeneratorRejectsBadPrincipal(t *testing.T) {
	if _, err := NewGenerator("a@b", "h", nil); err == nil {
		t.Fatal("bad owner accepted")
	}
}

func TestGeneratorMonotonic(t *testing.T) {
	now := t0
	g, _ := NewGenerator("u", "h", func() time.Time { return now })
	a := g.Next()
	now = now.Add(10 * time.Second)
	b := g.Next()
	if !b.Created().After(a.Created()) {
		t.Fatal("generator must be monotonic")
	}
}

// randomHeritage generates heritages for property tests.
func randomHeritage(r *rand.Rand) Heritage {
	n := r.Intn(6)
	h := make(Heritage, n)
	for i := range h {
		h[i] = r.Intn(10)
	}
	return h
}

func TestPropHeritageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHeritage(r)
		back, err := ParseHeritage(h.String())
		if err != nil {
			return false
		}
		return back.Equal(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropIDStringParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		owner := "u" + strings.Repeat("x", r.Intn(5))
		host := "h" + strings.Repeat("y", r.Intn(5))
		// The textual YYMMDDhhmmss form is century-ambiguous; stay within
		// the range that round-trips (Go maps 2-digit years 00-68 to 20xx).
		base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
		created := base.Add(time.Duration(r.Int63n(int64(68 * 365 * 24 * time.Hour))))
		nid := MustNew(owner, host, created)
		for _, g := range randomHeritage(r) {
			var err error
			if nid, err = nid.Clone(g + 1); err != nil {
				return false
			}
		}
		back, err := Parse(nid.String())
		if err != nil {
			return false
		}
		return back.Equal(nid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCloneAncestry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nid := MustNew("u", "h", t0)
		cur := nid
		depth := 1 + r.Intn(5)
		for i := 0; i < depth; i++ {
			next, err := cur.Clone(1 + r.Intn(4))
			if err != nil {
				return false
			}
			// Parent heritage must be a proper ancestor of child heritage.
			if !cur.Heritage().Equal(nil) && !cur.Heritage().IsAncestorOf(next.Heritage()) {
				return false
			}
			if next.Heritage().Depth() != cur.Heritage().Depth()+1 {
				return false
			}
			if !next.SameLineage(nid) {
				return false
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeritageValueSemantics(t *testing.T) {
	h, _ := ParseHeritage("1.2")
	c := h.Child(3)
	if !reflect.DeepEqual(c, Heritage{1, 2, 3}) {
		t.Fatalf("child = %v", c)
	}
	if !reflect.DeepEqual(h, Heritage{1, 2}) {
		t.Fatalf("parent mutated: %v", h)
	}
}

// TestJSONRoundTripIncludingZero: identifiers travel in the operator-plane
// JSON bodies as text, and every request that names no naplet carries the
// zero identifier, which must survive as the empty text.
func TestJSONRoundTripIncludingZero(t *testing.T) {
	type box struct{ ID NapletID }
	cases := []NapletID{{}, MustNew("u", "h", t0)}
	c2, _ := cases[1].Clone(2)
	cases = append(cases, c2)
	for _, in := range cases {
		data, err := json.Marshal(box{ID: in})
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		var out box
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
		if !out.ID.Equal(in) || out.ID.IsZero() != in.IsZero() {
			t.Fatalf("JSON round trip: %v != %v", out.ID, in)
		}
	}
}
