package itinerary

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// trueEval approves every guard.
var trueEval = EvalFunc(func(string) (bool, error) { return true, nil })

// mapEval evaluates guards from a map; unknown guards are errors.
func mapEval(m map[string]bool) Evaluator {
	return EvalFunc(func(g string) (bool, error) {
		v, ok := m[g]
		if !ok {
			return false, fmt.Errorf("unknown guard %q", g)
		}
		return v, nil
	})
}

// drain runs an itinerary to completion with ev, returning the visited
// servers of the parent agent and, recursively, of all forked clones (each
// clone's tour as its own slice).
func drain(t *testing.T, it *Itinerary, ev Evaluator) (parent []string, clones [][]string) {
	t.Helper()
	for {
		d, err := it.Next(ev)
		if err != nil {
			t.Fatal(err)
		}
		switch d.Kind {
		case DecisionDone:
			return parent, clones
		case DecisionVisit:
			parent = append(parent, d.Visit.Server)
		case DecisionFork:
			for _, b := range d.Branches {
				sub := MustNew(b)
				p, cs := drain(t, sub, ev)
				clones = append(clones, p)
				clones = append(clones, cs...)
			}
		}
	}
}

func TestSingletonVisit(t *testing.T) {
	it := MustNew(Singleton(Visit{Server: "s0", Action: "report"}))
	d, err := it.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != DecisionVisit || d.Visit.Server != "s0" || d.Visit.Action != "report" {
		t.Fatalf("decision = %+v", d)
	}
	d, _ = it.Next(nil)
	if d.Kind != DecisionDone {
		t.Fatalf("want done, got %+v", d)
	}
	if !it.Done() {
		t.Fatal("itinerary must be done")
	}
}

func TestSeqOrderPreserved(t *testing.T) {
	// Paper Example 1: single agent visits s1..sn in sequence.
	servers := []string{"s1", "s2", "s3", "s4"}
	it := MustNew(SeqVisits(servers, "report"))
	parent, clones := drain(t, it, nil)
	if !reflect.DeepEqual(parent, servers) {
		t.Fatalf("visited %v, want %v", parent, servers)
	}
	if len(clones) != 0 {
		t.Fatalf("seq must not fork: %v", clones)
	}
}

func TestParForksPerServer(t *testing.T) {
	// Paper Example 2: every server visited by its own agent in parallel.
	servers := []string{"s1", "s2", "s3"}
	it := MustNew(ParVisits(servers, "report"))
	parent, clones := drain(t, it, nil)
	if !reflect.DeepEqual(parent, []string{"s1"}) {
		t.Fatalf("parent tour = %v", parent)
	}
	if len(clones) != 2 {
		t.Fatalf("want 2 clones, got %v", clones)
	}
	var all []string
	all = append(all, parent...)
	for _, c := range clones {
		all = append(all, c...)
	}
	sort.Strings(all)
	if !reflect.DeepEqual(all, servers) {
		t.Fatalf("coverage = %v, want %v", all, servers)
	}
}

func TestPaperExample3ParOfSeq(t *testing.T) {
	// "par(seq(s0, s1), seq(s2, s3))": two naplets, two stops each.
	p := Par(
		SeqVisits([]string{"s0", "s1"}, "comm"),
		SeqVisits([]string{"s2", "s3"}, "comm"),
	)
	it := MustNew(p)
	parent, clones := drain(t, it, nil)
	if !reflect.DeepEqual(parent, []string{"s0", "s1"}) {
		t.Fatalf("parent = %v", parent)
	}
	if len(clones) != 1 || !reflect.DeepEqual(clones[0], []string{"s2", "s3"}) {
		t.Fatalf("clones = %v", clones)
	}
}

func TestSeqAfterParBelongsToParent(t *testing.T) {
	p := Seq(
		Par(Singleton(Visit{Server: "a"}), Singleton(Visit{Server: "b"})),
		Singleton(Visit{Server: "home"}),
	)
	it := MustNew(p)
	parent, clones := drain(t, it, nil)
	if !reflect.DeepEqual(parent, []string{"a", "home"}) {
		t.Fatalf("parent = %v", parent)
	}
	if len(clones) != 1 || !reflect.DeepEqual(clones[0], []string{"b"}) {
		t.Fatalf("clones = %v: continuation after Par must belong to parent only", clones)
	}
}

func TestConditionalVisitSkipped(t *testing.T) {
	// Sequential search: later visits guarded; search completed after s2.
	p := ConditionalTour([]string{"s1", "s2", "s3", "s4"}, "notFound", "")
	visited := 0
	ev := EvalFunc(func(g string) (bool, error) {
		// notFound is true until two servers have been visited.
		return visited < 2, nil
	})
	it := MustNew(p)
	var tour []string
	for {
		d, err := it.Next(ev)
		if err != nil {
			t.Fatal(err)
		}
		if d.Kind == DecisionDone {
			break
		}
		if d.Kind != DecisionVisit {
			t.Fatalf("unexpected decision %+v", d)
		}
		tour = append(tour, d.Visit.Server)
		visited++
	}
	if !reflect.DeepEqual(tour, []string{"s1", "s2"}) {
		t.Fatalf("tour = %v, want search to stop after s2", tour)
	}
}

func TestAltChoosesByGuard(t *testing.T) {
	p := Alt(
		Singleton(Visit{Server: "fast", Guard: "fastOK"}),
		Singleton(Visit{Server: "slow"}),
	)
	it := MustNew(p.Clone())
	parent, _ := drain(t, it, mapEval(map[string]bool{"fastOK": true}))
	if !reflect.DeepEqual(parent, []string{"fast"}) {
		t.Fatalf("guard true: %v", parent)
	}
	it = MustNew(p.Clone())
	parent, _ = drain(t, it, mapEval(map[string]bool{"fastOK": false}))
	if !reflect.DeepEqual(parent, []string{"slow"}) {
		t.Fatalf("guard false: %v", parent)
	}
}

func TestAltAllGuardsFalse(t *testing.T) {
	p := Alt(
		Singleton(Visit{Server: "a", Guard: "g"}),
		Singleton(Visit{Server: "b", Guard: "g"}),
	)
	it := MustNew(p)
	parent, clones := drain(t, it, mapEval(map[string]bool{"g": false}))
	if len(parent) != 0 || len(clones) != 0 {
		t.Fatalf("all-false alt must visit nothing: %v %v", parent, clones)
	}
}

func TestAltExactlyOneBranch(t *testing.T) {
	p := Alt(
		SeqVisits([]string{"a1", "a2"}, ""),
		SeqVisits([]string{"b1", "b2"}, ""),
	)
	it := MustNew(p)
	parent, _ := drain(t, it, trueEval)
	if !reflect.DeepEqual(parent, []string{"a1", "a2"}) {
		t.Fatalf("alt must commit to one whole branch: %v", parent)
	}
}

func TestGuardErrorPropagates(t *testing.T) {
	p := Singleton(Visit{Server: "s", Guard: "mystery"})
	it := MustNew(p)
	_, err := it.Next(mapEval(map[string]bool{}))
	if !errors.Is(err, ErrBadGuard) {
		t.Fatalf("want ErrBadGuard, got %v", err)
	}
	it2 := MustNew(p.Clone())
	if _, err := it2.Next(nil); !errors.Is(err, ErrBadGuard) {
		t.Fatalf("guard with nil evaluator: %v", err)
	}
}

func TestValidate(t *testing.T) {
	if err := (*Pattern)(nil).Validate(); !errors.Is(err, ErrEmptyPattern) {
		t.Fatalf("nil pattern: %v", err)
	}
	if err := Singleton(Visit{}).Validate(); err == nil {
		t.Fatal("empty server must be invalid")
	}
	if err := Seq().Validate(); err == nil {
		t.Fatal("empty seq must be invalid")
	}
	if err := Seq(Singleton(Visit{Server: "s"}), Par()).Validate(); err == nil {
		t.Fatal("nested empty par must be invalid")
	}
	if _, err := New(Seq()); err == nil {
		t.Fatal("New must validate")
	}
}

func TestStringNotation(t *testing.T) {
	p := Par(
		SeqVisits([]string{"s0", "s1"}, ""),
		SeqVisits([]string{"s2", "s3"}, ""),
	)
	want := "par(seq(<s0>, <s1>), seq(<s2>, <s3>))"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	v := Visit{Server: "s", Guard: "c", Action: "t"}
	if got := v.String(); got != "<c -> s; t>" {
		t.Fatalf("visit notation = %q", got)
	}
	var done *Itinerary
	if done.String() != "ε" {
		t.Fatal("done itinerary renders ε")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := SeqVisits([]string{"a", "b"}, "act")
	c := p.Clone()
	c.Subs[0].V.Server = "mutated"
	if p.Subs[0].V.Server != "a" {
		t.Fatal("Clone must deep copy")
	}
	it := MustNew(p)
	it2 := it.Clone()
	it.Next(nil)
	if got := it2.Pattern().Servers(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("itinerary clone advanced with original: %v", got)
	}
}

func TestServersAndVisits(t *testing.T) {
	p := Seq(
		Singleton(Visit{Server: "x", Action: "a1"}),
		Par(Singleton(Visit{Server: "y"}), Singleton(Visit{Server: "x"})),
	)
	if got := p.Servers(); !reflect.DeepEqual(got, []string{"x", "y", "x"}) {
		t.Fatalf("Servers() = %v", got)
	}
	vs := p.Visits()
	if len(vs) != 3 || vs[0].Action != "a1" {
		t.Fatalf("Visits() = %v", vs)
	}
}

func TestBinaryRoundTripMidFlight(t *testing.T) {
	// An itinerary serialized mid-flight must resume exactly where it was —
	// this is what travels inside a migrating naplet.
	p := Seq(
		SeqVisits([]string{"a", "b"}, "act"),
		Par(Singleton(Visit{Server: "c"}), Singleton(Visit{Server: "d"})),
	)
	it := MustNew(p)
	d, _ := it.Next(nil)
	if d.Visit.Server != "a" {
		t.Fatalf("first visit %v", d)
	}

	restored, err := DecodeBinary(it.AppendBinary(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	parent, clones := drain(t, restored, nil)
	if !reflect.DeepEqual(parent, []string{"b", "c"}) {
		t.Fatalf("resumed parent tour = %v", parent)
	}
	if len(clones) != 1 || !reflect.DeepEqual(clones[0], []string{"d"}) {
		t.Fatalf("resumed clones = %v", clones)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"s0", "<s0>"},
		{"  s0  ", "<s0>"},
		{"seq(s0, s1)", "seq(<s0>, <s1>)"},
		{"par(seq(s0,s1),seq(s2,s3))", "par(seq(<s0>, <s1>), seq(<s2>, <s3>))"},
		{"alt(found -> s1; report, s2)", "alt(<found -> s1; report>, <s2>)"},
		{"seq(s0; collect, s1; collect)", "seq(<s0; collect>, <s1; collect>)"},
		{"host-1.example.com:9000", "<host-1.example.com:9000>"},
		{"seqx", "<seqx>"}, // identifier, not operator
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := p.String(); got != c.want {
			t.Errorf("Parse(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"seq()",
		"seq(s0",
		"seq(s0,)",
		"par(,s0)",
		"s0 s1",
		"s0 -> ",
		"s0;",
		"(s0)",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseRoundTripsNotation(t *testing.T) {
	// String output (minus the <> visit brackets) re-parses to the same tree.
	p := Par(
		Seq(Singleton(Visit{Server: "a", Guard: "g", Action: "t"}), Singleton(Visit{Server: "b"})),
		Alt(Singleton(Visit{Server: "c"}), Singleton(Visit{Server: "d", Action: "x"})),
	)
	in := "par(seq(g -> a; t, b), alt(c, d; x))"
	got, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("parsed tree:\n%s\nwant:\n%s", got, p)
	}
}

// randomPattern builds a random valid pattern for property tests.
func randomPattern(r *rand.Rand, depth int) *Pattern {
	if depth <= 0 || r.Intn(3) == 0 {
		return Singleton(Visit{Server: fmt.Sprintf("s%d", r.Intn(10))})
	}
	n := 1 + r.Intn(3)
	subs := make([]*Pattern, n)
	for i := range subs {
		subs[i] = randomPattern(r, depth-1)
	}
	switch r.Intn(3) {
	case 0:
		return Seq(subs...)
	case 1:
		return Alt(subs...)
	default:
		return Par(subs...)
	}
}

func TestPropSeqCoverageEqualsTreeOrder(t *testing.T) {
	// For patterns without Alt and guards, the union of all tours equals the
	// tree-order server list; for Seq-only patterns the parent tour equals
	// it exactly.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		servers := make([]string, n)
		for i := range servers {
			servers[i] = fmt.Sprintf("s%d", i)
		}
		it := MustNew(SeqVisits(servers, ""))
		var tour []string
		for {
			d, err := it.Next(nil)
			if err != nil {
				return false
			}
			if d.Kind == DecisionDone {
				break
			}
			tour = append(tour, d.Visit.Server)
		}
		return reflect.DeepEqual(tour, servers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropParCoversAllBranches(t *testing.T) {
	// With all guards true and no Alt nodes, every server in the tree is
	// visited by exactly one agent (parent or clone).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomParSeq(r, 3)
		want := p.Servers()
		it := MustNew(p)
		var all []string
		var walk func(it *Itinerary) bool
		walk = func(it *Itinerary) bool {
			for {
				d, err := it.Next(nil)
				if err != nil {
					return false
				}
				switch d.Kind {
				case DecisionDone:
					return true
				case DecisionVisit:
					all = append(all, d.Visit.Server)
				case DecisionFork:
					for _, b := range d.Branches {
						if !walk(MustNew(b)) {
							return false
						}
					}
				}
			}
		}
		if !walk(it) {
			return false
		}
		sort.Strings(all)
		sort.Strings(want)
		return reflect.DeepEqual(all, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomParSeq builds random patterns from Seq and Par only (no Alt, no
// guards), where coverage is exact.
func randomParSeq(r *rand.Rand, depth int) *Pattern {
	if depth <= 0 || r.Intn(3) == 0 {
		return Singleton(Visit{Server: fmt.Sprintf("s%d", r.Intn(100))})
	}
	n := 1 + r.Intn(3)
	subs := make([]*Pattern, n)
	for i := range subs {
		subs[i] = randomParSeq(r, depth-1)
	}
	if r.Intn(2) == 0 {
		return Seq(subs...)
	}
	return Par(subs...)
}

func TestPropAltPicksExactlyOne(t *testing.T) {
	// An Alt of singletons visits exactly one server (all unguarded: the
	// first).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		subs := make([]*Pattern, n)
		for i := range subs {
			subs[i] = Singleton(Visit{Server: fmt.Sprintf("s%d", i)})
		}
		it := MustNew(Alt(subs...))
		var tour []string
		for {
			d, err := it.Next(trueEval)
			if err != nil {
				return false
			}
			if d.Kind == DecisionDone {
				break
			}
			tour = append(tour, d.Visit.Server)
		}
		return len(tour) == 1 && tour[0] == "s0"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		Parse(s) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropRandomPatternStringParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPattern(r, 3)
		// Strip the visit brackets from String() to get parser input.
		s := p.String()
		s = stringsReplacer.Replace(s)
		got, err := Parse(s)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

var stringsReplacer = strings.NewReplacer("<", "", ">", "")
