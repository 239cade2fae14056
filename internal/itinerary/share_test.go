package itinerary

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refSeqRemainder is seqRemainder as it was before Next shared operands: a
// deep copy of every later operand at every step. It is kept as what the
// sharing implementation must be indistinguishable from.
func refSeqRemainder(rest *Pattern, later []*Pattern) *Pattern {
	subs := make([]*Pattern, 0, 1+len(later))
	if rest != nil {
		subs = append(subs, rest)
	}
	for _, l := range later {
		subs = append(subs, l.Clone())
	}
	switch len(subs) {
	case 0:
		return nil
	case 1:
		return subs[0]
	default:
		return Seq(subs...)
	}
}

// refStep is step over refSeqRemainder, cloning wherever it hands on a
// subtree.
func refStep(p *Pattern, ev Evaluator) (Decision, *Pattern, error) {
	switch p.Kind {
	case KindSeq:
		for i, sub := range p.Subs {
			d, rest, err := refStep(sub, ev)
			if err != nil {
				return Decision{}, nil, err
			}
			if d.Kind == DecisionDone && rest == nil {
				continue
			}
			for k, alt := range d.Alternates {
				d.Alternates[k] = refSeqRemainder(alt, p.Subs[i+1:])
			}
			return d, refSeqRemainder(rest, p.Subs[i+1:]), nil
		}
		return Decision{Kind: DecisionDone}, nil, nil
	case KindAlt:
		chosen, idx, err := chooseAlt(p.Subs, ev)
		if err != nil || chosen == nil {
			return Decision{Kind: DecisionDone}, nil, err
		}
		d, rest, err := refStep(chosen, ev)
		if d.Kind == DecisionVisit {
			for j, sub := range p.Subs {
				if j != idx {
					d.Alternates = append(d.Alternates, sub.Clone())
				}
			}
		}
		return d, rest, err
	default: // a singleton or a Par hands on no Seq remainder
		return step(p.Clone(), ev)
	}
}

// refNext is Itinerary.Next over refStep.
func refNext(it *Itinerary, ev Evaluator) (Decision, error) {
	for !it.Done() {
		d, rest, err := refStep(it.Pattern(), ev)
		if err != nil {
			return Decision{}, err
		}
		it.Replace(rest)
		if d.Kind != DecisionDone {
			return d, nil
		}
	}
	return Decision{Kind: DecisionDone}, nil
}

// travel runs an itinerary to Done and writes down everything it decides:
// each visit, and — travelled the same way — every failover alternate a
// visit carried and every branch a fork handed out.
func travel(t *testing.T, it *Itinerary, ev Evaluator, next func(*Itinerary, Evaluator) (Decision, error)) string {
	t.Helper()
	var b strings.Builder
	for {
		d, err := next(it, ev)
		if err != nil {
			t.Fatal(err)
		}
		switch d.Kind {
		case DecisionDone:
			return b.String()
		case DecisionVisit:
			fmt.Fprintf(&b, "%v then %v;", d.Visit, it)
			for _, alt := range d.Alternates {
				fmt.Fprintf(&b, "alt[%s]", travel(t, &Itinerary{tree: alt}, ev, next))
			}
		case DecisionFork:
			for _, br := range d.Branches {
				fmt.Fprintf(&b, "fork[%s]", travel(t, &Itinerary{tree: br}, ev, next))
			}
		}
	}
}

// TestNextSharesWithoutChanging: over random Seq/Alt/Par trees with guards,
// travelling an itinerary — alternates and branches included — leaves the
// pattern it started from exactly as it was, and decides at every step what
// the cloning implementation decided, with the same plan left over.
func TestNextSharesWithoutChanging(t *testing.T) {
	ev := EvalFunc(func(guard string) (bool, error) { return len(guard)%2 == 0, nil })
	r := rand.New(rand.NewSource(20010512))
	for i := 0; i < 2000; i++ {
		p := genPattern(r, 0)
		if i%4 == 0 { // flat and nested tours, which random trees rarely are
			p = Seq(p, genPattern(r, 1), Seq(genPattern(r, 2), genPattern(r, 2)), genPattern(r, 1))
		}
		keep := p.Clone()
		got := travel(t, &Itinerary{tree: p}, ev, (*Itinerary).Next)
		if !reflect.DeepEqual(p, keep) {
			t.Fatalf("travelling %v changed it to %v", keep, p)
		}
		if want := travel(t, &Itinerary{tree: keep.Clone()}, ev, refNext); got != want {
			t.Fatalf("%v travelled as\n  %s\nthe cloning implementation as\n  %s", keep, got, want)
		}
	}
}

// TestNextCostDoesNotGrowWithTheTour: a dock's share of a flat tour —
// decode the itinerary, step it, encode it for the next hop — allocates the
// itinerary and the visit it hands out, however many stops are still ahead,
// and the tail leaves as the bytes the eager path would write.
func TestNextCostDoesNotGrowWithTheTour(t *testing.T) {
	for _, stops := range []int{4, 16, 64} {
		servers := make([]string, stops)
		for i := range servers {
			servers[i] = fmt.Sprintf("s%d", i)
		}
		enc := MustNew(SeqVisits(servers, "")).AppendBinary(nil)
		eager := MustNew(SeqVisits(servers[1:], "")).AppendBinary(nil)
		dst := make([]byte, 0, len(enc))
		hop := func() {
			it, err := DecodeBinary(enc)
			if err != nil {
				t.Fatal(err)
			}
			if d, err := it.Next(nil); err != nil || d.Visit.Server != "s0" {
				t.Fatalf("first step: %+v, %v", d, err)
			}
			dst = it.AppendBinary(dst[:0])
		}
		hop()
		if !bytes.Equal(dst, eager) {
			t.Errorf("a %d-stop tour after one step encodes\n  %x\nwant\n  %x", stops, dst, eager)
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(100, hop); n > 2 {
			t.Errorf("one hop of a %d-stop tour: %v allocs, want at most 2", stops, n)
		}
	}
}
