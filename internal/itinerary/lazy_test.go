package itinerary

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// guardByName is a deterministic evaluator for the fuzzer: a guard's name
// alone decides whether it holds, fails, or cannot be evaluated.
var guardByName = EvalFunc(func(guard string) (bool, error) {
	switch len(guard) % 3 {
	case 0:
		return true, nil
	case 1:
		return false, nil
	default:
		return false, errors.New("no such guard")
	}
})

// describe renders everything a decision hands out.
func describe(d Decision, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %v err=%v", d.Kind, d.Visit, err)
	for _, p := range d.Branches {
		fmt.Fprintf(&b, " fork %v", p)
	}
	for _, p := range d.Alternates {
		fmt.Fprintf(&b, " alt %v", p)
	}
	return b.String()
}

// FuzzLazyNext holds the itinerary that stays encoded to the decoded tree:
// DecodeBinary accepts exactly what DecodePattern accepts as a whole
// section, and stepping the two to the end decides alike at every step —
// guards that hold, fail and err included — and leaves the same bytes.
func FuzzLazyNext(f *testing.F) {
	for _, p := range []*Pattern{
		SeqVisits([]string{"s0", "s1", "s2", "s3"}, ""),
		SeqVisits([]string{"s0", "s1"}, "report"),
		ConditionalTour([]string{"a", "b", "c", "d"}, "go", "act"),
		ConditionalTour([]string{"a", "b", "c"}, "g", ""),
		ConditionalTour([]string{"a", "b", "c"}, "gg", ""),
		Singleton(Visit{Server: "alone"}),
		Seq(Singleton(Visit{Server: "one"})),
		Seq(Singleton(Visit{Server: "s0"}), Alt(Singleton(Visit{Server: "x", Guard: "gg"}), Singleton(Visit{Server: "y"})), Singleton(Visit{Server: "s2"})),
		Seq(Singleton(Visit{Server: "s0", Guard: "g"}), Par(Singleton(Visit{Server: "p"}), Singleton(Visit{Server: "q"})), Singleton(Visit{Server: "s3"})),
		Seq(Singleton(Visit{Server: "s0"}), Seq(Singleton(Visit{Server: "n0"}), Singleton(Visit{Server: "n1"})), Singleton(Visit{Server: "s3"})),
		Seq(),
	} {
		f.Add(p.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{9})
	f.Add([]byte{1, 2, 0, 1, 'a', 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		lazy, lerr := DecodeBinary(b)
		eager := &Itinerary{}
		var eerr error
		if len(b) > 0 {
			var rest []byte
			if eager.tree, rest, eerr = DecodePattern(b); eerr == nil && len(rest) != 0 {
				eerr = errors.New("trailing bytes")
			}
		}
		if (lerr == nil) != (eerr == nil) {
			t.Fatalf("DecodeBinary: %v, DecodePattern: %v", lerr, eerr)
		}
		if lerr != nil {
			return
		}
		if got := lazy.AppendBinary(nil); !bytes.Equal(got, b) {
			t.Fatalf("an unstepped itinerary re-encoded\n  %x\nfrom\n  %x", got, b)
		}
		for step := 0; ; step++ {
			ld, lerr := lazy.Next(guardByName)
			ed, eerr := eager.Next(guardByName)
			if got, want := describe(ld, lerr), describe(ed, eerr); got != want {
				t.Fatalf("step %d of %x decided\n  %s\nthe tree\n  %s", step, b, got, want)
			}
			if got, want := lazy.AppendBinary(nil), eager.AppendBinary(nil); !bytes.Equal(got, want) {
				t.Fatalf("step %d of %x left\n  %x\nthe tree\n  %x", step, b, got, want)
			}
			if lerr != nil || ld.Kind == DecisionDone {
				return
			}
		}
	})
}
