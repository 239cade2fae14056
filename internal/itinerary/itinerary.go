// Package itinerary implements the structured itinerary mechanism of §3 of
// the Naplet paper.
//
// An itinerary is concerned with the visiting order among servers. The
// paper's BNF:
//
//	<Visit V>            ::= <S> | <S; T> | <C -> S; T>
//	<ItineraryPattern P> ::= Singleton(V) | Seq(P, P) | Alt(P, P) | Par(P, P)
//
// where S is the server, T an itinerary-dependent post-action, and C a
// guardian condition. Patterns compose recursively. Because Go cannot
// serialize code, post-actions (T) and guards (C) are referenced by name and
// resolved against the codebase registry by the runtime; the pattern tree
// itself is a pure, serializable value.
//
// Execution uses a derivative-style engine: Step consumes the next visit
// from the pattern and returns the remaining pattern, so an Itinerary's
// progress is captured entirely by its (serializable) remaining tree —
// exactly what must travel with a migrating agent.
//
// Par semantics: a Par(P1, …, Pn) node forks the executing naplet. The
// parent continues with branch P1 followed by whatever follows the Par; each
// clone receives one branch Pi (i ≥ 2) as its whole remaining itinerary.
// Rendezvous after a Par is not implicit; the paper synchronizes clones
// explicitly with post-actions (cf. DataComm in Example 2), and so does this
// implementation.
//
// Alt semantics: Alt(P, Q) evaluates the guard of P's first visit; if it
// holds (or P's first visit is unguarded) the naplet carries out P,
// otherwise Q.
package itinerary

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/wire"
)

// Visit is one stop in an itinerary: the server to visit, an optional named
// guard (the paper's C), and an optional named post-action (the paper's T).
// The server-specific business logic S is the agent's OnStart method and is
// not part of the itinerary, per the paper's separation of business logic
// from travel plans.
type Visit struct {
	// Server is the naplet server to visit.
	Server string
	// Guard names a registered guard condition; the visit is carried out
	// only if the guard evaluates true. Empty means unconditional.
	Guard string
	// Action names a registered post-action to perform after the visit's
	// business logic, for inter-agent communication and synchronization.
	Action string
}

// String renders the visit in the paper's <C -> S; T> notation.
func (v Visit) String() string {
	var b strings.Builder
	b.WriteByte('<')
	if v.Guard != "" {
		b.WriteString(v.Guard)
		b.WriteString(" -> ")
	}
	b.WriteString(v.Server)
	if v.Action != "" {
		b.WriteString("; ")
		b.WriteString(v.Action)
	}
	b.WriteByte('>')
	return b.String()
}

// Kind discriminates pattern tree nodes.
type Kind int

// Pattern node kinds.
const (
	KindSingleton Kind = iota
	KindSeq
	KindAlt
	KindPar
)

// String returns the BNF operator name.
func (k Kind) String() string {
	switch k {
	case KindSingleton:
		return "Singleton"
	case KindSeq:
		return "Seq"
	case KindAlt:
		return "Alt"
	case KindPar:
		return "Par"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Pattern is a node of the itinerary pattern tree. Patterns travel with
// the naplet in the binary codec of binary.go.
//
// A pattern is immutable once built: only the constructors, the decoder and
// Clone write a node's fields. Next relies on it — the remainder it leaves
// behind shares the operands it did not consume with the pattern it stepped.
// Clone is for handing a tree to another owner: a naplet clone's Par branch,
// a caller's pattern entering New.
type Pattern struct {
	Kind Kind
	// V is the visit of a Singleton node.
	V Visit
	// Subs are the operand patterns of Seq, Alt, and Par nodes. The paper
	// defines binary operators; n-ary nodes are the obvious flattening
	// (Seq(P1, P2, P3) ≡ Seq(P1, Seq(P2, P3))) and are what the paper's
	// SeqPattern(servers, act) convenience constructors build.
	Subs []*Pattern
}

// Errors reported by pattern construction and execution.
var (
	ErrEmptyPattern = errors.New("itinerary: empty pattern")
	ErrBadGuard     = errors.New("itinerary: guard evaluation failed")
)

// Singleton returns the base pattern: a single (possibly conditional) visit.
func Singleton(v Visit) *Pattern {
	return &Pattern{Kind: KindSingleton, V: v}
}

// Seq composes patterns sequentially: each operand's visits follow the
// previous operand's.
func Seq(ps ...*Pattern) *Pattern {
	return &Pattern{Kind: KindSeq, Subs: ps}
}

// Alt composes alternative patterns: exactly one operand is carried out by
// the naplet, selected by the guard of the first operand whose initial visit
// guard holds (an unguarded initial visit always holds).
func Alt(ps ...*Pattern) *Pattern {
	return &Pattern{Kind: KindAlt, Subs: ps}
}

// Par composes parallel patterns: the first operand is carried out by the
// naplet itself and each further operand by a fresh clone.
func Par(ps ...*Pattern) *Pattern {
	return &Pattern{Kind: KindPar, Subs: ps}
}

// SeqVisits builds the paper's SeqPattern(servers, act) convenience: a
// sequential tour of the servers with the same post-action after each visit.
func SeqVisits(servers []string, action string) *Pattern {
	subs := make([]*Pattern, len(servers))
	for i, s := range servers {
		subs[i] = Singleton(Visit{Server: s, Action: action})
	}
	return Seq(subs...)
}

// ParVisits builds the paper's Example-2 broadcast: every server visited by
// its own clone, each running the same post-action.
func ParVisits(servers []string, action string) *Pattern {
	subs := make([]*Pattern, len(servers))
	for i, s := range servers {
		subs[i] = Singleton(Visit{Server: s, Action: action})
	}
	return Par(subs...)
}

// ConditionalTour builds a sequential search route: the first visit is
// unconditional, every later visit is guarded by guard, as in the paper's
// mobile agent-based sequential search where "all visits except the first
// one should be conditional visits".
func ConditionalTour(servers []string, guard, action string) *Pattern {
	subs := make([]*Pattern, len(servers))
	for i, s := range servers {
		v := Visit{Server: s, Action: action}
		if i > 0 {
			v.Guard = guard
		}
		subs[i] = Singleton(v)
	}
	return Seq(subs...)
}

// String renders the pattern in the paper's operator notation, e.g.
// "par(seq(<s0>, <s1>), seq(<s2>, <s3>))".
func (p *Pattern) String() string {
	if p == nil {
		return "ε"
	}
	switch p.Kind {
	case KindSingleton:
		return p.V.String()
	default:
		names := map[Kind]string{KindSeq: "seq", KindAlt: "alt", KindPar: "par"}
		parts := make([]string, len(p.Subs))
		for i, s := range p.Subs {
			parts[i] = s.String()
		}
		return names[p.Kind] + "(" + strings.Join(parts, ", ") + ")"
	}
}

// Clone deep-copies the pattern tree.
func (p *Pattern) Clone() *Pattern {
	if p == nil {
		return nil
	}
	c := &Pattern{Kind: p.Kind, V: p.V}
	if p.Subs != nil {
		c.Subs = make([]*Pattern, len(p.Subs))
		for i, s := range p.Subs {
			c.Subs[i] = s.Clone()
		}
	}
	return c
}

// Servers returns every server mentioned in the pattern, in tree order,
// with duplicates preserved.
func (p *Pattern) Servers() []string {
	var out []string
	p.walk(func(v Visit) {
		out = append(out, v.Server)
	})
	return out
}

// Visits returns every visit in the pattern in tree order.
func (p *Pattern) Visits() []Visit {
	var out []Visit
	p.walk(func(v Visit) { out = append(out, v) })
	return out
}

func (p *Pattern) walk(f func(Visit)) {
	if p == nil {
		return
	}
	if p.Kind == KindSingleton {
		f(p.V)
		return
	}
	for _, s := range p.Subs {
		s.walk(f)
	}
}

// Validate checks structural well-formedness: every composite node has at
// least one operand and every singleton names a server.
func (p *Pattern) Validate() error {
	if p == nil {
		return ErrEmptyPattern
	}
	switch p.Kind {
	case KindSingleton:
		if p.V.Server == "" {
			return fmt.Errorf("itinerary: singleton with empty server")
		}
		return nil
	case KindSeq, KindAlt, KindPar:
		if len(p.Subs) == 0 {
			return fmt.Errorf("itinerary: %v with no operands", p.Kind)
		}
		for _, s := range p.Subs {
			if err := s.Validate(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("itinerary: unknown node kind %v", p.Kind)
	}
}

// Evaluator evaluates named guard conditions against the executing agent's
// state. The runtime supplies one backed by the codebase registry.
type Evaluator interface {
	Eval(guard string) (bool, error)
}

// EvalFunc adapts a function to the Evaluator interface.
type EvalFunc func(guard string) (bool, error)

// Eval implements Evaluator.
func (f EvalFunc) Eval(guard string) (bool, error) { return f(guard) }

// DecisionKind discriminates the outcomes of a Step.
type DecisionKind int

// Step outcomes.
const (
	// DecisionDone: the itinerary is complete; the naplet has no further
	// visits.
	DecisionDone DecisionKind = iota
	// DecisionVisit: travel to Decision.Visit.Server and perform the visit.
	DecisionVisit
	// DecisionFork: clone the naplet; the parent continues with
	// Decision.Branches[0] (already folded into the remainder), each clone
	// i ≥ 1 receives Branches[i] as its full remaining itinerary.
	DecisionFork
)

// Decision is the outcome of consuming one step of an itinerary.
type Decision struct {
	Kind DecisionKind
	// Visit is set for DecisionVisit.
	Visit Visit
	// Branches is set for DecisionFork: the clone branches (excluding the
	// parent's, which continues inside the stepped itinerary).
	Branches []*Pattern
	// Alternates holds, for a DecisionVisit chosen by an Alt node, the
	// not-chosen alternative subtrees — each rewrapped with whatever
	// follows the Alt, so any one of them is a complete replacement for
	// the remaining itinerary. The visit engine falls back to them when
	// dispatch toward Visit.Server exhausts against a dead destination.
	Alternates []*Pattern
}

// Itinerary is the travel plan carried by a naplet: the remaining pattern
// tree. The zero value is a completed itinerary. It is advanced in place by
// Next.
//
// A decoded itinerary stays encoded while its head is a plain visit: Next
// steps over the Singleton operands leading a Seq on the bytes, decoding
// only the visit it hands out, and keeps the Seq's re-written header
// beside the view of the operands left. A tour therefore pays at a dock
// for its next stop, not for the stops still ahead. Any other head, and
// Pattern, decode the tree.
type Itinerary struct {
	tree *Pattern
	// While tree is nil the plan is enc: one encoded pattern when ops is
	// 0, otherwise the ops operands of a Seq whose header Next re-wrote.
	enc []byte
	ops int
}

// New wraps a validated pattern into an itinerary.
func New(p *Pattern) (*Itinerary, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Itinerary{tree: p.Clone()}, nil
}

// MustNew is like New but panics on invalid patterns; for tests and
// constant itineraries.
func MustNew(p *Pattern) *Itinerary {
	it, err := New(p)
	if err != nil {
		panic(err)
	}
	return it
}

// Done reports whether the itinerary is complete.
func (it *Itinerary) Done() bool { return it == nil || it.tree == nil && len(it.enc) == 0 }

// Pattern returns the remaining plan, nil once the itinerary is done. A
// plan still encoded is decoded afresh on each call. The tree may be
// shared with the itinerary and, like every pattern, must not be changed.
func (it *Itinerary) Pattern() *Pattern {
	switch {
	case it.Done():
		return nil
	case it.tree != nil:
		return it.tree
	default:
		return decodeRest(it.ops, it.enc)
	}
}

// Replace makes p the remaining plan; nil completes the itinerary. The
// itinerary shares p, which must not be changed afterwards.
func (it *Itinerary) Replace(p *Pattern) {
	it.tree, it.enc, it.ops = p, nil, 0
}

// Clone deep-copies the itinerary. A plan still encoded shares its bytes,
// which nothing writes.
func (it *Itinerary) Clone() *Itinerary {
	if it == nil {
		return nil
	}
	return &Itinerary{tree: it.tree.Clone(), enc: it.enc, ops: it.ops}
}

// String renders the remaining plan.
func (it *Itinerary) String() string {
	if it.Done() {
		return "ε"
	}
	return it.Pattern().String()
}

// Next consumes the next step of the itinerary, advancing it in place.
//
//   - DecisionVisit: the returned visit's guard has already been evaluated
//     (guarded visits that fail their guard are skipped silently, per §3's
//     conditional-visit semantics).
//   - DecisionFork: the itinerary has been rewritten so the parent continues
//     with the first branch; the returned Branches hold the clones' plans.
//     The caller forks clones and then calls Next again to obtain the
//     parent's own next visit.
//   - DecisionDone: nothing remains.
//
// A failed guard evaluation returns its error and leaves the itinerary as
// it was.
func (it *Itinerary) Next(ev Evaluator) (Decision, error) {
	for !it.Done() {
		p := it.tree
		if p == nil {
			d, rest, err := it.stepEncoded(ev)
			if rest == nil || err != nil {
				return d, err
			}
			p = rest
		}
		d, rest, err := step(p, ev)
		if err != nil {
			return Decision{}, err
		}
		it.Replace(rest)
		if d.Kind != DecisionDone {
			return d, nil
		}
		// The subtree produced nothing (e.g. all guards false); continue
		// with the remainder.
	}
	return Decision{Kind: DecisionDone}, nil
}

// stepEncoded is step on a plan still encoded, for the heads it can take on
// the bytes: a lone Singleton, or the Singleton operands leading a Seq,
// skipped while their guards fail. It advances the itinerary when it hands
// out a visit or runs out of plan. At any other head it returns the plan
// left from there decoded, for step, and leaves the itinerary unchanged.
func (it *Itinerary) stepEncoded(ev Evaluator) (Decision, *Pattern, error) {
	ops, b := it.ops, it.enc
	if ops == 0 {
		kind, rest, _ := wire.DecUvarint(b)
		switch Kind(kind) {
		case KindSingleton:
			ops = 1 // a lone visit steps as a Seq of one
		case KindSeq:
			n, rest, _ := wire.DecUvarint(rest)
			ops, b = int(n), rest
		default:
			return Decision{}, decodeRest(0, b), nil
		}
	}
	for ; ops > 0; ops-- {
		kind, rest, _ := wire.DecUvarint(b)
		if Kind(kind) != KindSingleton {
			return Decision{}, decodeRest(ops, b), nil
		}
		v, rest, _ := DecodeVisit(rest)
		ok, err := evalGuard(v.Guard, ev)
		if err != nil {
			return Decision{}, nil, err
		}
		b = rest
		if ok {
			// What seqRemainder leaves: the one operand on its own, or a
			// Seq of those still ahead.
			if ops--; ops < 2 {
				ops = 0
			}
			it.enc, it.ops = b, ops
			return Decision{Kind: DecisionVisit, Visit: v}, nil, nil
		}
	}
	it.Replace(nil)
	return Decision{Kind: DecisionDone}, nil, nil
}

// step consumes one decision from p, returning the decision and the
// remaining pattern (nil when p is exhausted).
func step(p *Pattern, ev Evaluator) (Decision, *Pattern, error) {
	switch p.Kind {
	case KindSingleton:
		ok, err := evalGuard(p.V.Guard, ev)
		if err != nil {
			return Decision{}, nil, err
		}
		if !ok {
			// Guard failed: the visit is skipped.
			return Decision{Kind: DecisionDone}, nil, nil
		}
		return Decision{Kind: DecisionVisit, Visit: p.V}, nil, nil

	case KindSeq:
		for i, sub := range p.Subs {
			d, rest, err := step(sub, ev)
			if err != nil {
				return Decision{}, nil, err
			}
			if d.Kind == DecisionDone && rest == nil {
				continue // operand exhausted, move to the next
			}
			// Rebuild the remainder: rest of this operand + later operands.
			remainder := seqRemainder(rest, p.Subs[i+1:])
			// Failover alternates must carry the same continuation the
			// chosen path does, so rewrap each with the later operands.
			for k, alt := range d.Alternates {
				d.Alternates[k] = seqRemainder(alt, p.Subs[i+1:])
			}
			return d, remainder, nil
		}
		return Decision{Kind: DecisionDone}, nil, nil

	case KindAlt:
		chosen, idx, err := chooseAlt(p.Subs, ev)
		if err != nil {
			return Decision{}, nil, err
		}
		if chosen == nil {
			return Decision{Kind: DecisionDone}, nil, nil
		}
		d, rest, err := step(chosen, ev)
		if err != nil {
			return Decision{}, nil, err
		}
		if d.Kind == DecisionVisit {
			// The unchosen alternatives are this visit's failover routes:
			// if the chosen destination turns out dead, any of them can
			// replace the whole remaining subtree (their guards are
			// re-evaluated at failover time).
			for j, sub := range p.Subs {
				if j != idx {
					d.Alternates = append(d.Alternates, sub.Clone())
				}
			}
		}
		return d, rest, err

	case KindPar:
		if len(p.Subs) == 0 {
			return Decision{Kind: DecisionDone}, nil, nil
		}
		branches := make([]*Pattern, 0, len(p.Subs)-1)
		for _, b := range p.Subs[1:] {
			branches = append(branches, b.Clone())
		}
		// Parent continues with the first branch; the caller sees the fork
		// and then re-steps for the parent's next visit.
		return Decision{Kind: DecisionFork, Branches: branches}, p.Subs[0].Clone(), nil

	default:
		return Decision{}, nil, fmt.Errorf("itinerary: unknown node kind %v", p.Kind)
	}
}

// seqRemainder builds a Seq remainder from the rest of the current operand
// and the not-yet-started later operands, which it shares with the pattern
// being stepped: a tour pays for the node it leaves, not for the tail it has
// still to travel.
func seqRemainder(rest *Pattern, later []*Pattern) *Pattern {
	if rest != nil {
		if len(later) == 0 {
			return rest
		}
		subs := make([]*Pattern, 0, 1+len(later))
		later = append(append(subs, rest), later...)
	}
	switch len(later) {
	case 0:
		return nil
	case 1:
		return later[0]
	default:
		return &Pattern{Kind: KindSeq, Subs: later}
	}
}

// chooseAlt picks the first alternative whose initial visit guard holds,
// returning it with its index in subs (-1 when none holds).
func chooseAlt(subs []*Pattern, ev Evaluator) (*Pattern, int, error) {
	for i, sub := range subs {
		g := firstGuard(sub)
		ok, err := evalGuard(g, ev)
		if err != nil {
			return nil, -1, err
		}
		if ok {
			return sub.Clone(), i, nil
		}
	}
	return nil, -1, nil
}

// firstGuard finds the guard of the first visit reachable in the pattern.
func firstGuard(p *Pattern) string {
	if p == nil {
		return ""
	}
	if p.Kind == KindSingleton {
		return p.V.Guard
	}
	if len(p.Subs) == 0 {
		return ""
	}
	return firstGuard(p.Subs[0])
}

func evalGuard(guard string, ev Evaluator) (bool, error) {
	if guard == "" {
		return true, nil
	}
	if ev == nil {
		return false, fmt.Errorf("%w: guard %q with no evaluator", ErrBadGuard, guard)
	}
	ok, err := ev.Eval(guard)
	if err != nil {
		return false, fmt.Errorf("%w: %q: %v", ErrBadGuard, guard, err)
	}
	return ok, nil
}
