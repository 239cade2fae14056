// Package id implements the hierarchical naplet identifier described in
// §2.1 and Figure 1 of the Naplet paper.
//
// A naplet identifier records who created the naplet, when, and where, plus
// the clone heritage of the naplet. The textual form is
//
//	owner@host:timestamp:heritage
//
// for example
//
//	czxu@ece.eng.wayne.edu:010512172720:2.1
//
// which denotes the first clone (suffix .1) of the naplet numbered 2 in its
// generation, created by user czxu on host ece.eng.wayne.edu at 17:27:20 on
// May 12, 2001. The heritage is a dot-separated sequence of non-negative
// integers; by convention 0 names the originator within a generation, so a
// clone of X with heritage H receives heritage H.k for the next unused k ≥ 1,
// and X itself is retroactively understood as H.0 if one more generation is
// needed. Identifiers are immutable once created.
package id

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// TimeLayout is the timestamp layout used in the textual form of a NapletID.
// It follows the paper's example "010512172720": YYMMDDhhmmss.
const TimeLayout = "060102150405"

// Heritage encodes the clone lineage of a naplet as a sequence of
// non-negative integers (Figure 1). The empty heritage belongs to an
// original, never-cloned naplet. Heritage values are treated as immutable;
// operations return fresh slices.
type Heritage []int

// ParseHeritage parses a dot-separated heritage string such as "2.1".
// The empty string parses to the empty heritage.
func ParseHeritage(s string) (Heritage, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	h := make(Heritage, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || (len(p) > 1 && p[0] == '0') {
			return nil, fmt.Errorf("id: invalid heritage component %q in %q", p, s)
		}
		h[i] = n
	}
	return h, nil
}

// String renders the heritage in its dot-separated textual form.
func (h Heritage) String() string {
	if len(h) == 0 {
		return ""
	}
	return string(h.appendText(nil))
}

// appendText appends the dot-separated textual form to b.
func (h Heritage) appendText(b []byte) []byte {
	for i, n := range h {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return b
}

// Depth reports the number of generations recorded in the heritage. An
// original naplet has depth 0.
func (h Heritage) Depth() int { return len(h) }

// Child returns the heritage of the k-th clone descended from h.
func (h Heritage) Child(k int) Heritage {
	c := make(Heritage, len(h)+1)
	copy(c, h)
	c[len(h)] = k
	return c
}

// Parent returns the heritage one generation up, and false if h is already
// the root (empty) heritage.
func (h Heritage) Parent() (Heritage, bool) {
	if len(h) == 0 {
		return nil, false
	}
	p := make(Heritage, len(h)-1)
	copy(p, h[:len(h)-1])
	return p, true
}

// IsAncestorOf reports whether h is a proper ancestor of other in the clone
// tree: h is a strict prefix of other.
func (h Heritage) IsAncestorOf(other Heritage) bool {
	if len(h) >= len(other) {
		return false
	}
	for i, n := range h {
		if other[i] != n {
			return false
		}
	}
	return true
}

// Equal reports whether two heritages denote the same lineage position.
func (h Heritage) Equal(other Heritage) bool {
	if len(h) != len(other) {
		return false
	}
	for i, n := range h {
		if other[i] != n {
			return false
		}
	}
	return true
}

// Compare orders heritages lexicographically, with shorter prefixes first.
// It returns -1, 0, or +1.
func (h Heritage) Compare(other Heritage) int {
	for i := 0; i < len(h) && i < len(other); i++ {
		switch {
		case h[i] < other[i]:
			return -1
		case h[i] > other[i]:
			return 1
		}
	}
	switch {
	case len(h) < len(other):
		return -1
	case len(h) > len(other):
		return 1
	}
	return 0
}

// NapletID is the system-wide unique, immutable identifier of a naplet
// (§2.1). It is a value type; all accessors return copies so the identifier
// cannot be mutated after creation. Because it cannot change, it carries
// its canonical text, built once by seal: every component of a dock files
// a naplet under that text, several times per hop. owner and host are
// substrings of text, not strings of their own.
type NapletID struct {
	text     string
	owner    string
	host     string
	created  time.Time
	heritage Heritage
}

// seal is the one place an identifier's text is formatted, and the one way
// an identifier with a text is made: owner@host:YYMMDDhhmmss[:heritage],
// assembled on the stack and copied into the one string the identifier
// keeps. Nothing of owner or host is retained, so they may be views into a
// buffer the caller is about to reuse.
func seal[S ~string | ~[]byte](owner, host S, created time.Time, heritage Heritage) NapletID {
	var arr [96]byte
	b := appendText(arr[:0], owner, host, created)
	if len(heritage) > 0 {
		b = heritage.appendText(append(b, ':'))
	}
	text := string(b)
	hostAt := len(owner) + 1
	return NapletID{
		text:     text,
		owner:    text[:len(owner)],
		host:     text[hostAt : hostAt+len(host)],
		created:  created,
		heritage: heritage,
	}
}

// appendText appends the text of an identifier up to its heritage:
// owner@host:YYMMDDhhmmss.
func appendText[S ~string | ~[]byte](b []byte, owner, host S, created time.Time) []byte {
	b = append(b, owner...)
	b = append(b, '@')
	b = append(b, host...)
	b = append(b, ':')
	return created.AppendFormat(b, TimeLayout)
}

// ErrMalformed is returned by Parse for strings that do not follow the
// owner@host:timestamp[:heritage] grammar.
var ErrMalformed = errors.New("id: malformed naplet identifier")

// New creates the identifier of an original (never cloned) naplet created by
// owner on host at the given time. The time is truncated to second precision
// to match the textual form.
func New(owner, host string, created time.Time) (NapletID, error) {
	return newID(owner, host, created, nil)
}

func newID(owner, host string, created time.Time, heritage Heritage) (NapletID, error) {
	if owner == "" || strings.ContainsAny(owner, "@:") {
		return NapletID{}, fmt.Errorf("%w: bad owner %q", ErrMalformed, owner)
	}
	if host == "" || strings.ContainsAny(host, "@:") {
		return NapletID{}, fmt.Errorf("%w: bad host %q", ErrMalformed, host)
	}
	return seal(owner, host, created.UTC().Truncate(time.Second), heritage), nil
}

// MustNew is like New but panics on error. It is intended for tests and for
// identifiers built from compile-time constants.
func MustNew(owner, host string, created time.Time) NapletID {
	nid, err := New(owner, host, created)
	if err != nil {
		panic(err)
	}
	return nid
}

// Parse parses the textual form owner@host:timestamp[:heritage].
func Parse(s string) (NapletID, error) {
	at := strings.IndexByte(s, '@')
	if at <= 0 {
		return NapletID{}, fmt.Errorf("%w: %q", ErrMalformed, s)
	}
	owner := s[:at]
	rest := s[at+1:]
	parts := strings.Split(rest, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return NapletID{}, fmt.Errorf("%w: %q", ErrMalformed, s)
	}
	host := parts[0]
	if host == "" {
		return NapletID{}, fmt.Errorf("%w: empty host in %q", ErrMalformed, s)
	}
	created, err := time.ParseInLocation(TimeLayout, parts[1], time.UTC)
	if err != nil {
		return NapletID{}, fmt.Errorf("%w: bad timestamp in %q: %v", ErrMalformed, s, err)
	}
	var h Heritage
	if len(parts) == 3 {
		h, err = ParseHeritage(parts[2])
		if err != nil {
			return NapletID{}, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	}
	return newID(owner, host, created, h)
}

// Owner returns the user name of the naplet creator.
func (n NapletID) Owner() string { return n.owner }

// Host returns the home host on which the naplet was created. The home
// server of a naplet is derivable from its identifier (§4.1).
func (n NapletID) Host() string { return n.host }

// Created returns the creation time (UTC, second precision).
func (n NapletID) Created() time.Time { return n.created }

// Heritage returns a copy of the clone heritage sequence.
func (n NapletID) Heritage() Heritage {
	h := make(Heritage, len(n.heritage))
	copy(h, n.heritage)
	return h
}

// IsZero reports whether the identifier is the zero value.
func (n NapletID) IsZero() bool {
	return n.owner == "" && n.host == "" && n.created.IsZero() && len(n.heritage) == 0
}

// IsOriginal reports whether the naplet has never been cloned from another
// naplet (empty heritage, or an all-zero heritage which names the originator
// in every generation).
func (n NapletID) IsOriginal() bool {
	for _, g := range n.heritage {
		if g != 0 {
			return false
		}
	}
	return true
}

// Clone derives the identifier of the k-th clone of this naplet, k ≥ 1.
// Cloning is recursive: a clone can itself be cloned, extending the heritage
// by one generation each time (Figure 1).
func (n NapletID) Clone(k int) (NapletID, error) {
	if k < 1 {
		return NapletID{}, fmt.Errorf("id: clone index must be ≥ 1, got %d", k)
	}
	return seal(n.owner, n.host, n.created, n.heritage.Child(k)), nil
}

// Originator returns the identifier that names the originator within this
// naplet's generation: the same lineage with the final heritage component
// replaced by 0. If the naplet is an original (empty heritage) it returns
// itself.
func (n NapletID) Originator() NapletID {
	if len(n.heritage) == 0 {
		return n
	}
	h := n.Heritage()
	h[len(h)-1] = 0
	return seal(n.owner, n.host, n.created, h)
}

// Root returns the identifier of the root of the clone tree: the original
// naplet with empty heritage.
func (n NapletID) Root() NapletID {
	if len(n.heritage) == 0 {
		return n
	}
	return seal(n.owner, n.host, n.created, nil)
}

// SameLineage reports whether two identifiers descend from the same original
// naplet (same owner, host, creation time).
func (n NapletID) SameLineage(other NapletID) bool {
	return n.owner == other.owner && n.host == other.host && n.created.Equal(other.created)
}

// Equal reports whether two identifiers name the same naplet.
func (n NapletID) Equal(other NapletID) bool {
	return n.SameLineage(other) && n.heritage.Equal(other.heritage)
}

// String returns the identifier's canonical textual form: the text it was
// sealed with. Only the zero value has none, and is formatted on demand.
func (n NapletID) String() string {
	if n.text == "" {
		return seal(n.owner, n.host, n.created, n.heritage).text
	}
	return n.text
}

// Key returns the canonical map key for the identifier. It is String, and
// like String costs nothing: the identifier carries the text. The method
// exists so that a call site filing a naplet in a map says so.
func (n NapletID) Key() string { return n.String() }

// MarshalText implements encoding.TextMarshaler, so identifiers serialize
// with encoding/json in their canonical textual form. The zero identifier
// (every operator request that names no naplet carries one) is the empty
// text.
func (n NapletID) MarshalText() ([]byte, error) {
	if n.IsZero() {
		return nil, nil
	}
	return []byte(n.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (n *NapletID) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*n = NapletID{}
		return nil
	}
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*n = parsed
	return nil
}

// Generator mints fresh naplet identifiers for one (owner, host) principal.
// Identifiers created within the same second are disambiguated by advancing
// the timestamp, preserving system-wide uniqueness without random state.
// A Generator is not safe for concurrent use; wrap it with a mutex or use
// one per goroutine.
type Generator struct {
	owner string
	host  string
	now   func() time.Time
	last  time.Time
}

// NewGenerator returns a Generator for the given principal. If now is nil,
// time.Now is used.
func NewGenerator(owner, host string, now func() time.Time) (*Generator, error) {
	if _, err := New(owner, host, time.Unix(0, 0)); err != nil {
		return nil, err
	}
	if now == nil {
		now = time.Now
	}
	return &Generator{owner: owner, host: host, now: now}, nil
}

// Next returns a fresh, unique identifier.
func (g *Generator) Next() NapletID {
	t := g.now().UTC().Truncate(time.Second)
	if !t.After(g.last) {
		t = g.last.Add(time.Second)
	}
	g.last = t
	nid, _ := New(g.owner, g.host, t)
	return nid
}
