// Package snmp is the network-management substrate for §6 of the Naplet
// paper: an RFC1213-flavoured MIB tree, an SNMPv1-style agent with
// Get/GetNext/Set/Walk operations and community-based access, and simulated
// managed devices whose counters evolve over time.
//
// It substitutes for the AdventNet SNMP package and the real managed
// devices of the paper's testbed (see DESIGN.md §2): the experiments need
// per-variable request/reply semantics, realistic PDU sizes, and per-device
// MIB state — all of which this package provides with measurable,
// reproducible behaviour.
package snmp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// OID is an SNMP object identifier: a sequence of non-negative integers.
// OIDs are value-like; operations return fresh slices.
type OID []int

// Well-known RFC1213 OIDs used by the MIB builder, the MAN testbed and the
// examples.
var (
	OIDSystem    = MustParseOID("1.3.6.1.2.1.1")
	OIDSysDescr  = MustParseOID("1.3.6.1.2.1.1.1.0")
	OIDSysUpTime = MustParseOID("1.3.6.1.2.1.1.3.0")
	OIDSysName   = MustParseOID("1.3.6.1.2.1.1.5.0")
	OIDIfNumber  = MustParseOID("1.3.6.1.2.1.2.1.0")
	OIDIfTable   = MustParseOID("1.3.6.1.2.1.2.2.1")
	OIDIP        = MustParseOID("1.3.6.1.2.1.4")
)

// ErrBadOID reports a malformed OID string.
var ErrBadOID = errors.New("snmp: malformed OID")

// ParseOID parses dotted-decimal notation ("1.3.6.1.2.1.1.1.0").
func ParseOID(s string) (OID, error) {
	return AppendParseOID(make(OID, 0, strings.Count(s, ".")+1), s)
}

// AppendParseOID appends the arcs of s, in ParseOID's notation, to dst: a
// caller that parses into a buffer of its own allocates nothing. On an
// error it returns nil.
func AppendParseOID(dst OID, s string) (OID, error) {
	if s == "" {
		return nil, fmt.Errorf("%w: empty", ErrBadOID)
	}
	for rest, more := strings.TrimPrefix(s, "."), true; more; {
		var arc string
		arc, rest, more = strings.Cut(rest, ".")
		n, err := strconv.Atoi(arc)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: %q", ErrBadOID, s)
		}
		dst = append(dst, n)
	}
	return dst, nil
}

// MustParseOID is like ParseOID but panics on error; for constants.
func MustParseOID(s string) OID {
	oid, err := ParseOID(s)
	if err != nil {
		panic(err)
	}
	return oid
}

// String renders dotted-decimal notation.
func (o OID) String() string {
	parts := make([]string, len(o))
	for i, n := range o {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ".")
}

// Compare orders OIDs in MIB (lexicographic) order.
func (o OID) Compare(other OID) int {
	for i := 0; i < len(o) && i < len(other); i++ {
		switch {
		case o[i] < other[i]:
			return -1
		case o[i] > other[i]:
			return 1
		}
	}
	switch {
	case len(o) < len(other):
		return -1
	case len(o) > len(other):
		return 1
	}
	return 0
}

// Equal reports whether two OIDs are identical.
func (o OID) Equal(other OID) bool { return o.Compare(other) == 0 }

// HasPrefix reports whether o lies under the given subtree root.
func (o OID) HasPrefix(root OID) bool {
	if len(o) < len(root) {
		return false
	}
	for i, n := range root {
		if o[i] != n {
			return false
		}
	}
	return true
}

// Append extends the OID with additional arcs, returning a fresh OID.
func (o OID) Append(arcs ...int) OID {
	out := make(OID, len(o)+len(arcs))
	copy(out, o)
	copy(out[len(o):], arcs)
	return out
}

// Clone returns a copy.
func (o OID) Clone() OID { return o.Append() }
