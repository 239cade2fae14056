package snmp

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// ValueType discriminates MIB value encodings (a pragmatic subset of
// SNMPv1's ASN.1 types).
type ValueType int

// Value types.
const (
	TypeString ValueType = iota
	TypeInteger
	TypeCounter
	TypeGauge
	TypeTimeTicks
)

// String returns the type name.
func (t ValueType) String() string {
	switch t {
	case TypeString:
		return "OCTET STRING"
	case TypeInteger:
		return "INTEGER"
	case TypeCounter:
		return "Counter"
	case TypeGauge:
		return "Gauge"
	case TypeTimeTicks:
		return "TimeTicks"
	default:
		return fmt.Sprintf("ValueType(%d)", int(t))
	}
}

// Value is one MIB object value.
type Value struct {
	Type ValueType
	Str  string
	Int  int64
}

// StringValue builds an OCTET STRING value.
func StringValue(s string) Value { return Value{Type: TypeString, Str: s} }

// IntValue builds an INTEGER value.
func IntValue(n int64) Value { return Value{Type: TypeInteger, Int: n} }

// CounterValue builds a Counter value.
func CounterValue(n int64) Value { return Value{Type: TypeCounter, Int: n} }

// GaugeValue builds a Gauge value.
func GaugeValue(n int64) Value { return Value{Type: TypeGauge, Int: n} }

// TimeTicksValue builds a TimeTicks value.
func TimeTicksValue(n int64) Value { return Value{Type: TypeTimeTicks, Int: n} }

// Render returns the value in its textual form, as an agent reports it.
func (v Value) Render() string {
	if v.Type == TypeString {
		return v.Str
	}
	return strconv.FormatInt(v.Int, 10)
}

// AppendRender appends Render's text to dst.
func (v Value) AppendRender(dst []byte) []byte {
	if v.Type == TypeString {
		return append(dst, v.Str...)
	}
	return strconv.AppendInt(dst, v.Int, 10)
}

// Errors reported by MIB operations.
var (
	ErrNoSuchName = errors.New("snmp: noSuchName")
	ErrEndOfMIB   = errors.New("snmp: end of MIB view")
	ErrReadOnly   = errors.New("snmp: read-only object")
)

// binding is one stored object.
type binding struct {
	oid      OID
	value    Value
	readOnly bool
}

// MIB is a management information base: an ordered map from OIDs to values.
// It is safe for concurrent use (the device workload mutates counters while
// agents serve queries).
type MIB struct {
	mu       sync.RWMutex
	bindings []binding // sorted by OID
}

// NewMIB returns an empty MIB.
func NewMIB() *MIB {
	return &MIB{}
}

// search finds the index of oid, or the insertion point.
func (m *MIB) search(oid OID) (int, bool) {
	i := sort.Search(len(m.bindings), func(i int) bool {
		return m.bindings[i].oid.Compare(oid) >= 0
	})
	if i < len(m.bindings) && m.bindings[i].oid.Equal(oid) {
		return i, true
	}
	return i, false
}

// Define installs (or replaces) an object. readOnly objects refuse Set.
func (m *MIB) Define(oid OID, v Value, readOnly bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := binding{oid: oid.Clone(), value: v, readOnly: readOnly}
	if i, found := m.search(oid); found {
		m.bindings[i] = b
	} else {
		m.bindings = append(m.bindings, binding{})
		copy(m.bindings[i+1:], m.bindings[i:])
		m.bindings[i] = b
	}
}

// Get returns the value bound to oid.
func (m *MIB) Get(oid OID) (Value, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i, found := m.search(oid); found {
		return m.bindings[i].value, nil
	}
	return Value{}, fmt.Errorf("%w: %s", ErrNoSuchName, oid.String()) // oid itself stays off the heap
}

// Next returns the first binding with an OID strictly after oid, the
// GetNext primitive that drives MIB walks.
func (m *MIB) Next(oid OID) (OID, Value, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i, found := m.search(oid)
	if found {
		i++
	}
	if i >= len(m.bindings) {
		return nil, Value{}, ErrEndOfMIB
	}
	return m.bindings[i].oid.Clone(), m.bindings[i].value, nil
}

// Set updates a writable object's value in place. The object must exist
// and its type is preserved (SNMPv1 set semantics for managed objects).
func (m *MIB) Set(oid OID, v Value) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, found := m.search(oid)
	if !found {
		return fmt.Errorf("%w: %s", ErrNoSuchName, oid)
	}
	if m.bindings[i].readOnly {
		return fmt.Errorf("%w: %s", ErrReadOnly, oid)
	}
	m.bindings[i].value = v
	return nil
}

// ForceSet updates any existing object, bypassing the read-only flag: the
// device's own instrumentation path (a manager's Set still respects
// read-only).
func (m *MIB) ForceSet(oid OID, v Value) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, found := m.search(oid)
	if !found {
		return fmt.Errorf("%w: %s", ErrNoSuchName, oid)
	}
	m.bindings[i].value = v
	return nil
}

// Adjust adds delta to a numeric object (counters and gauges), bypassing
// the read-only flag: it models the device itself updating its
// instrumentation.
func (m *MIB) Adjust(oid OID, delta int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, found := m.search(oid)
	if !found {
		return fmt.Errorf("%w: %s", ErrNoSuchName, oid)
	}
	if m.bindings[i].value.Type == TypeString {
		return fmt.Errorf("snmp: cannot adjust string object %s", oid)
	}
	m.bindings[i].value.Int += delta
	return nil
}

// Walk visits every binding under root in MIB order.
func (m *MIB) Walk(root OID, f func(OID, Value) error) error {
	m.mu.RLock()
	start, _ := m.search(root)
	snapshot := make([]binding, 0)
	for i := start; i < len(m.bindings) && m.bindings[i].oid.HasPrefix(root); i++ {
		snapshot = append(snapshot, m.bindings[i])
	}
	m.mu.RUnlock()
	for _, b := range snapshot {
		if err := f(b.oid.Clone(), b.value); err != nil {
			return err
		}
	}
	return nil
}

// Len reports the number of bound objects.
func (m *MIB) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.bindings)
}
