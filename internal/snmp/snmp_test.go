package snmp

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseOIDRoundTrip(t *testing.T) {
	cases := []string{"1", "1.3.6.1.2.1.1.1.0", "0.0"}
	for _, in := range cases {
		oid, err := ParseOID(in)
		if err != nil {
			t.Fatalf("ParseOID(%q): %v", in, err)
		}
		if oid.String() != in {
			t.Fatalf("round trip %q -> %q", in, oid.String())
		}
	}
	if oid, err := ParseOID(".1.3"); err != nil || oid.String() != "1.3" {
		t.Fatalf("leading dot: %v %v", oid, err)
	}
	for _, bad := range []string{"", ".", "1..2", "1.", "a.b", "1.-2"} {
		if _, err := ParseOID(bad); !errors.Is(err, ErrBadOID) {
			t.Errorf("ParseOID(%q) = %v, want ErrBadOID", bad, err)
		}
	}
	// Parsing into a caller's buffer appends to it and allocates nothing.
	var arcs [16]int
	if oid, err := AppendParseOID(arcs[:1], "3.6.1"); err != nil || oid.String() != "0.3.6.1" {
		t.Fatalf("AppendParseOID = %v, %v", oid, err)
	}
	if n := testing.AllocsPerRun(100, func() { AppendParseOID(arcs[:0], "1.3.6.1.2.1.1.5.0") }); n != 0 {
		t.Errorf("AppendParseOID allocates %.0f times, want 0", n)
	}
}

func TestOIDCompareAndPrefix(t *testing.T) {
	a := MustParseOID("1.3.6")
	b := MustParseOID("1.3.6.1")
	c := MustParseOID("1.3.7")
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Fatal("prefix ordering")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Fatal("arc ordering")
	}
	if a.Compare(a.Clone()) != 0 || !a.Equal(a.Clone()) {
		t.Fatal("equality")
	}
	if !b.HasPrefix(a) || a.HasPrefix(b) {
		t.Fatal("HasPrefix")
	}
	d := a.Append(9)
	if d.String() != "1.3.6.9" || a.String() != "1.3.6" {
		t.Fatal("Append must not mutate")
	}
}

func TestMIBGetSetDefine(t *testing.T) {
	m := NewMIB()
	oid := MustParseOID("1.1.1.0")
	m.Define(oid, StringValue("v1"), false)
	v, err := m.Get(oid)
	if err != nil || v.Str != "v1" {
		t.Fatalf("Get: %v %v", v, err)
	}
	if err := m.Set(oid, StringValue("v2")); err != nil {
		t.Fatal(err)
	}
	v, _ = m.Get(oid)
	if v.Str != "v2" {
		t.Fatal("Set did not apply")
	}
	if _, err := m.Get(MustParseOID("9.9")); !errors.Is(err, ErrNoSuchName) {
		t.Fatalf("missing: %v", err)
	}
	if err := m.Set(MustParseOID("9.9"), IntValue(1)); !errors.Is(err, ErrNoSuchName) {
		t.Fatalf("set missing: %v", err)
	}
	ro := MustParseOID("1.1.2.0")
	m.Define(ro, IntValue(7), true)
	if err := m.Set(ro, IntValue(8)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only: %v", err)
	}
	if err := m.Adjust(ro, 5); err != nil {
		t.Fatalf("device-side adjust must bypass read-only: %v", err)
	}
	if v, _ := m.Get(ro); v.Int != 12 {
		t.Fatalf("adjust: %v", v)
	}
	if err := m.Adjust(MustParseOID("1.1.1.0"), 1); err == nil {
		t.Fatal("adjusting a string must fail")
	}
}

func TestMIBNextOrder(t *testing.T) {
	m := NewMIB()
	oids := []string{"1.3.6.1.2.1.1.1.0", "1.3.6.1.2.1.1.3.0", "1.3.6.1.2.1.2.1.0", "1.3.6.1.2.1.2.2.1.1.1"}
	// Define out of order.
	for _, i := range []int{2, 0, 3, 1} {
		m.Define(MustParseOID(oids[i]), IntValue(int64(i)), true)
	}
	// GetNext walk visits in MIB order.
	cur := MustParseOID("1")
	var walk []string
	for {
		next, _, err := m.Next(cur)
		if errors.Is(err, ErrEndOfMIB) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		walk = append(walk, next.String())
		cur = next
	}
	if !sort.StringsAreSorted(nil) { // placate linters; real check below
		t.Fatal("unreachable")
	}
	for i, want := range oids {
		if walk[i] != want {
			t.Fatalf("walk[%d] = %s, want %s (walk=%v)", i, walk[i], want, walk)
		}
	}
}

func TestMIBWalkSubtree(t *testing.T) {
	d := NewDevice(DeviceConfig{Name: "r1", Interfaces: 2})
	var got []string
	err := d.Agent.MIB().Walk(OIDIfTable, func(oid OID, v Value) error {
		got = append(got, oid.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 6 columns × 2 interfaces.
	if len(got) != 12 {
		t.Fatalf("ifTable walk = %d entries: %v", len(got), got)
	}
	for _, s := range got {
		if !strings.HasPrefix(s, OIDIfTable.String()) {
			t.Fatalf("walk escaped subtree: %s", s)
		}
	}
}

func TestAgentServeOps(t *testing.T) {
	d := NewDevice(DeviceConfig{Name: "r1"})
	a := d.Agent

	// Get.
	resp := a.Serve(Request{Community: "public", Op: OpGet, Bindings: []VarBind{{OID: OIDSysName}}})
	if resp.Err != "" || resp.Bindings[0].Value.Str != "r1" {
		t.Fatalf("get: %+v", resp)
	}
	// GetNext from the system subtree start.
	resp = a.Serve(Request{Community: "public", Op: OpGetNext, Bindings: []VarBind{{OID: OIDSystem}}})
	if resp.Err != "" || !resp.Bindings[0].OID.Equal(OIDSysDescr) {
		t.Fatalf("get-next: %+v", resp)
	}
	// Set a writable object.
	resp = a.Serve(Request{Community: "public", Op: OpSet, Bindings: []VarBind{{OID: OIDSysName, Value: StringValue("renamed")}}})
	if resp.Err != "" {
		t.Fatalf("set: %+v", resp)
	}
	if v, _ := a.Get("public", OIDSysName); v.Str != "renamed" {
		t.Fatal("set not applied")
	}
	// Set a read-only object fails.
	resp = a.Serve(Request{Community: "public", Op: OpSet, Bindings: []VarBind{{OID: OIDSysDescr, Value: StringValue("x")}}})
	if !strings.Contains(resp.Err, "read-only") {
		t.Fatalf("read-only set: %+v", resp)
	}
	// Unknown OID.
	resp = a.Serve(Request{Community: "public", Op: OpGet, Bindings: []VarBind{{OID: MustParseOID("9.9.9")}}})
	if !strings.Contains(resp.Err, "noSuchName") {
		t.Fatalf("noSuchName: %+v", resp)
	}
}

func TestAgentCommunityCheck(t *testing.T) {
	d := NewDevice(DeviceConfig{Name: "r1", Community: "secret"})
	resp := d.Agent.Serve(Request{Community: "public", Op: OpGet, Bindings: []VarBind{{OID: OIDSysName}}})
	if !strings.Contains(resp.Err, "community") {
		t.Fatalf("community check: %+v", resp)
	}
	if _, err := d.Agent.WalkSubtree("public", OIDSystem); !errors.Is(err, ErrBadCommunity) {
		t.Fatalf("walk community: %v", err)
	}
	if _, err := d.Agent.Get("secret", OIDSysName); err != nil {
		t.Fatalf("correct community: %v", err)
	}
	if _, err := d.Agent.Get("public", OIDSysName); !errors.Is(err, ErrBadCommunity) {
		t.Fatalf("get community: %v", err)
	}
	if _, err := d.Agent.Get("secret", MustParseOID("9.9")); !errors.Is(err, ErrNoSuchName) || err.Error() != "snmp: noSuchName: 9.9" {
		t.Fatalf("get unknown: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { d.Agent.Get("secret", OIDSysName) }); n != 0 {
		t.Errorf("a local get allocates %.0f times, want 0", n)
	}
}

func TestDeviceTickEvolvesCounters(t *testing.T) {
	d := NewDevice(DeviceConfig{Name: "r1", Interfaces: 2, Seed: 42})
	before, _ := d.Agent.Get("public", OIDIfTable.Append(colIfInOctets, 1))
	up0, _ := d.Agent.Get("public", OIDSysUpTime)
	for i := 0; i < 10; i++ {
		d.Tick(time.Second)
	}
	after, _ := d.Agent.Get("public", OIDIfTable.Append(colIfInOctets, 1))
	up1, _ := d.Agent.Get("public", OIDSysUpTime)
	if after.Int <= before.Int {
		t.Fatal("ifInOctets must grow under workload")
	}
	if up1.Int != up0.Int+1000 { // 10 s = 1000 ticks
		t.Fatalf("uptime ticks: %d -> %d", up0.Int, up1.Int)
	}
}

func TestDeviceDeterministicWorkload(t *testing.T) {
	run := func() int64 {
		d := NewDevice(DeviceConfig{Name: "r1", Seed: 7})
		for i := 0; i < 20; i++ {
			d.Tick(time.Second)
		}
		v, _ := d.Agent.Get("public", OIDIfTable.Append(colIfInOctets, 1))
		return v.Int
	}
	if run() != run() {
		t.Fatal("same seed must reproduce the workload")
	}
}

func TestExtraVars(t *testing.T) {
	d := NewDevice(DeviceConfig{Name: "r1", ExtraVars: 16})
	for i := 0; i < 16; i++ {
		v, err := d.Agent.Get("public", ExtraVarOID(i))
		if err != nil || v.Int != int64(i) {
			t.Fatalf("extra var %d: %v %v", i, v, err)
		}
	}
	if _, err := d.Agent.Get("public", ExtraVarOID(16)); err == nil {
		t.Fatal("var 16 must not exist")
	}
}

func TestValueRenderAndTypes(t *testing.T) {
	for _, v := range []Value{StringValue("x"), IntValue(7), CounterValue(-12), GaugeValue(1e9)} {
		if got := string(v.AppendRender([]byte("="))); got != "="+v.Render() {
			t.Fatalf("AppendRender(%v) = %q, Render %q", v, got, v.Render())
		}
	}
	if StringValue("x").Render() != "x" || IntValue(7).Render() != "7" {
		t.Fatal("render")
	}
	if CounterValue(1).Type != TypeCounter || GaugeValue(1).Type != TypeGauge || TimeTicksValue(1).Type != TypeTimeTicks {
		t.Fatal("constructors")
	}
	names := []string{TypeString.String(), TypeInteger.String(), TypeCounter.String(), TypeGauge.String(), TypeTimeTicks.String()}
	for _, n := range names {
		if n == "" || strings.HasPrefix(n, "ValueType") {
			t.Fatalf("type name %q", n)
		}
	}
	if ValueType(9).String() != "ValueType(9)" || PDUOp(9).String() != "PDUOp(9)" {
		t.Fatal("unknown formatting")
	}
	if OpGet.String() != "get" || OpGetNext.String() != "get-next" || OpSet.String() != "set" {
		t.Fatal("op names")
	}
}

func TestPropMIBNextTotalOrder(t *testing.T) {
	// From any starting point, chained Next visits strictly increasing OIDs
	// and terminates.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMIB()
		n := 1 + r.Intn(30)
		for i := 0; i < n; i++ {
			arcs := make(OID, 1+r.Intn(6))
			for j := range arcs {
				arcs[j] = r.Intn(5)
			}
			m.Define(arcs, IntValue(int64(i)), true)
		}
		cur := OID{0}
		prev := OID(nil)
		steps := 0
		for {
			next, _, err := m.Next(cur)
			if errors.Is(err, ErrEndOfMIB) {
				return steps <= m.Len()
			}
			if err != nil {
				return false
			}
			if prev != nil && next.Compare(prev) <= 0 {
				return false
			}
			prev, cur = next, next
			steps++
			if steps > m.Len()+1 {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrapKinds(t *testing.T) {
	if !TrapLinkDown.Significant() || !TrapLinkUp.Significant() {
		t.Fatal("link events are significant")
	}
	if TrapThreshold.Significant() || TrapHeartbeat.Significant() {
		t.Fatal("noise must not be significant")
	}
	names := map[TrapKind]string{
		TrapLinkDown: "linkDown", TrapLinkUp: "linkUp",
		TrapThreshold: "threshold", TrapHeartbeat: "heartbeat",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if TrapKind(9).String() != "TrapKind(9)" {
		t.Fatal("unknown kind")
	}
}

func TestTickEventsEmitsAndDrains(t *testing.T) {
	d := NewDevice(DeviceConfig{Name: "r1", Seed: 5})
	for i := 0; i < 20; i++ {
		d.TickEvents(time.Second)
	}
	if d.TrapRound() != 20 {
		t.Fatalf("round = %d", d.TrapRound())
	}
	traps := d.TakeTraps()
	if len(traps) < 20 {
		t.Fatalf("expected at least one heartbeat per round, got %d traps", len(traps))
	}
	total, signif := d.TrapTotals()
	if total != len(traps) {
		t.Fatalf("totals %d != drained %d", total, len(traps))
	}
	gotSignif := 0
	seqs := map[int]bool{}
	for _, tr := range traps {
		if tr.Device != "r1" {
			t.Fatalf("trap device = %q", tr.Device)
		}
		if tr.Kind.Significant() {
			gotSignif++
		}
		if seqs[tr.Seq] {
			t.Fatalf("duplicate seq %d", tr.Seq)
		}
		seqs[tr.Seq] = true
	}
	if gotSignif != signif {
		t.Fatalf("significant count %d != %d", gotSignif, signif)
	}
	// Drained: a second take is empty.
	if len(d.TakeTraps()) != 0 {
		t.Fatal("TakeTraps must drain")
	}
	if tr := traps[0]; tr.String() == "" {
		t.Fatal("trap String")
	}
}

func TestTickEventsDeterministic(t *testing.T) {
	run := func() (int, int) {
		d := NewDevice(DeviceConfig{Name: "r1", Seed: 11})
		for i := 0; i < 30; i++ {
			d.TickEvents(time.Second)
		}
		return d.TrapTotals()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic workload: (%d,%d) vs (%d,%d)", t1, s1, t2, s2)
	}
	if s1 == 0 || s1 >= t1 {
		t.Fatalf("workload mix implausible: %d significant of %d", s1, t1)
	}
}
