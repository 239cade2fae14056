package cnmp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/snmp"
	"repro/internal/wire"
)

func rig(t *testing.T, devices int) (*netsim.Network, *Station, []string) {
	t.Helper()
	net := netsim.New(netsim.Config{})
	names := make([]string, devices)
	for i := 0; i < devices; i++ {
		name := string(rune('a'+i)) + ":161"
		dev := snmp.NewDevice(snmp.DeviceConfig{Name: name, Seed: int64(i), ExtraVars: 8})
		if _, err := AttachResponder(net, name, dev); err != nil {
			t.Fatal(err)
		}
		names[i] = name
	}
	st, err := NewStation(net, "station")
	if err != nil {
		t.Fatal(err)
	}
	return net, st, names
}

func TestGetMicroManagement(t *testing.T) {
	net, st, names := rig(t, 1)
	oids := []snmp.OID{snmp.OIDSysDescr, snmp.OIDSysName, snmp.OIDIfNumber}
	vals, stats, err := st.Get(context.Background(), names[0], oids, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Micro-management: one round trip per variable.
	if stats.Requests != 3 {
		t.Fatalf("requests = %d, want 3", stats.Requests)
	}
	if vals[snmp.OIDSysName.String()] != names[0] {
		t.Fatalf("vals = %v", vals)
	}
	// 3 request frames + 3 replies crossed the network.
	if got := net.HostStats("station").FramesSent; got != 3 {
		t.Fatalf("station frames sent = %d", got)
	}
}

func TestGetBatched(t *testing.T) {
	net, st, names := rig(t, 1)
	oids := []snmp.OID{snmp.OIDSysDescr, snmp.OIDSysName, snmp.OIDIfNumber}
	vals, stats, err := st.Get(context.Background(), names[0], oids, Options{Batch: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 1 {
		t.Fatalf("batched requests = %d", stats.Requests)
	}
	if len(vals) != 3 {
		t.Fatalf("vals = %v", vals)
	}
	if got := net.HostStats("station").FramesSent; got != 1 {
		t.Fatalf("station frames sent = %d", got)
	}
}

func TestCollectSequentialAndConcurrent(t *testing.T) {
	_, st, names := rig(t, 4)
	oids := []snmp.OID{snmp.OIDSysName, snmp.OIDSysUpTime}

	rep, stats, err := st.Collect(context.Background(), names, oids, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 4 || stats.Requests != 8 {
		t.Fatalf("sequential: %d devices, %d requests", len(rep), stats.Requests)
	}
	rep2, stats2, err := st.Collect(context.Background(), names, oids, Options{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2) != 4 || stats2.Requests != 8 {
		t.Fatalf("concurrent: %d devices, %d requests", len(rep2), stats2.Requests)
	}
	for _, d := range names {
		if rep[d][snmp.OIDSysName.String()] != rep2[d][snmp.OIDSysName.String()] {
			t.Fatal("sequential and concurrent reports differ")
		}
	}
}

func TestCollectErrorPropagates(t *testing.T) {
	_, st, names := rig(t, 2)
	bad := []snmp.OID{snmp.MustParseOID("9.9.9.9")}
	_, stats, err := st.Collect(context.Background(), names, bad, Options{})
	if err == nil || !strings.Contains(err.Error(), "noSuchName") {
		t.Fatalf("want noSuchName, got %v", err)
	}
	if stats.Errors == 0 {
		t.Fatal("error not counted")
	}
	// Concurrent path surfaces the error too.
	_, _, err = st.Collect(context.Background(), names, bad, Options{Concurrency: 2})
	if err == nil {
		t.Fatal("concurrent error lost")
	}
}

func TestBadCommunity(t *testing.T) {
	_, st, names := rig(t, 1)
	_, _, err := st.Get(context.Background(), names[0], []snmp.OID{snmp.OIDSysName}, Options{Community: "wrong"})
	if err == nil || !strings.Contains(err.Error(), "community") {
		t.Fatalf("community: %v", err)
	}
}

func TestSetOverWire(t *testing.T) {
	net := netsim.New(netsim.Config{})
	dev := snmp.NewDevice(snmp.DeviceConfig{Name: "r1"})
	AttachResponder(net, "r1:161", dev)
	st, _ := NewStation(net, "station")

	body := RequestBody{Community: "public", Op: snmp.OpSet,
		OIDs: []string{snmp.OIDSysName.String()}, SetValues: []string{"renamed"}}
	f, _ := newFrame(t, body)
	reply, err := st.Node().Call(context.Background(), "r1:161", f)
	if err != nil {
		t.Fatal(err)
	}
	var rb ReplyBody
	if err := rb.Decode(reply.Payload); err != nil || rb.Err != "" {
		t.Fatalf("set reply: %+v %v", rb, err)
	}
	if v, _ := dev.Agent.Get("public", snmp.OIDSysName); v.Str != "renamed" {
		t.Fatal("set not applied")
	}
}

func TestResponderServedCounterAndUnknownKind(t *testing.T) {
	net := netsim.New(netsim.Config{})
	dev := snmp.NewDevice(snmp.DeviceConfig{Name: "r1"})
	AttachResponder(net, "r1:161", dev)
	st, _ := NewStation(net, "station")
	vals, stats, err := st.Get(context.Background(), "r1:161", []snmp.OID{snmp.OIDSysName}, Options{})
	if err != nil || vals[snmp.OIDSysName.String()] != "r1" || stats.Requests != 1 {
		t.Fatalf("served: vals=%v stats=%+v err=%v", vals, stats, err)
	}
	// A non-SNMP frame is rejected.
	f, _ := newFrame(t, RequestBody{})
	f.Kind = "bogus"
	if _, err := st.Node().Call(context.Background(), "r1:161", f); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// newFrame builds a request frame for tests.
func newFrame(t *testing.T, body RequestBody) (wire.Frame, error) {
	t.Helper()
	return wire.BinaryFrame(wire.KindSNMPRequest, "", "", &body), nil
}
