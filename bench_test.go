package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cnmp"
	"repro/internal/itinerary"
	"repro/internal/man"
	"repro/internal/netsim"
	"repro/internal/snmp"
	"repro/internal/wire"
)

// Micro-benchmarks on the core data structures and the unit costs behind
// the §6 comparison. The experiments of EXPERIMENTS.md are tests in the
// packages that own their claims; each section there names its test.

// BenchmarkItineraryStep measures one Next() decision on a 32-stop tour.
func BenchmarkItineraryStep(b *testing.B) {
	servers := make([]string, 32)
	for i := range servers {
		servers[i] = fmt.Sprintf("s%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := itinerary.MustNew(itinerary.SeqVisits(servers, ""))
		for {
			d, err := it.Next(nil)
			if err != nil {
				b.Fatal(err)
			}
			if d.Kind == itinerary.DecisionDone {
				break
			}
		}
	}
}

// BenchmarkFrameCodec measures wire frame encode+decode of a 1 KiB payload.
func BenchmarkFrameCodec(b *testing.B) {
	f := wire.Frame{Kind: wire.KindPost, From: "a", To: "b", Payload: make([]byte, 1024)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := wire.Encode(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMIBGet measures one SNMP get against a 100-object MIB.
func BenchmarkMIBGet(b *testing.B) {
	dev := snmp.NewDevice(snmp.DeviceConfig{Name: "r1", ExtraVars: 80})
	oid := snmp.ExtraVarOID(40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Agent.Get("public", oid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimCall measures one request/reply through the simulated
// fabric (no modeled delay sleeping).
func BenchmarkNetsimCall(b *testing.B) {
	net := netsim.New(netsim.Config{})
	net.Attach("srv", func(from string, f wire.Frame) (wire.Frame, error) {
		return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From, Payload: []byte{1}}, nil
	})
	client, _ := net.Attach("cli", func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, nil
	})
	req := wire.Frame{Kind: wire.KindPost, Payload: []byte{7}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, "srv", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSNMPOverFabric measures one CNMP round trip (request + reply
// over the simulated network), the unit cost behind the E3 CNMP rows.
func BenchmarkSNMPOverFabric(b *testing.B) {
	net := netsim.New(netsim.Config{})
	dev := snmp.NewDevice(snmp.DeviceConfig{Name: "r1"})
	if _, err := cnmp.AttachResponder(net, "r1:161", dev); err != nil {
		b.Fatal(err)
	}
	st, err := cnmp.NewStation(net, "station")
	if err != nil {
		b.Fatal(err)
	}
	oids := []snmp.OID{snmp.OIDSysName}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Get(ctx, "r1:161", oids, cnmp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNMNapletVisit measures one complete NMNaplet device visit
// (launch → migrate → service channel → report), the unit cost behind the
// E3 MAN rows.
func BenchmarkNMNapletVisit(b *testing.B) {
	tb, err := man.NewTestbed(man.TestbedConfig{Devices: 1, Seed: 1, BundleSize: 8 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	oids := tb.QueryOIDs(4)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tb.Station.CollectSequential(ctx, tb.DeviceNames, oids); err != nil {
			b.Fatal(err)
		}
	}
}
