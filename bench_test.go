package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cnmp"
	"repro/internal/experiments"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/man"
	"repro/internal/navigator"
	"repro/internal/netsim"
	"repro/internal/snmp"
	"repro/internal/wire"
)

// The benchmarks below regenerate each experiment's headline measurement
// (see EXPERIMENTS.md). cmd/manbench prints the corresponding full tables.

// BenchmarkE1CloneID measures the identifier codec (E1 / Figure 1): clone
// derivation plus textual round trip.
func BenchmarkE1CloneID(b *testing.B) {
	root := id.MustNew("czxu", "ece.eng.wayne.edu", time.Unix(989688440, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := root.Clone(i%9 + 1)
		if err != nil {
			b.Fatal(err)
		}
		g, _ := c.Clone(1)
		if _, err := id.Parse(g.String()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2ServerRoundTrip measures one complete agent tour across four
// servers: the full Figure-2 component path per hop (E2).
func BenchmarkE2ServerRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRoundTrip(4, netsim.Loopback, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Tour == "" {
			b.Fatal("empty tour")
		}
	}
}

// BenchmarkE3ManVsCnmp measures one management sweep (8 devices × 16 vars)
// per strategy (E3 / Figure 3): the headline MAN-vs-CNMP comparison.
func BenchmarkE3ManVsCnmp(b *testing.B) {
	for _, strat := range []experiments.Strategy{
		experiments.StratCNMPMicro,
		experiments.StratCNMPBatch,
		experiments.StratMANSeq,
		experiments.StratMANBcast,
	} {
		b.Run(string(strat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunE3Cell(strat, 8, 16, netsim.LAN,
					experiments.E3BundleSize, 0, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cell.StationBytes), "stationB")
				b.ReportMetric(float64(cell.TotalBytes), "totalB")
			}
		})
	}
}

// BenchmarkE4Itinerary measures completion time per itinerary shape over
// four servers with 5 ms of work per visit (E4 / §3).
func BenchmarkE4Itinerary(b *testing.B) {
	for _, shape := range []experiments.E4Shape{
		experiments.ShapeSeq, experiments.ShapePar, experiments.ShapeParOfSeq,
	} {
		b.Run(string(shape), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunE4(shape, 4, 5, netsim.LAN, 1, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Locate measures the ping-pong tour per location mode (E5 /
// §4.1).
func BenchmarkE5Locate(b *testing.B) {
	for _, mode := range []locator.Mode{locator.ModeDirectory, locator.ModeHome, locator.ModeForward} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunE5(mode, 4, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Frames), "frames")
			}
		})
	}
}

// BenchmarkE6PostOffice measures exactly-once delivery of 16 messages to a
// naplet migrating across 4 servers (E6 / §4.2).
func BenchmarkE6PostOffice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE6(4, 16, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Received != res.Sent {
			b.Fatalf("delivery broken: %+v", res)
		}
	}
}

// BenchmarkE7Migration measures a single naplet dispatch (E7 / §2.1),
// cold and warm code cache.
func BenchmarkE7Migration(b *testing.B) {
	for _, mode := range []navigator.CodeDelivery{navigator.Push, navigator.Pull} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			rig, err := experiments.NewE7Rig(32<<10, mode, netsim.Loopback, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rig.Dispatch(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8ServiceChannel measures one service-channel round trip (E8 /
// §5.3).
func BenchmarkE8ServiceChannel(b *testing.B) {
	res, err := experiments.RunE8(b.N, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.ChannelRTTPerSec, "rtt/s")
}

// BenchmarkE9Monitor measures priority-scheduled admission of 32 naplets
// onto 2 slots plus budget enforcement (E9 / §5.2).
func BenchmarkE9Monitor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE9(16, 2, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Killed != 4 {
			b.Fatalf("budget kills = %d", res.Killed)
		}
	}
}

// ---- micro-benchmarks on the core data structures ----

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

// BenchmarkE10EventMonitoring measures one event-monitoring run (4 devices
// × 20 rounds) per strategy (E10).
func BenchmarkE10EventMonitoring(b *testing.B) {
	for _, strat := range []experiments.Strategy{experiments.StratCNMPTraps, experiments.StratMANFilter} {
		b.Run(string(strat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunE10(strat, 4, 20, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cell.StationFrames), "stationFrames")
			}
		})
	}
}
