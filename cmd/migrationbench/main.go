// Command migrationbench benchmarks the migration hot path: record and
// mail serialization, and full warm naplet hops — one transfer and its ack
// to a proven dock — over real TCP and over a simulated WAN. Results land
// in BENCH_migration.json via `make bench-migration`.
//
// With -check <file>, the deterministic codec benchmarks are re-run and
// compared against the committed baseline: a >10% regression in allocs/op
// fails the run (allocation counts are deterministic, so the check is
// noise-free; ns/op is reported but not gated).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/benchcheck"
	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/navigator"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	count := flag.Int("count", 5, "samples per benchmark")
	out := flag.String("o", "BENCH_migration.json", "output JSON path")
	check := flag.String("check", "", "baseline JSON to regression-check against (codec benches only)")
	flag.Parse()

	benches := []benchcheck.Bench{
		{Name: "codec/record-encode-binary", Fn: benchRecordEncodeBinary, Deterministic: true},
		{Name: "codec/record-decode-binary", Fn: benchRecordDecodeBinary, Deterministic: true},
		{Name: "codec/mail-roundtrip-binary", Fn: benchMailRoundTripBinary, Deterministic: true},
		{Name: "hop/netsim-wan", Fn: benchHopNetsimWAN},
		{Name: "hop/tcp", Fn: benchHopTCP},
	}
	if *check != "" {
		if err := benchcheck.Check("migrationbench", *check, benches, *count); err != nil {
			fatal(err)
		}
		fmt.Println("migrationbench: regression check passed")
		return
	}

	rep := benchcheck.NewReport(*count)
	for _, bm := range benches {
		res := benchcheck.Run(bm, *count)
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-28s %12.1f ns/op %8d B/op %6d allocs/op  (median of %d)\n",
			bm.Name, res.Median.NsPerOp, res.Median.BytesPerOp, res.Median.AllocsPerOp, *count)
	}

	if err := benchcheck.WriteFile(*out, &rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "migrationbench:", err)
	os.Exit(1)
}

// benchTime is fixed so record contents are identical across runs.
var benchTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// benchRecord builds a representative migrating naplet: a toured ID with
// heritage, signed-credential-shaped bytes, a few state keys, a partially
// consumed itinerary, a populated address book, and a multi-hop nav log.
func benchRecord() *naplet.Record {
	nid, err := id.MustNew("czxu", "sa", benchTime).Clone(2)
	if err != nil {
		fatal(err)
	}
	st := state.New()
	if err := st.SetPublic("best-price", 42); err != nil {
		fatal(err)
	}
	if err := st.SetPrivate("tour", []string{"sa", "sb", "sc"}); err != nil {
		fatal(err)
	}
	book := naplet.NewAddressBook()
	book.Add(id.MustNew("czxu", "sa", benchTime), "naplet://sa:4100")
	book.Add(id.MustNew("amgr", "sb", benchTime), "naplet://sb:4100")
	log := naplet.NewNavigationLog()
	for i, s := range []string{"sa:1", "sb:2", "sc:3"} {
		at := benchTime.Add(time.Duration(i) * time.Minute)
		log.RecordArrival(s, at)
		if i < 2 {
			log.RecordDeparture(s, at.Add(30*time.Second))
		}
	}
	return &naplet.Record{
		ID: nid,
		Credential: cred.Credential{
			NapletID:  nid,
			Codebase:  "bench.Agent",
			Roles:     []string{"guest"},
			IssuedAt:  benchTime,
			Signature: make([]byte, 32),
		},
		Codebase: "bench.Agent",
		Home:     "sa:1",
		State:    st,
		Itin: &itinerary.Itinerary{
			Remaining: itinerary.SeqVisits([]string{"sd", "se"}, "collect"),
		},
		Book:     book,
		Log:      log,
		Pending:  itinerary.Visit{Server: "sd", Action: "collect"},
		Failover: naplet.FailoverSkip,
		CloneSeq: 2,
	}
}

func benchMail() naplet.Message {
	return naplet.Message{
		ID:      "sa/m-17",
		From:    id.MustNew("czxu", "sa", benchTime),
		To:      id.MustNew("amgr", "sb", benchTime),
		Class:   naplet.UserMessage,
		Subject: "price-quote",
		Body:    make([]byte, 256),
		SentAt:  benchTime,
	}
}

func benchRecordEncodeBinary(b *testing.B) {
	rec := benchRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := navigator.EncodeRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRecordDecodeBinary(b *testing.B) {
	data, err := navigator.EncodeRecord(benchRecord())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := navigator.DecodeRecord(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMailRoundTripBinary(b *testing.B) {
	msg := benchMail()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := wire.EncodeBody(&msg)
		if _, _, err := naplet.DecodeMessageBinary(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Full hops ----

type hopNode struct {
	nav    *navigator.Navigator
	mgr    *manager.Manager
	landed chan *naplet.Record
}

func attachHopNode(fab transport.Fabric, addr string, reg *registry.Registry) (*hopNode, string, error) {
	n := &hopNode{
		landed: make(chan *naplet.Record, 1),
	}
	tnode, err := fab.Attach(addr, func(from string, f wire.Frame) (wire.Frame, error) {
		switch f.Kind {
		case wire.KindLandingRequest:
			return n.nav.HandleLandingRequest(from, f)
		case wire.KindNapletTransfer:
			return n.nav.HandleTransfer(from, f)
		case wire.KindCodeFetch:
			return n.nav.HandleCodeFetch(from, f)
		case wire.KindHomeEvent:
			return n.nav.HandleHomeEvent(from, f)
		default:
			return wire.Frame{}, fmt.Errorf("unexpected kind %s", f.Kind)
		}
	})
	if err != nil {
		return nil, "", err
	}
	name := tnode.Addr()
	n.mgr = manager.New(name, func() time.Time { return time.Now() })
	n.nav = navigator.New(navigator.Config{CodeDelivery: navigator.Push},
		name, tnode, nil, n.mgr, reg, registry.NewCache(), nil)
	n.nav.SetLandFunc(func(rec *naplet.Record, source string) { n.landed <- rec })
	return n, name, nil
}

type benchAgent struct{}

func (benchAgent) OnStart(ctx *naplet.Context) error { return nil }

// benchHop ping-pongs one naplet between two servers; each iteration is a
// complete warm migration: one record transfer and its ack, with every
// landing check run on the transfer. The landing request/grant and the code
// move only on the two warm-up hops (each origin then holds proof of its
// peer, like a real tour's second lap).
func benchHop(b *testing.B, fab transport.Fabric, addrA, addrB string) {
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name:       "bench.Agent",
		New:        func() naplet.Behavior { return benchAgent{} },
		BundleSize: 32 << 10,
	})
	na, nameA, err := attachHopNode(fab, addrA, reg)
	if err != nil {
		b.Fatal(err)
	}
	nb, nameB, err := attachHopNode(fab, addrB, reg)
	if err != nil {
		b.Fatal(err)
	}
	rec := benchRecord()
	rec.Home = nameA
	ctx := context.Background()

	hop := func(from, to *hopNode, dest string, r *naplet.Record) *naplet.Record {
		from.mgr.RecordArrival(r.ID, r.Codebase, "bench", time.Now())
		if _, err := from.nav.Dispatch(ctx, r, dest); err != nil {
			b.Fatal(err)
		}
		return <-to.landed
	}

	// Warm-up hops: load the code cache at both ends and prove each end to
	// the other, so the measured loop is steady state, the way a mid-tour
	// hop is.
	rec = hop(na, nb, nameB, rec)
	rec = hop(nb, na, nameA, rec)

	nodes := [2]*hopNode{na, nb}
	names := [2]string{nameA, nameB}
	cur := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := 1 - cur
		rec = hop(nodes[cur], nodes[next], names[next], rec)
		cur = next
		// Keep the record a fixed size: without this the nav log grows an
		// entry per hop and the measurement drifts upward with b.N.
		rec.Log = naplet.NewNavigationLog()
		rec.Log.RecordArrival(names[cur], time.Now())
	}
}

func benchHopTCP(b *testing.B) {
	benchHop(b, transport.NewTCPFabric(), "127.0.0.1:0", "127.0.0.1:0")
}

// benchHopNetsimWAN hops over the simulated WAN in pure-accounting mode
// (TimeScale 0: modeled delay is tallied, not slept), so ns/op is the
// per-hop processing cost under WAN framing rather than 20ms of sleep.
func benchHopNetsimWAN(b *testing.B) {
	net := netsim.New(netsim.Config{DefaultLink: netsim.WAN})
	benchHop(b, net, "sa", "sb")
}
