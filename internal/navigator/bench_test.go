package navigator

import (
	"context"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/state"
	"repro/internal/transport"
)

// midTourRecord is a representative migrating naplet: a cloned ID with
// heritage, signed-credential-shaped bytes, a few state keys, a partially
// consumed itinerary, a populated address book and a multi-hop nav log. Its
// contents are fixed, so TestEncodeRecordAllocations' ceilings and
// BenchmarkHop's allocs/op read the same on every run.
func midTourRecord(tb testing.TB) *naplet.Record {
	tb.Helper()
	nid, err := id.MustNew("czxu", "sa", codecTime).Clone(2)
	if err != nil {
		tb.Fatal(err)
	}
	st := state.New()
	if err := st.SetPublic("best-price", 42); err != nil {
		tb.Fatal(err)
	}
	if err := st.SetPrivate("tour", []string{"sa", "sb", "sc"}); err != nil {
		tb.Fatal(err)
	}
	book := naplet.NewAddressBook()
	book.Add(id.MustNew("czxu", "sa", codecTime), "naplet://sa:4100")
	book.Add(id.MustNew("amgr", "sb", codecTime), "naplet://sb:4100")
	log := naplet.NewNavigationLog()
	for i, s := range []string{"sa:1", "sb:2", "sc:3"} {
		at := codecTime.Add(time.Duration(i) * time.Minute)
		log.RecordArrival(s, at)
		if i < 2 {
			log.RecordDeparture(s, at.Add(30*time.Second))
		}
	}
	return &naplet.Record{
		ID: nid,
		Credential: cred.Credential{
			NapletID:  nid,
			Codebase:  "test.Agent",
			Roles:     []string{"guest"},
			IssuedAt:  codecTime,
			Signature: make([]byte, 32),
		},
		Codebase: "test.Agent",
		Home:     "sa:1",
		State:    st,
		Itin:     itinerary.MustNew(itinerary.SeqVisits([]string{"sd", "se"}, "collect")),
		Book:     book,
		Log:      log,
		Pending:  itinerary.Visit{Server: "sd", Action: "collect"},
		Failover: naplet.FailoverSkip,
		CloneSeq: 2,
	}
}

// BenchmarkHop ping-pongs one naplet between two bare navigators (no dock
// around them); each iteration is a complete warm migration: one record
// transfer and its ack, with every landing check run on the transfer. The
// landing request/grant and the code move only on the two warm-up hops (each
// origin then holds proof of its peer, like a real tour's second lap).
// netsim-wan runs in pure-accounting mode (TimeScale 0: modeled delay is
// tallied, not slept), so its ns/op is the per-hop processing cost under WAN
// framing rather than 20 ms of sleep.
func BenchmarkHop(b *testing.B) {
	for _, tc := range []struct {
		name   string
		fabric func() transport.Fabric
		addrs  [2]string
	}{
		{"tcp", func() transport.Fabric { return transport.NewTCPFabric() }, [2]string{"127.0.0.1:0", "127.0.0.1:0"}},
		{"netsim-wan", func() transport.Fabric { return netsim.New(netsim.Config{DefaultLink: netsim.WAN}) }, [2]string{"sa", "sb"}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fab, reg := tc.fabric(), newRegistry(b)
			var nodes [2]*node
			for i, addr := range tc.addrs {
				nodes[i] = attachOn(b, fab, addr, reg, nil, Config{CodeDelivery: Push})
				nodes[i].quiet = true
			}
			rec := midTourRecord(b)
			rec.Home = nodes[0].nav.server
			ctx := context.Background()
			cur := 0
			hop := func() {
				from, to := nodes[cur], nodes[1-cur]
				from.mgr.RecordArrival(rec.ID, rec.Codebase, "bench", time.Now())
				if _, err := dispatchOnce(ctx, from.nav, rec, to.nav.server); err != nil {
					b.Fatal(err)
				}
				rec = <-to.landed
				cur = 1 - cur
			}
			// Warm-up: load the code cache at both ends and prove each end
			// to the other, so the measured loop is steady state.
			hop()
			hop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hop()
				// Keep the record a fixed size: without this the nav log
				// grows an entry per hop and the measurement drifts upward
				// with b.N.
				rec.Log = naplet.NewNavigationLog()
				rec.Log.RecordArrival(nodes[cur].nav.server, time.Now())
			}
		})
	}
}
