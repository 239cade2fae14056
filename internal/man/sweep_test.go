package man

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/allocledger"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/snmp"
	"repro/internal/state"
	"repro/internal/wire"
)

// TestWarmSweepAllocBudget pins what a warm §6 sweep allocates per device
// visit, in the benchmark's sweep-netsim shape: CollectSequential over 16
// of 32 devices, 16 variables each, on netsim at TimeScale 0, the station's
// decode of the report included. It reads 57.5 per stop (72.5 while a
// service channel was two pipes with a condition variable each, three more
// objects and a closure, every open built its permission's name and a run
// loop, and the station copied each value out of the report; 78.7 while
// the naplet built a Go map of each reply only for the state to sort and
// encode it, and its report listed the state's keys by decoding the whole
// container; 130.5 while the naplet decoded its parameter list at every
// stop and every device's status map at the last, only to encode them
// again; 256.4 while NetManagement built a PDU, split the query and
// formatted a string per variable, the naplet flattened its report into
// "dev|oid" keys, and the station decoded that flat map, split it and
// copied it once more); the budget is that plus 15 %.
//
// The same run is split by the package that allocates, by allocledger as
// server.TestWarmTourAllocLedger splits a warm hop: a heap profile at
// MemProfileRate 1 charges each allocation to the first repro/internal
// frame on its stack ("test" for the test's own), and "tiny" counts the
// allocations the runtime packs into shared 16-byte blocks, which the
// profile cannot see. Each line is bounded at its measured value plus 15 %,
// so a failure names the package that grew.
func TestWarmSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		budget  = 66.1 // 57.5 measured, plus 15 %
		waves   = 60
		stops   = 16
		slack   = 1.15
		unnamed = 0.5
	)
	measured := map[string]float64{
		"man": 10.4, "wire": 8.2, "navigator": 7.0, "naplet": 5.8,
		"tiny": 5.2, "itinerary": 4.4, "state": 3.3, "monitor": 3.2,
		"snmp": 2.2, "resource": 2.1, "manager": 1.7, "server": 1.5,
		"id": 1.2, "messenger": 1.1,
	}
	tb, err := NewTestbed(TestbedConfig{Devices: 2 * stops, Interfaces: 4, ExtraVars: stops - 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	oids := tb.QueryOIDs(stops)
	// Routes alternate between the two halves of the pool, each a seeded
	// permutation of its half, as the benchmark's do.
	rng := rand.New(rand.NewSource(1))
	routes := make([][]string, 8)
	for i := range routes {
		for _, j := range rng.Perm(stops) {
			routes[i] = append(routes[i], tb.DeviceNames[i%2*stops+j])
		}
	}
	sweep := func(i int) {
		t.Helper()
		report, _, err := tb.Station.CollectSequential(context.Background(), routes[i%len(routes)], oids)
		if err != nil || len(report) != stops {
			t.Fatalf("sweep %d: %d devices reported, %v", i, len(report), err)
		}
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for i := 0; i < len(routes); i++ { // first contact and cold code
		sweep(i)
	}
	reading := allocledger.Start()
	for i := 0; i < waves; i++ {
		sweep(i)
	}
	lines, mallocs := reading.Lines()

	visits := float64(waves * stops)
	perStop := float64(mallocs) / visits
	names := make([]string, 0, len(lines))
	var accounted float64
	for name, n := range lines {
		names = append(names, name)
		accounted += float64(n) / visits
	}
	sort.Slice(names, func(i, j int) bool { return lines[names[i]] > lines[names[j]] })
	var table strings.Builder
	for _, name := range names {
		fmt.Fprintf(&table, "\n  %-10s %6.2f", name, float64(lines[name])/visits)
	}
	t.Logf("%.1f allocs per stop (budget %.1f); by package:%s\n  %.2f accounted for", perStop, budget, table.String(), accounted)

	if perStop > budget {
		t.Errorf("a warm sweep allocates %.1f times per stop, budget %.1f", perStop, budget)
	}
	for _, name := range names {
		got, bound := float64(lines[name])/visits, unnamed
		if m, ok := measured[name]; ok {
			bound = m * slack
		}
		if got > bound {
			t.Errorf("%s allocates %.2f times per stop, bound %.2f", name, got, bound)
		}
	}
}

// TestSweepBytesUnchanged holds NetManagement's reply lines and the
// naplet's encoded report for a seeded testbed to digests of the bytes the
// code produced before either was rewritten to append in place: the
// reply's text, error texts included, and the report's key order and front
// coding are what the station and napletctl read. Twelve devices put
// "dev10|" before "dev1|" in key order.
func TestSweepBytesUnchanged(t *testing.T) {
	const (
		replyDigest  = "af0d77152afde28372c57a08415fc421a0a6669bc6b433827f53609a99c2902b"
		reportDigest = "6bb4e76d1183941bdf807a19c8732fef935cce6722861b964c9a3db690f9a3bc"
		reportBytes  = 2494
	)
	tb, err := NewTestbed(TestbedConfig{Devices: 12, ExtraVars: 2, Link: netsim.LAN, Seed: 7, BundleSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.Tick(3 * time.Second)
	params := append(OIDStrings(tb.QueryOIDs(6)), "9.9.9", "1.x", " .1.3.6.1.2.1.1.5.0 ", "")
	query := strings.Join(params, ";")
	h := sha256.New()
	for _, d := range tb.Devices {
		for _, cmd := range []string{query, "walk 1.3.6.1.2.1.1", "walk x", ";;" + snmp.OIDSysName.String(), "1.3.6.1.2.1.1.5.0;9"} {
			fmt.Fprintf(h, "%s\n", retrieve(d.Agent, "public", cmd))
		}
		fmt.Fprintf(h, "%s\n", retrieve(d.Agent, "private", query))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != replyDigest {
		t.Errorf("reply lines digest %s, want %s; first device: %q", got, replyDigest, retrieve(tb.Devices[0].Agent, "public", query))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bodies := make(chan []byte, 1)
	nid, err := tb.Station.Server.Launch(ctx, server.LaunchOptions{
		Owner:     "czxu",
		Codebase:  CodebaseName,
		Pattern:   SequentialPattern(tb.DeviceNames),
		InitState: func(s *state.State) error { return s.SetPrivate(paramsKey, params) },
		Listener:  func(r manager.Result) { bodies <- r.Body },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Station.Server.WaitDone(ctx, nid); err != nil {
		t.Fatal(err)
	}
	body := <-bodies
	if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != reportDigest || len(body) != reportBytes {
		t.Errorf("report payload: %d bytes, digest %s; want %d, %s", len(body), got, reportBytes, reportDigest)
	}
	rep, _, err := DecodeReport(body)
	if err != nil || len(rep) != len(tb.DeviceNames) || rep["dev10"][".1.3.6.1.2.1.1.5.0"] != "dev10" {
		t.Fatalf("decoded report: %d devices, dev10 %v, %v", len(rep), rep["dev10"], err)
	}
}

// AppendBinary is the reference encoder of a nested report: it writes the
// entries as wire.AppendStringMap would write the flat map, devices in the
// order of name+"|" and each device's OIDs in order. It is the encoder the
// naplet used before it spliced its state's encoded maps (encodeReport);
// the tests build report bodies with it and hold the splice to it.
func (p *reportPayload) AppendBinary(dst []byte) []byte {
	n := 0
	devs := make([]string, 0, len(p.Status))
	for dev, vals := range p.Status {
		n += len(vals)
		devs = append(devs, dev)
	}
	slices.SortFunc(devs, func(a, b string) int { return strings.Compare(a+"|", b+"|") })
	dst = wire.AppendUvarint(append(dst, reportCodecVersion), uint64(n))
	var bufs [2][128]byte
	prev, key := bufs[0][:0], bufs[1][:0]
	var oids []string
	for _, dev := range devs {
		vals := p.Status[dev]
		oids = oids[:0]
		for oid := range vals {
			oids = append(oids, oid)
		}
		slices.Sort(oids)
		for _, oid := range oids {
			key = append(append(append(key[:0], dev...), '|'), oid...)
			dst = wire.AppendString(wire.AppendMapKey(dst, prev, key), vals[oid])
			prev, key = key, prev
		}
	}
	return wire.AppendStrings(dst, p.Route)
}

// decodeReportReference is the station's decoder as it was before it wrote
// straight into the nested form: the flat map first, then a cut of each key
// at its first "|".
func decodeReportReference(body []byte) (Report, []string, error) {
	rest, err := wire.DecVersion(body, reportCodecVersion)
	if err != nil {
		return nil, nil, err
	}
	flat, rest, err := wire.DecStringMap(rest)
	if err != nil {
		return nil, nil, err
	}
	route, _, err := wire.DecStrings(rest)
	if err != nil {
		return nil, nil, err
	}
	out := make(Report)
	for k, v := range flat {
		dev, oid, ok := strings.Cut(k, "|")
		if !ok {
			continue
		}
		if out[dev] == nil {
			out[dev] = make(map[string]string)
		}
		out[dev][oid] = v
	}
	return out, route, nil
}

// FuzzDecodeReport: a report body comes off the socket at the station.
// DecodeReport must allocate in proportion to the body, accept exactly what
// the reference decoder accepts and agree with it — also once the body it
// read is overwritten, so no value aliases the caller's buffer — reject the
// rest with wire.ErrMalformed, and what it returns must encode to a body that decodes
// to the same report — through the reference encoder, and byte for byte
// the same through the naplet's splice from a state holding each device's
// map. The bound is 128 bytes per body byte, not the 64 of
// the flat codecs' fuzzers: a device costs a map of its own, about 350
// bytes, for as little as 5 bytes of body, and on the seed below, a device
// of 2000 OIDs and then 2000 devices of one, the new decoder allocates 86
// bytes per body byte and the reference 91. A decoder that sized each new
// device by every OID seen before would reserve for 2000² entries there.
func FuzzDecodeReport(f *testing.F) {
	report := reportPayload{
		Status: Report{
			"dev1":  {"1.3.6.1.2.1.1.5.0": "dev1", "1.3.6.1.2.1.1.3.0": "300"},
			"dev10": {"1.3.6.1.2.1.1.5.0": "dev10", "9.9": "error:snmp: noSuchName: 9.9"},
			"d":     {"": "empty oid"},
		},
		Route: []string{"station", "dev1", "dev10", "d"},
	}
	enc := wire.EncodeBody(&report)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(wire.AppendStrings(wire.AppendStringMap([]byte{reportCodecVersion}, map[string]string{"nobar": "x", "a|b|c": "y"}), nil))
	f.Add([]byte("toured: sa -> sb"))
	f.Add([]byte{reportCodecVersion, 0, 0})
	wide := reportPayload{Status: Report{"a": {}}}
	for i := 0; i < 2000; i++ {
		wide.Status["a"][fmt.Sprint(i)] = ""
		wide.Status[fmt.Sprint("b", i)] = map[string]string{"0": ""}
	}
	f.Add(wire.EncodeBody(&wide))
	f.Fuzz(func(t *testing.T, body []byte) {
		own := bytes.Clone(body) // the fuzzer's input must not be written
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, route, err := DecodeReport(own)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(body)+1<<18) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), grew)
		}
		for i := range own {
			own[i] = 0xff
		}
		want, wantRoute, wantErr := decodeReportReference(body)
		if wantErr != nil || err != nil {
			if !errors.Is(err, wire.ErrMalformed) || !errors.Is(wantErr, wire.ErrMalformed) {
				t.Fatalf("DecodeReport error %v, reference %v: want wire.ErrMalformed from both", err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(route, wantRoute) {
			t.Fatalf("DecodeReport = %v %v, reference %v %v", got, route, want, wantRoute)
		}
		re := wire.EncodeBody(&reportPayload{Status: got, Route: route})
		if back, backRoute, err := DecodeReport(re); err != nil || !reflect.DeepEqual(back, got) || !reflect.DeepEqual(backRoute, route) {
			t.Fatalf("re-encoded report decodes to %v %v, %v; want %v %v", back, backRoute, err, got, route)
		}
		st := state.New()
		for dev, vals := range got {
			if err := st.SetPrivate(statusPrefix+dev, vals); err != nil {
				t.Fatal(err)
			}
		}
		if spliced, err := encodeReport(st, route); err != nil || !bytes.Equal(spliced, re) {
			t.Fatalf("report spliced from state: %x, %v; reference encoder: %x", spliced, err, re)
		}
	})
}
