package main

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"time"

	"repro/internal/cnmp"
	"repro/internal/wire"
)

// layerCounters sums, over every dock of a fleet, the activity counters the
// components expose through their Stats methods.
type layerCounters struct {
	dispatched, navRetries, dupTransfers int64
	forwarded, held, msgRetries          int64
	locLookups, locHits, locDirectory    int64
	cacheHits, cacheMisses               int64
	shed                                 int64
	dirRegisters, dirLookups             int64
	poolGets, poolMisses                 int64
	lateReplies                          int64
}

func readLayerCounters(fl *fleet) layerCounters {
	var c layerCounters
	for _, s := range fl.servers() {
		nav := s.Navigator().Stats()
		c.dispatched += nav.Dispatched
		c.navRetries += nav.Retries
		c.dupTransfers += nav.DupTransfers
		msg := s.Messenger().Stats()
		c.forwarded += msg.Forwarded
		c.held += msg.Held
		c.msgRetries += msg.Retries
		loc := s.Locator().Stats()
		c.locLookups += loc.Lookups
		c.locHits += loc.CacheHits
		c.locDirectory += loc.Directory
		cache := s.Cache().Stats()
		c.cacheHits += cache.Hits
		c.cacheMisses += cache.Misses
		c.shed += s.OverloadGate().Stats().TotalShed()
	}
	dir := fl.dirSvc.Stats()
	c.dirRegisters, c.dirLookups = dir.Registrations, dir.Lookups
	c.poolGets, c.poolMisses = wire.PoolCounters()
	c.lateReplies = fl.traffic().lateReplies
	return c
}

// strandedMail counts messages still parked in special mailboxes: mail held
// for a naplet that will never come back for it.
func strandedMail(fl *fleet) int {
	n := 0
	for _, s := range fl.servers() {
		for _, msgs := range s.Messenger().HeldSnapshot() {
			n += len(msgs)
		}
	}
	return n
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterValues turns the counter deltas of the traced window into per-op
// metrics.
func counterValues(before, after layerCounters, ops int, stranded int) map[string]float64 {
	n := int64(ops)
	return map[string]float64{
		"wire.pool_miss_ratio":           ratio(after.poolMisses-before.poolMisses, after.poolGets-before.poolGets),
		"registry.cache_hit_ratio":       ratio(after.cacheHits-before.cacheHits, after.cacheHits-before.cacheHits+after.cacheMisses-before.cacheMisses),
		"overload.shed_per_op":           ratio(after.shed-before.shed, n),
		"navigator.retries_per_op":       ratio(after.navRetries-before.navRetries, n),
		"navigator.dup_transfers_per_op": ratio(after.dupTransfers-before.dupTransfers, n),
		"transport.late_replies":         float64(after.lateReplies - before.lateReplies),
		"directory.registers_per_op":     ratio(after.dirRegisters-before.dirRegisters, n),
		"directory.lookups_per_op":       ratio(after.dirLookups-before.dirLookups, n),
		"locator.lookups_per_op":         ratio(after.locLookups-before.locLookups, n),
		"locator.dir_roundtrips_per_op":  ratio(after.locDirectory-before.locDirectory, n),
		"locator.cache_hit_ratio":        ratio(after.locHits-before.locHits, after.locLookups-before.locLookups),
		"messenger.forwards_per_op":      ratio(after.forwarded-before.forwarded, n),
		"messenger.held_per_op":          ratio(after.held-before.held, n),
		"messenger.retries_per_op":       ratio(after.msgRetries-before.msgRetries, n),
		"messenger.stranded_per_1k":      1000 * ratio(int64(stranded), n),
	}
}

// cnmpByteRatio polls the devices of one wave the conventional way — one
// cnmp.Station.Collect pass, a request per variable — and returns the CNMP
// station's bytes over the MAN station's bytes per wave: the paper's §6
// traffic-locality figure.
func cnmpByteRatio(fl *fleet, p *plan, stationBytesPerWave float64) (float64, error) {
	responders := make([]string, sweepStops)
	for i, d := range p.routes[0] {
		responders[i] = fl.tb.ResponderNames[d]
	}
	before := fl.net.HostStats(fl.tb.CNMPName)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := fl.tb.CNMP.Collect(ctx, responders, fl.tb.QueryOIDs(sweepVars), cnmp.Options{}); err != nil {
		return 0, fmt.Errorf("cnmp pass: %w", err)
	}
	after := fl.net.HostStats(fl.tb.CNMPName)
	if stationBytesPerWave == 0 {
		return 0, nil
	}
	cnmpBytes := after.BytesSent - before.BytesSent + after.BytesRecv - before.BytesRecv
	return float64(cnmpBytes) / stationBytesPerWave, nil
}

// runTraced is the second pass. A two-client window like the end-to-end
// pass's (two tenths of the time an end-to-end pass measures for) yields the
// unbounded end-to-end figures. Then the workload runs with a single client,
// so that every span inside a request's interval belongs to that request: one
// untraced window on the same plain fleet, one traced window on a fleet whose
// fabrics are decorated and whose docks export events and hop spans (three
// tenths each). The ledger takes the rest.
func runTraced(w workloadSpec, p *plan, o options) (*measurement, map[string]float64, error) {
	pass := time.Duration(o.windows) * o.window
	window := pass * 3 / 10

	fl, session, _, err := setUp(w, p, nil, loadClients)
	if err != nil {
		return nil, nil, err
	}
	loaded := runLoad(fl, session, loadClients, 1, pass/5, nil)
	plain := runLoad(fl, session, 1, 1, window, nil)
	if err := fl.close(); err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	fl, session, _, err = setUp(w, p, tr.wrap, 1)
	if err != nil {
		return nil, nil, err
	}
	tr.attach(fl)
	before := readLayerCounters(fl)
	tr.on.Store(true)
	traced := runLoad(fl, session, 1, 1, window, tr)
	tr.on.Store(false)
	after := readLayerCounters(fl)
	stranded := strandedMail(fl)
	ops := traced.verified()

	vals := counterValues(before, after, ops, stranded)
	if fl.tb != nil {
		perWave := traced.perOp(float64(traced.last.homeBytes-traced.first.homeBytes)) * float64(w.opsPerReq)
		if vals["man.byte_ratio"], err = cnmpByteRatio(fl, p, perWave); err != nil {
			fl.close()
			return nil, nil, err
		}
	}
	if err := fl.close(); err != nil {
		return nil, nil, err
	}

	tr.link()
	if err := tr.write(filepath.Join(o.traceDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	maps.Copy(vals, tr.spanValues(fl, ops))
	maps.Copy(vals, tr.journeyValues())
	maps.Copy(vals, loaded.unboundedValues())
	vals["server.launch_us"] = traced.launchUs
	if plainRate := plain.windows[0].opsPerS; plainRate > 0 {
		vals["trace.overhead_pct"] = 100 * (plainRate - traced.windows[0].opsPerS) / plainRate
	}

	ledger, err := runLedger(w, tr, o)
	if err != nil {
		return nil, nil, err
	}
	maps.Copy(vals, ledger)
	hops := ratio(after.dispatched-before.dispatched, int64(ops))
	vals["ledger.hop_sum_us"] = hopSum(w, vals, hops)
	if cpu := plain.windows[0].cpuUsOp; cpu > 0 {
		vals["ledger.explained_share"] = vals["ledger.hop_sum_us"] / cpu
	}

	all := &measurement{windows: []windowStats{loaded.windows[0], plain.windows[0], traced.windows[0]}}
	for _, m := range []*measurement{loaded, plain, traced} {
		all.attempted += m.attempted
		all.failed += m.failed
		all.requests += m.requests
	}
	return all, vals, nil
}

// hopSum adds up the ledger lines one op of the workload executes, in
// microseconds: the per-hop lines once per migration (hops is migrations per
// op: 1 on tours and sweeps, about 1/8 on the chase), a gate admission and a
// raw fabric round trip per call, the directory lines per register and
// lookup, and the mail codec per chased message. Frame encode and decode are
// inside the TCP round trip and do not happen on netsim, so they are not
// added again.
func hopSum(w workloadSpec, v map[string]float64, hops float64) float64 {
	perHopNs := v["naplet.record_encode_ns"] + v["naplet.record_decode_ns"] +
		v["state.set_ns"] + v["state.load_ns"] +
		v["security.check_landing_ns"] + v["registry.instantiate_ns"] +
		v["monitor.admit_run_remove_ns"] + v["manager.arrive_depart_ns"] +
		v["resource.channel_roundtrip_ns"]
	rttNs := v["netsim.call_ns"]
	if w.tcp {
		rttNs = v["transport.rtt_us"] * 1e3
	}
	ns := hops*perHopNs +
		v["transport.calls_per_op"]*(v["overload.gate_admit_ns"]+rttNs) +
		v["directory.registers_per_op"]*v["directory.register_ns"] +
		v["directory.lookups_per_op"]*v["directory.lookup_ns"] +
		v["naplet.mail_roundtrip_ns"]
	return ns / 1e3
}
