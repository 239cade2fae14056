package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/directory"
	"repro/internal/dock"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/man"
	"repro/internal/manager"
	"repro/internal/messenger"
	"repro/internal/monitor"
	"repro/internal/naplet"
	"repro/internal/navigator"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/security"
	"repro/internal/server"
	"repro/internal/snmp"
	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ledgerLines is the number of timed loops a ledger runs; the pass's ledger
// budget is divided by it.
const ledgerLines = 20

// paramsKey is the state key under which an NMNaplet carries its MIB
// parameter list (unexported in package man).
const paramsKey = "man.params"

// Sizes the issue fixes for the ledger's synthetic inputs.
const (
	coldBundleBytes  = 32 << 10
	directoryEntries = 10000
	dockResidents    = 64
	coldHopRounds    = 3
)

// sink keeps the compiler from discarding a timed call's result.
var sink any

// timeLoop calls fn repeatedly for about budget and returns the mean
// nanoseconds and heap allocations per call. Nothing else runs while the
// ledger does, so the process-wide malloc counter is the loop's own.
func timeLoop(budget time.Duration, fn func()) (ns, allocs float64) {
	fn() // warm
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	iters := 0
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		iters += batch
		if time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed) / float64(iters), float64(ms.Mallocs-mallocs) / float64(iters)
}

// ledger times each layer's public functions directly, on inputs captured
// from the workload's traced window.
type ledger struct {
	w      workloadSpec
	budget time.Duration
	dir    string
	vals   map[string]float64
}

// line runs one timed loop and stores <name>_ns and, when wanted,
// <name>_allocs.
func (l *ledger) line(name string, withAllocs bool, fn func()) {
	ns, allocs := timeLoop(l.budget, fn)
	l.vals[name+"_ns"] = ns
	if withAllocs {
		l.vals[name+"_allocs"] = allocs
	}
}

// runLedger returns the ledger metrics of workload w. tr holds the frames
// captured in the traced window.
func runLedger(w workloadSpec, tr *tracer, o options) (map[string]float64, error) {
	l := &ledger{w: w, budget: o.ledgerBudget, dir: o.traceDir, vals: map[string]float64{}}
	if tr.transfer.Payload == nil {
		return nil, fmt.Errorf("ledger: the traced window saw no naplet transfer")
	}
	var body navigator.TransferBody
	if err := body.Decode(tr.transfer.Payload); err != nil {
		return nil, fmt.Errorf("ledger: captured transfer: %w", err)
	}
	rec, err := navigator.DecodeRecord(body.Record)
	if err != nil {
		return nil, fmt.Errorf("ledger: captured record: %w", err)
	}

	l.wire(tr.largest)
	l.record(rec, body.Record)
	l.state(rec)
	if err := l.dockStack(rec); err != nil {
		return nil, err
	}
	// What the workload's requests do decides the remaining lines: one that
	// posts mail gets the mail codec and a fabric call carrying its post
	// instead of its naplet transfer; one whose naplet carries NetManagement
	// parameters gets the service channel.
	callFrame := tr.transfer
	if tr.post.Payload != nil {
		callFrame = tr.post
		if err := l.mail(tr.post); err != nil {
			return nil, err
		}
	}
	if err := l.fabrics(callFrame); err != nil {
		return nil, err
	}
	l.directory()
	var params []string
	if rec.State.Load(paramsKey, &params) == nil {
		if err := l.serviceChannel(rec, params); err != nil {
			return nil, err
		}
	}
	if err := l.dock(body.Record); err != nil {
		return nil, err
	}
	l.telemetry()
	if err := l.coldHop(); err != nil {
		return nil, err
	}
	return l.vals, nil
}

// wire times the frame codec on the workload's largest frame.
func (l *ledger) wire(f wire.Frame) {
	encoded, err := wire.Encode(f)
	if err != nil {
		return
	}
	l.line("wire.frame_encode", true, func() { sink, _ = wire.Encode(f) })
	l.line("wire.frame_decode", true, func() { sink, _, _ = wire.Decode(encoded) })
}

// record times the migration codec on the captured record.
func (l *ledger) record(rec *naplet.Record, encoded []byte) {
	l.vals["naplet.record_bytes"] = float64(len(encoded))
	l.line("naplet.record_encode", true, func() { sink, _ = navigator.EncodeRecord(rec) })
	l.line("naplet.record_decode", true, func() { sink, _ = navigator.DecodeRecord(encoded) })
}

// mail times one post body's encode and decode.
func (l *ledger) mail(f wire.Frame) error {
	var body messenger.PostBody
	if err := body.Decode(f.Payload); err != nil {
		return fmt.Errorf("ledger: captured post: %w", err)
	}
	l.line("naplet.mail_roundtrip", true, func() {
		var out messenger.PostBody
		sink = out.Decode(body.AppendBinary(nil))
	})
	return nil
}

// state times a set and a load of the record's largest state key.
func (l *ledger) state(rec *naplet.Record) {
	var key string
	var value any
	size := -1
	for _, k := range rec.State.Keys() {
		v, err := rec.State.Get(k)
		if err != nil {
			continue
		}
		one := state.New()
		if one.SetPrivate(k, v) == nil && one.EncodedSize() > size {
			key, value, size = k, v, one.EncodedSize()
		}
	}
	if size < 0 {
		return
	}
	st := state.New()
	l.line("state.set", true, func() { sink = st.SetPrivate(key, value) })
	l.line("state.load", true, func() {
		var out any
		sink = st.Load(key, &out)
	})
}

// dockStack times the per-landing calls into security, registry, monitor,
// manager and the admission gate.
func (l *ledger) dockStack(rec *naplet.Record) error {
	sec := security.NewManager(nil, security.AllowAll, time.Now)
	l.line("security.check_landing", true, func() { sink = sec.CheckLanding(&rec.Credential) })

	reg, err := newAgentRegistry(new(sync.Map))
	if err != nil {
		return err
	}
	if err := man.RegisterCodebase(reg, 0); err != nil {
		return err
	}
	l.line("registry.instantiate", false, func() { sink, _ = reg.Instantiate(rec.Codebase) })

	mon := monitor.New(0, time.Now)
	l.line("monitor.admit_run_remove", true, func() {
		if g, err := mon.Admit(rec.ID, monitor.Policy{}); err == nil {
			sink = g.Run(func(context.Context) error { return nil })
		}
		mon.Remove(rec.ID)
	})

	mgr := manager.New("ledger", time.Now)
	now := time.Now()
	l.line("manager.arrive_depart", true, func() {
		mgr.RecordArrival(rec.ID, rec.Codebase, "origin", now)
		sink = mgr.RecordDeparture(rec.ID, "next", now)
	})

	gate := overload.NewGate(overload.GateConfig{})
	class := overload.Classify(wire.KindNapletTransfer)
	l.line("overload.gate_admit", true, func() {
		if release, err := gate.Admit(context.Background(), class); err == nil {
			release()
		}
	})
	return nil
}

// echo attaches an acknowledging node to fabric a and a calling node to
// fabric b and returns a func making one call of f between them, plus a func
// closing both.
func echo(a, b transport.Fabric, addr func(string) string, f wire.Frame) (call func(), closeNodes func(), err error) {
	server, err := a.Attach(addr("echo"), func(from string, req wire.Frame) (wire.Frame, error) {
		return wire.Frame{Kind: wire.KindControlReply, From: req.To, To: req.From}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	client, err := b.Attach(addr("caller"), func(string, wire.Frame) (wire.Frame, error) { return wire.Frame{}, nil })
	if err != nil {
		server.Close()
		return nil, nil, err
	}
	f.Kind = wire.KindControl // acknowledged, not interpreted
	call = func() { sink, _ = client.Call(context.Background(), server.Addr(), f) }
	return call, func() { client.Close(); server.Close() }, nil
}

// fabrics times one raw Node.Call carrying f, answered by an empty
// acknowledgement, between two bare nodes of each fabric, one in flight.
func (l *ledger) fabrics(f wire.Frame) error {
	tcpAddr := func(string) string { return "127.0.0.1:0" }
	call, closeNodes, err := echo(transport.NewTCPFabric(), transport.NewTCPFabric(), tcpAddr, f)
	if err != nil {
		return err
	}
	ns, allocs := timeLoop(l.budget, call)
	closeNodes()
	l.vals["transport.rtt_us"], l.vals["transport.rtt_allocs"] = ns/1e3, allocs

	net := netsim.New(netsim.Config{DefaultLink: netsim.LAN, TimeScale: 0})
	call, closeNodes, err = echo(net, net, func(h string) string { return h }, f)
	if err != nil {
		return err
	}
	l.line("netsim.call", true, call)
	closeNodes()
	return nil
}

// directory times direct Service calls against a populated table.
func (l *ledger) directory() {
	svc := directory.NewService()
	at := time.Now()
	ids := make([]id.NapletID, directoryEntries)
	for i := range ids {
		ids[i] = id.MustNew(owner, "ledger", at.Add(time.Duration(i)*time.Second))
		svc.Register(directory.RegisterBody{NapletID: ids[i], Event: directory.Arrival, Server: "dock0", At: at, Seq: 1})
	}
	i := 0
	l.line("directory.register", false, func() {
		i++
		svc.Register(directory.RegisterBody{NapletID: ids[i%len(ids)], Event: directory.Arrival, Server: "dock1", At: at, Seq: uint64(i)})
	})
	l.line("directory.lookup", false, func() {
		i++
		sink, _ = svc.Lookup(ids[i%len(ids)])
	})
}

// serviceChannel times what an NMNaplet does at a device: open the
// NetManagement channel, one query of its parameter list, close.
func (l *ledger) serviceChannel(rec *naplet.Record, params []string) error {
	query := strings.Join(params, ";")
	dev := snmp.NewDevice(snmp.DeviceConfig{Name: "ledger", Interfaces: 4, Seed: 1, ExtraVars: sweepVars - 4})
	res := resource.NewManager(security.NewManager(nil, security.AllowAll, time.Now))
	if err := res.RegisterPrivileged(man.ServiceName, man.NewNetManagementService(dev, "public")); err != nil {
		return err
	}
	l.line("resource.channel_roundtrip", true, func() {
		ch, err := res.OpenChannel(&rec.Credential, man.ServiceName)
		if err != nil {
			return
		}
		if ch.WriteLine(query) == nil {
			sink, _ = ch.ReadLine()
		}
		ch.Close()
	})
	return nil
}

// dock times a durable snapshot of dockResidents residents holding the
// captured record. The four workloads run volatile docks, so this line
// moves none of them; it is here so a dock change has a number.
func (l *ledger) dock(record []byte) error {
	dir := filepath.Join(l.dir, fmt.Sprintf("dock-%d", os.Getpid()))
	store, err := dock.Open(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := &dock.Snapshot{Server: "ledger", SavedAt: time.Now()}
	for i := 0; i < dockResidents; i++ {
		snap.Residents = append(snap.Residents, dock.Resident{ID: fmt.Sprint(i), Record: record, Phase: dock.PhaseResident})
	}
	l.vals["dock.snapshot_bytes"] = float64(snap.EncodedSize())
	ns, _ := timeLoop(l.budget, func() { sink = store.Save(snap) })
	l.vals["dock.save_us"] = ns / 1e3
	return nil
}

// telemetry times the two metric hot paths every layer calls.
func (l *ledger) telemetry() {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("bench_ledger_seconds", "", telemetry.LatencyBuckets)
	c := reg.Counter("bench_ledger_total", "")
	l.line("telemetry.observe", false, func() { h.Observe(0.0003) })
	l.line("telemetry.counter_inc", false, c.Inc)
}

// coldHop measures the first hop of a codebase to a fresh dock on the
// workload's fabric: a coldBundleBytes bundle travels with the record. Every
// round builds a fresh pair of docks; the median round is reported.
func (l *ledger) coldHop() error {
	var us, bytes []float64
	for round := 0; round < coldHopRounds; round++ {
		fl, err := newFleet(l.w.tcp, nil)
		if err != nil {
			return err
		}
		fl.reg = registry.New()
		if err := fl.reg.Register(&registry.Codebase{
			Name: tourCodebase, BundleSize: coldBundleBytes,
			New: func() naplet.Behavior { return tourAgent{} },
		}); err != nil {
			return err
		}
		var stop *server.Server
		if stop, _, err = fl.addDock("dock0"); err == nil {
			fl.stops = []*server.Server{stop}
			fl.home, fl.homeReg, err = fl.addDock("home")
		}
		if err != nil {
			fl.close()
			return err
		}
		// The hop span is recorded at home once the acknowledgement is
		// back, which may be after the report has already arrived.
		report, hop := make(chan struct{}, 1), make(chan telemetry.HopSpan, 1)
		fl.home.Tracer().SetSink(func(h telemetry.HopSpan) { hop <- h })
		ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
		start := time.Now()
		_, err = fl.home.Launch(ctx, server.LaunchOptions{
			Owner: owner, Codebase: tourCodebase,
			Pattern:  itinerary.SeqVisits([]string{stop.Name()}, ""),
			Listener: func(manager.Result) { report <- struct{}{} },
		})
		var elapsed time.Duration
		var moved int
		for waiting := 2; err == nil && waiting > 0; waiting-- {
			select {
			case <-report:
				elapsed = time.Since(start)
			case h := <-hop:
				moved = h.RecordBytes + h.CodeBytes
			case <-ctx.Done():
				err = fmt.Errorf("ledger: cold hop: %w", ctx.Err())
			}
		}
		cancel()
		if cerr := fl.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		us = append(us, float64(elapsed)/1e3)
		bytes = append(bytes, float64(moved))
	}
	l.vals["navigator.cold_hop_us"], l.vals["navigator.cold_hop_bytes"] = median(us), median(bytes)
	return nil
}
