package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/directory"
	"repro/internal/locator"
	"repro/internal/man"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Fleet shape shared by the touring workloads: a tour crosses tourStops
// docks and is launched from one more, the home dock.
const (
	tourStops    = 8
	sweepDevices = 32
	sweepStops   = 16
	sweepVars    = 16
)

// Series the fabrics register in a telemetry registry (transport.NewMetrics).
const (
	framesSentSeries = "naplet_transport_frames_sent_total"
	bytesSentSeries  = "naplet_transport_bytes_sent_total"
	bytesRecvSeries  = "naplet_transport_bytes_recv_total"
	lateReplySeries  = "naplet_transport_late_replies_total"
)

// fabricWrap decorates a fabric before docks attach to it; the traced pass
// passes its span recorder, the end-to-end pass passes nil.
type fabricWrap func(transport.Fabric) transport.Fabric

// fleet is one in-process naplet space of full docks, configured as
// cmd/napletd builds a dock with "-directory <addr> -overload": instrumented
// fabric, per-dock telemetry registry and hop tracer, eight dispatch retries,
// directory location mode against one directory service on its own node, the
// overload stack at its defaults, no locator cache, and no durable dock.
type fleet struct {
	tcp  bool
	wrap fabricWrap

	// net is the shared simulator of a netsim fleet; nil on TCP, where
	// every node has its own TCPFabric (one per process in production).
	net *netsim.Network
	// fabricRegs hold the fabric traffic counters: one per node on TCP,
	// one for the whole simulator on netsim.
	fabricRegs []*telemetry.Registry
	homeReg    *telemetry.Registry

	dirSvc  *directory.Service
	dirNode transport.Node
	dirAddr string

	reg *registry.Registry
	// home launches every agent; stops are the docks agents visit.
	home  *server.Server
	stops []*server.Server
	// tb is the §6 rig behind sweep-netsim; nil on the other workloads.
	tb *man.Testbed

	baseGoroutines int
}

// newFleet starts the directory node; docks are added by the workload.
func newFleet(tcp bool, wrap fabricWrap) (*fleet, error) {
	fl := &fleet{tcp: tcp, wrap: wrap, baseGoroutines: runtime.NumGoroutine()}
	if !tcp {
		fl.net = netsim.New(netsim.Config{DefaultLink: netsim.LAN, TimeScale: 0, CallTimeout: 10 * time.Second})
		reg := telemetry.NewRegistry()
		fl.net.Instrument(reg)
		fl.fabricRegs = append(fl.fabricRegs, reg)
	}
	fl.dirSvc = directory.NewService()
	fab, _ := fl.fabric()
	node, err := fl.dirSvc.Serve(fab, fl.attachAddr("directory"))
	if err != nil {
		return nil, fmt.Errorf("bench: directory node: %w", err)
	}
	fl.dirNode = node
	fl.dirAddr = node.Addr()
	return fl, nil
}

// fabric returns the fabric the next node attaches to and the registry
// holding its traffic counters.
func (fl *fleet) fabric() (transport.Fabric, *telemetry.Registry) {
	var fab transport.Fabric
	var reg *telemetry.Registry
	if fl.tcp {
		tf := transport.NewTCPFabric()
		reg = telemetry.NewRegistry()
		tf.Instrument(reg)
		fl.fabricRegs = append(fl.fabricRegs, reg)
		fab = tf
	} else {
		fab, reg = fl.net, fl.fabricRegs[0]
	}
	if fl.wrap != nil {
		fab = fl.wrap(fab)
	}
	return fab, reg
}

// attachAddr maps a symbolic host name to the address handed to Attach.
func (fl *fleet) attachAddr(host string) string {
	if fl.tcp {
		return "127.0.0.1:0"
	}
	return host
}

// tune applies the napletd dock configuration to cfg. On TCP the dock's
// fabric registry doubles as its telemetry registry, as in napletd.
func (fl *fleet) tune(cfg *server.Config, fabricReg *telemetry.Registry) {
	cfg.LocatorMode = locator.ModeDirectory
	cfg.DirectoryAddrs = []string{fl.dirAddr}
	cfg.Overload = &overload.Options{}
	cfg.DispatchRetries = 8
	cfg.Tracer = telemetry.NewHopTracer(0)
	cfg.Telemetry = telemetry.NewRegistry()
	if fl.tcp {
		cfg.Telemetry = fabricReg
	}
}

// addDock builds one full dock serving the fleet's registry.
func (fl *fleet) addDock(host string) (*server.Server, *telemetry.Registry, error) {
	fab, reg := fl.fabric()
	cfg := server.Config{Name: fl.attachAddr(host), Fabric: fab, Registry: fl.reg}
	fl.tune(&cfg, reg)
	srv, err := server.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: dock %s: %w", host, err)
	}
	return srv, reg, nil
}

// buildTourFleet adds tourStops docks and a home dock serving reg.
func (fl *fleet) buildTourFleet(reg *registry.Registry) error {
	fl.reg = reg
	for i := 0; i < tourStops; i++ {
		srv, _, err := fl.addDock(fmt.Sprintf("dock%d", i))
		if err != nil {
			return err
		}
		fl.stops = append(fl.stops, srv)
	}
	home, homeReg, err := fl.addDock("home")
	if err != nil {
		return err
	}
	fl.home, fl.homeReg = home, homeReg
	return nil
}

// buildSweepFleet builds the §6 testbed on the fleet's fabric: sweepDevices
// managed devices, each a full dock with the NetManagement service and an
// SNMP responder, a MAN station dock and a CNMP station.
func (fl *fleet) buildSweepFleet(seed int64) error {
	fab, reg := fl.fabric()
	tb, err := man.NewTestbed(man.TestbedConfig{
		Devices:    sweepDevices,
		Interfaces: 4,
		ExtraVars:  sweepVars - 4,
		Seed:       seed,
		Fabric:     fab,
		AttachAddr: fl.attachAddr,
		Tune:       func(cfg *server.Config) { fl.tune(cfg, reg) },
	})
	if err != nil {
		return fmt.Errorf("bench: testbed: %w", err)
	}
	fl.tb = tb
	fl.reg = tb.Reg
	servers := tb.Servers()
	fl.stops, fl.home, fl.homeReg = servers[:sweepDevices], servers[sweepDevices], reg
	return nil
}

// servers lists every dock, home last.
func (fl *fleet) servers() []*server.Server {
	return append(append([]*server.Server(nil), fl.stops...), fl.home)
}

// traffic is a fabric-wide traffic reading.
type traffic struct {
	frames, bytes, homeBytes, lateReplies int64
}

// traffic reads the frames and encoded bytes sent on the fabric so far
// (each counted once, at its sender) and the bytes the home dock sent and
// received. Netsim meters every frame exactly; TCP reads the per-node
// fabric counters.
func (fl *fleet) traffic() traffic {
	var t traffic
	if !fl.tcp {
		total := fl.net.TotalStats()
		home := fl.net.HostStats(fl.home.Name())
		return traffic{frames: total.FramesSent, bytes: total.BytesSent, homeBytes: home.BytesSent + home.BytesRecv}
	}
	for _, reg := range fl.fabricRegs {
		t.frames += reg.Counter(framesSentSeries, "").Value()
		t.bytes += reg.Counter(bytesSentSeries, "").Value()
		t.lateReplies += reg.Counter(lateReplySeries, "").Value()
	}
	t.homeBytes = fl.homeReg.Counter(bytesSentSeries, "").Value() + fl.homeReg.Counter(bytesRecvSeries, "").Value()
	return t
}

// close tears the fleet down and reports an error when a goroutine the
// fleet started outlives it by 5 s.
func (fl *fleet) close() error {
	if fl.tb != nil {
		fl.tb.Close()
	} else {
		for _, s := range fl.servers() {
			if s != nil {
				s.Close()
			}
		}
	}
	if fl.dirNode != nil {
		fl.dirNode.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > fl.baseGoroutines {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %d goroutines outlived the fleet's Close by 5s",
				runtime.NumGoroutine()-fl.baseGoroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
