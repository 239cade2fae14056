package man

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cnmp"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/snmp"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestbedConfig parameterizes a simulated managed network: the rig behind
// the §6 example, the MAN-vs-CNMP shape tests, loadgen and the benchmark's
// sweep. Its simulator tallies modeled delay without sleeping it.
type TestbedConfig struct {
	// Devices is the managed device count.
	Devices int
	// Interfaces per device (default 4).
	Interfaces int
	// ExtraVars adds synthetic per-device scalars for MIB-size sweeps.
	ExtraVars int
	// Link is the link characteristic between all hosts (e.g. netsim.LAN
	// or netsim.WAN).
	Link netsim.Link
	// Seed seeds device workloads and the loss process.
	Seed int64
	// BundleSize models the NMNaplet code bundle (0 = registry default).
	BundleSize int
	// Community is the SNMP read community.
	Community string

	// Fabric, when set, overrides the internally-built netsim network —
	// the loadgen harness passes a fault-wrapped simulator or a real TCP
	// fabric here. With an override, Net stays nil and byte accounting
	// via HostStats is unavailable; Link is ignored.
	Fabric transport.Fabric
	// AttachAddr maps a logical host name ("dev3", "dev3:161", "station")
	// to the address handed to Fabric.Attach. Nil is the identity (netsim
	// symbolic names); a TCP rig returns "127.0.0.1:0" and the resolved
	// listen addresses become the testbed's names.
	AttachAddr func(host string) string
	// Telemetry, when set, is shared by every naplet server in the rig so
	// hop-latency, confirm-RTT and transport-byte series aggregate across
	// the whole testbed.
	Telemetry *telemetry.Registry
	// Tune, when set, adjusts each naplet server's config (retries,
	// messenger knobs, failover behavior) just before server.New.
	Tune func(*server.Config)
}

// Testbed is a complete simulated managed network: a fabric, N managed
// devices each hosting a naplet server (with the NetManagement privileged
// service) and an SNMP responder, a MAN station, and a CNMP station.
type Testbed struct {
	// Net is the simulated network, nil when TestbedConfig.Fabric
	// overrode it.
	Net *netsim.Network
	// Fabric is the transport every host attached to (Net unless
	// overridden).
	Fabric transport.Fabric
	Reg    *registry.Registry

	// StationName and CNMPName are the stations' resolved fabric
	// addresses (StationHost/CNMPHost unless AttachAddr remapped them).
	StationName string
	CNMPName    string

	// Devices are the simulated managed devices.
	Devices []*snmp.Device
	// DeviceNames are the naplet-server addresses ("dev0"...).
	DeviceNames []string
	// ResponderNames are the SNMP daemon addresses ("dev0:161"...).
	ResponderNames []string

	// Station is the MAN management station.
	Station *Station
	// CNMP is the conventional management station.
	CNMP *cnmp.Station

	servers    []*server.Server
	responders []*cnmp.Responder
}

// StationHost is the MAN station's fabric address.
const StationHost = "station"

// CNMPHost is the CNMP station's fabric address.
const CNMPHost = "cstation"

// NewTestbed builds the rig.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("man: need at least one device")
	}
	if cfg.Community == "" {
		cfg.Community = "public"
	}
	tb := &Testbed{Reg: registry.New()}
	if cfg.Fabric != nil {
		tb.Fabric = cfg.Fabric
	} else {
		tb.Net = netsim.New(netsim.Config{
			DefaultLink: cfg.Link,
			Seed:        cfg.Seed,
			CallTimeout: 5 * time.Second,
		})
		tb.Fabric = tb.Net
	}
	attach := cfg.AttachAddr
	if attach == nil {
		attach = func(host string) string { return host }
	}
	newServer := func(name string) (*server.Server, error) {
		scfg := server.Config{
			Name:      attach(name),
			Fabric:    tb.Fabric,
			Registry:  tb.Reg,
			Telemetry: cfg.Telemetry,
		}
		if cfg.Tune != nil {
			cfg.Tune(&scfg)
		}
		return server.New(scfg)
	}
	if err := RegisterCodebase(tb.Reg, cfg.BundleSize); err != nil {
		return nil, err
	}
	if err := RegisterMonitorCodebase(tb.Reg, cfg.BundleSize); err != nil {
		return nil, err
	}

	// Managed devices: naplet server + NetManagement service + responder.
	for i := 0; i < cfg.Devices; i++ {
		name := fmt.Sprintf("dev%d", i)
		dev := snmp.NewDevice(snmp.DeviceConfig{
			Name:       name,
			Interfaces: cfg.Interfaces,
			Community:  cfg.Community,
			Seed:       cfg.Seed + int64(i),
			ExtraVars:  cfg.ExtraVars,
		})
		srv, err := newServer(name)
		if err != nil {
			tb.Close()
			return nil, err
		}
		if err := srv.Resources().RegisterPrivileged(ServiceName, NewNetManagementService(dev, cfg.Community)); err != nil {
			tb.Close()
			return nil, err
		}
		if err := srv.Resources().RegisterPrivileged(EventServiceName, NewEventPollService(dev)); err != nil {
			tb.Close()
			return nil, err
		}
		resp, err := cnmp.AttachResponder(tb.Fabric, attach(name+":161"), dev)
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.Devices = append(tb.Devices, dev)
		tb.DeviceNames = append(tb.DeviceNames, srv.Name())
		tb.ResponderNames = append(tb.ResponderNames, resp.Addr())
		tb.servers = append(tb.servers, srv)
		tb.responders = append(tb.responders, resp)
	}

	// MAN station.
	home, err := newServer(StationHost)
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.servers = append(tb.servers, home)
	tb.StationName = home.Name()
	tb.Station = &Station{Server: home, Owner: "czxu"}

	// CNMP station.
	cs, err := cnmp.NewStation(tb.Fabric, attach(CNMPHost))
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.CNMP = cs
	tb.CNMPName = cs.Node().Addr()
	return tb, nil
}

// Servers exposes the device and station naplet servers (devices first,
// station last) for harnesses that need direct handles.
func (tb *Testbed) Servers() []*server.Server { return tb.servers }

// Tick advances every device's workload by dt.
func (tb *Testbed) Tick(dt time.Duration) {
	for _, d := range tb.Devices {
		d.Tick(dt)
	}
}

// QueryOIDs builds the per-device variable list for a sweep of size v:
// standard objects first, then synthetic extras.
func (tb *Testbed) QueryOIDs(v int) []snmp.OID {
	std := []snmp.OID{snmp.OIDSysDescr, snmp.OIDSysUpTime, snmp.OIDSysName, snmp.OIDIfNumber}
	if v <= len(std) {
		return std[:v]
	}
	out := append([]snmp.OID(nil), std...)
	for i := 0; len(out) < v; i++ {
		out = append(out, snmp.ExtraVarOID(i))
	}
	return out
}

// Close tears the rig down.
func (tb *Testbed) Close() {
	for _, s := range tb.servers {
		s.Close()
	}
	for _, r := range tb.responders {
		r.Close()
	}
	if tb.CNMP != nil {
		tb.CNMP.Close()
	}
}

// TickEvents advances every device's workload by dt and emits the round's
// trap notifications.
func (tb *Testbed) TickEvents(dt time.Duration) {
	for _, d := range tb.Devices {
		d.TickEvents(dt)
	}
}

// ForwardAllTraps drains every device's pending traps to the given station
// over the network — the conventional trap path, one frame per trap.
func (tb *Testbed) ForwardAllTraps(ctx context.Context, station string) (int, error) {
	total := 0
	for _, r := range tb.responders {
		n, err := r.ForwardTraps(ctx, station)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TrapTotals sums lifetime (total, significant) trap counts across all
// devices.
func (tb *Testbed) TrapTotals() (total, significant int) {
	for _, d := range tb.Devices {
		tt, ss := d.TrapTotals()
		total += tt
		significant += ss
	}
	return total, significant
}
