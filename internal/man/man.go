// Package man implements the paper's §6 application: MAN, mobile-agent
// based network management (Figure 3).
//
// "The management station programs demanded device statistics or
// diagnostics functions into an agent and dispatches the agent to the
// devices for on-site management."
//
// The pieces map to the paper directly:
//
//   - NetManagement: the privileged service of §6.1, registered as
//     "serviceImpl.NetManagement" on each managed device's naplet server.
//     Its run loop reads a semicolon-separated parameter list from the
//     ServiceReader, queries the local SNMP agent (on-site: no network
//     traffic), and writes the results to the ServiceWriter.
//   - NMNaplet: the naplet of §6.2. On arrival it opens a service channel
//     to NetManagement, passes its MIB parameters, stores the results in
//     its protected state under "DeviceStatus/<device>" — one key per
//     device, so a stop writes what it gathered and never decodes, re-sorts
//     and re-encodes what earlier stops did — and travels on. Its
//     ResultReport post-action folds those keys into one report for the
//     home listener.
//   - Station: the management station. It launches NMNaplets with a
//     sequential itinerary (one agent tours all devices and reports once)
//     or the paper's broadcast itinerary (a clone per device, individual
//     reports).
package man

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/snmp"
	"repro/internal/state"
	"repro/internal/wire"
)

// ServiceName is the registered name of the NetManagement privileged
// service (§6.2: 'accessed by incoming naplets through its registered name
// "serviceImpl.NetManagement"').
const ServiceName = "serviceImpl.NetManagement"

// CodebaseName names the NMNaplet agent code in the registry.
const CodebaseName = "naplet.NMNaplet"

// State keys used by the NMNaplet.
const (
	// paramsKey holds the MIB parameter list ([]string of OIDs).
	paramsKey = "man.params"
	// statusPrefix starts the keys of the gathered DeviceStatus (paper
	// §6.2): "DeviceStatus/<device>" holds that device's OID → value map,
	// stored protected so only the home server could update it.
	statusPrefix = "DeviceStatus/"
)

// NewNetManagementService builds the privileged-service factory for one
// device: each service channel gets a fresh run loop bound to the device's
// local SNMP agent.
func NewNetManagementService(dev *snmp.Device, community string) resource.Factory {
	return func() resource.PrivilegedService {
		return resource.ServiceFunc(func(ch *resource.ServerEnd) {
			for {
				cmd, err := ch.ReadLine()
				if err != nil {
					return // channel closed
				}
				ch.WriteLine(retrieve(dev.Agent, community, cmd))
			}
		})
	}
}

// retrieve mirrors the paper's private retrieve() method: tokenize the
// parameter list, issue a get per parameter against the local agent, and
// assemble the reply line. "walk <root>" walks a subtree.
func retrieve(agent *snmp.Agent, community, cmd string) string {
	cmd = strings.TrimSpace(cmd)
	if rest, ok := strings.CutPrefix(cmd, "walk "); ok {
		root, err := snmp.ParseOID(strings.TrimSpace(rest))
		if err != nil {
			return "error=" + err.Error()
		}
		bindings, err := agent.WalkSubtree(community, root)
		if err != nil {
			return "error=" + err.Error()
		}
		parts := make([]string, len(bindings))
		for i, b := range bindings {
			parts[i] = b.OID.String() + "=" + b.Value.Render()
		}
		return strings.Join(parts, ";")
	}
	var parts []string
	for _, tok := range strings.Split(cmd, ";") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		oid, err := snmp.ParseOID(tok)
		if err != nil {
			parts = append(parts, tok+"=error:"+err.Error())
			continue
		}
		v, err := agent.Get(community, oid)
		if err != nil {
			parts = append(parts, tok+"=error:"+err.Error())
			continue
		}
		parts = append(parts, tok+"="+v.Render())
	}
	return strings.Join(parts, ";")
}

// NMNaplet is the network-management naplet of §6.2.
type NMNaplet struct{}

// OnStart is the naplet's single entry point at each device: it opens the
// NetManagement service channel, passes its parameters through the
// NapletWriter, reads the results from the NapletReader, and stores them
// under this device's DeviceStatus state entry.
func (n *NMNaplet) OnStart(ctx *naplet.Context) error {
	var params []string
	if err := ctx.State().Load(paramsKey, &params); err != nil {
		return fmt.Errorf("man: naplet has no parameters: %w", err)
	}
	ch, err := ctx.Services.OpenChannel(ServiceName)
	if err != nil {
		return err
	}
	defer ch.Close()
	if err := ch.WriteLine(strings.Join(params, ";")); err != nil {
		return err
	}
	line, err := ch.ReadLine()
	if err != nil {
		return err
	}

	// A device visited twice adds to what it reported before.
	key := statusPrefix + ctx.Server
	status := make(map[string]string)
	if err := ctx.State().Load(key, &status); err != nil && !errors.Is(err, state.ErrNoSuchKey) {
		return err
	}
	for _, pair := range strings.Split(line, ";") {
		if k, v, ok := strings.Cut(pair, "="); ok {
			status[k] = v
		}
	}
	return ctx.State().SetProtected(key, status, ctx.Record.Home)
}

// reportPayload is the wire form of a naplet's status report:
//
//	[version] [map[string]string status] [[]string route]
//
// Status is flat, keyed "<device>|<oid>"; the map codec's front coding is
// what keeps a device's name and an OID's leading arcs from travelling once
// per variable.
type reportPayload struct {
	Status map[string]string
	Route  []string
}

// reportCodecVersion is the leading version byte of both report payloads.
// Version 2 front-codes the map keys.
const reportCodecVersion = 2

func (p *reportPayload) AppendBinary(dst []byte) []byte {
	dst = wire.AppendStringMap(append(dst, reportCodecVersion), p.Status)
	return wire.AppendStrings(dst, p.Route)
}

func (p *reportPayload) decode(body []byte) error {
	rest, err := wire.DecVersion(body, reportCodecVersion)
	if err != nil {
		return err
	}
	if p.Status, rest, err = wire.DecStringMap(rest); err != nil {
		return err
	}
	p.Route, _, err = wire.DecStrings(rest)
	return err
}

// resultReport is the ResultReport post-action of §6.2: report the
// gathered DeviceStatus back home through the listener.
func resultReport(ctx *naplet.Context) error {
	status := make(map[string]string)
	for _, key := range ctx.State().Keys() {
		dev, ok := strings.CutPrefix(key, statusPrefix)
		if !ok {
			continue
		}
		var vals map[string]string
		if err := ctx.State().Load(key, &vals); err != nil {
			return err
		}
		for oid, v := range vals {
			status[dev+"|"+oid] = v
		}
	}
	report := reportPayload{Status: status, Route: ctx.Log().Route()}
	rctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return ctx.Listener.Report(rctx, wire.EncodeBody(&report))
}

// RegisterCodebase installs the NMNaplet codebase in a registry.
// bundleSize models the agent's code bundle (0 = registry default).
func RegisterCodebase(reg *registry.Registry, bundleSize int) error {
	return reg.Register(&registry.Codebase{
		Name:       CodebaseName,
		New:        func() naplet.Behavior { return &NMNaplet{} },
		BundleSize: bundleSize,
		Actions: map[string]registry.ActionFunc{
			"ResultReport": resultReport,
		},
	})
}

// Report holds collected values: device → OID string → rendered value.
type Report map[string]map[string]string

// DecodeReport decodes one naplet report payload into the nested
// device -> OID -> value form plus the reporting agent's route. Management
// tools use it to render raw listener bytes.
func DecodeReport(body []byte) (Report, []string, error) {
	var payload reportPayload
	if err := payload.decode(body); err != nil {
		return nil, nil, err
	}
	out := make(Report)
	for k, v := range payload.Status {
		dev, oid, ok := strings.Cut(k, "|")
		if !ok {
			continue
		}
		if out[dev] == nil {
			out[dev] = make(map[string]string)
		}
		out[dev][oid] = v
	}
	return out, payload.Route, nil
}

// merge folds src into dst.
func (r Report) merge(src Report) {
	for dev, vals := range src {
		if r[dev] == nil {
			r[dev] = make(map[string]string)
		}
		for k, v := range vals {
			r[dev][k] = v
		}
	}
}

// Stats summarizes one MAN collection run.
type Stats struct {
	// Agents is the number of naplets that travelled (1 + clones).
	Agents int
	// Reports is the number of result reports received.
	Reports int
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
}

// SequentialPattern builds the §6 sequential tour: one agent visits every
// device and reports after the last visit (§3 Example 1).
func SequentialPattern(devices []string) *itinerary.Pattern {
	subs := make([]*itinerary.Pattern, len(devices))
	for i, d := range devices {
		v := itinerary.Visit{Server: d}
		if i == len(devices)-1 {
			v.Action = "ResultReport"
		}
		subs[i] = itinerary.Singleton(v)
	}
	return itinerary.Seq(subs...)
}

// BroadcastPattern builds the §6.2 NMItinerary: a parallel pattern where
// every device is visited by its own clone and each reports individually
// (§3 Example 2).
func BroadcastPattern(devices []string) *itinerary.Pattern {
	subs := make([]*itinerary.Pattern, len(devices))
	for i, d := range devices {
		subs[i] = itinerary.Singleton(itinerary.Visit{Server: d, Action: "ResultReport"})
	}
	return itinerary.Par(subs...)
}

// OIDStrings renders an OID list for the naplet's parameter state.
func OIDStrings(oids []snmp.OID) []string {
	out := make([]string, len(oids))
	for i, o := range oids {
		out[i] = o.String()
	}
	return out
}

// SortedDevices returns the report's device names, sorted (stable output
// for tables).
func (r Report) SortedDevices() []string {
	out := make([]string, 0, len(r))
	for d := range r {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// parseReports folds a set of listener results into one report.
func parseReports(results []manager.Result) (Report, [][]string, error) {
	out := make(Report)
	var routes [][]string
	for _, r := range results {
		rep, route, err := DecodeReport(r.Body)
		if err != nil {
			return nil, nil, err
		}
		out.merge(rep)
		routes = append(routes, route)
	}
	return out, routes, nil
}
