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
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/itinerary"
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
// device: a run loop bound to the device's local SNMP agent. The loop keeps
// nothing between lines or channels — every query reads the agent afresh
// and all it holds is the device and community — so it is built once and
// every channel runs the same value; the factory still runs per channel.
func NewNetManagementService(dev *snmp.Device, community string) resource.Factory {
	svc := resource.ServiceFunc(func(ch *resource.ServerEnd) {
		for {
			cmd, err := ch.ReadLine()
			if err != nil {
				return // channel closed
			}
			ch.WriteLine(retrieve(dev.Agent, community, cmd))
		}
	})
	return func() resource.PrivilegedService { return svc }
}

// retrieve mirrors the paper's private retrieve() method: tokenize the
// parameter list, issue a get per parameter against the local agent, and
// assemble the reply line. "walk <root>" walks a subtree. Each OID is
// parsed onto the stack and the line is assembled in one buffer, so a
// query allocates its reply, not a string per variable.
func retrieve(agent *snmp.Agent, community, cmd string) string {
	reply := make([]byte, 0, 1024)
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
		for _, b := range bindings {
			reply = b.Value.AppendRender(appendKey(reply, b.OID.String()))
		}
		return string(reply)
	}
	for rest := cmd; rest != ""; {
		var tok string
		tok, rest, _ = strings.Cut(rest, ";")
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		reply = appendKey(reply, tok)
		oid, err := snmp.AppendParseOID(make(snmp.OID, 0, 32), tok)
		var v snmp.Value
		if err == nil {
			v, err = agent.Get(community, oid)
		}
		if err != nil {
			reply = append(append(reply, "error:"...), err.Error()...)
			continue
		}
		reply = v.AppendRender(reply)
	}
	return string(reply)
}

// appendKey starts a reply pair "key=", after a ";" unless it is the first.
func appendKey(reply []byte, key string) []byte {
	if len(reply) > 0 {
		reply = append(reply, ';')
	}
	return append(append(reply, key...), '=')
}

// NMNaplet is the network-management naplet of §6.2.
type NMNaplet struct{}

// OnStart is the naplet's single entry point at each device: it opens the
// NetManagement service channel, passes its parameters through the
// NapletWriter, reads the results from the NapletReader, and stores them
// under this device's DeviceStatus state entry.
func (n *NMNaplet) OnStart(ctx *naplet.Context) error {
	// The parameter list is joined into the query line where it lies.
	params, err := ctx.State().WalkStrings(paramsKey)
	if err != nil {
		return fmt.Errorf("man: naplet has no parameters: %w", err)
	}
	var buf [1024]byte
	query := buf[:0]
	for i := 0; params.Next(); i++ {
		if i > 0 {
			query = append(query, ';')
		}
		query = append(query, params.Value()...)
	}
	ch, err := ctx.Services.OpenChannel(ServiceName)
	if err != nil {
		return err
	}
	defer ch.Close()
	if err := ch.WriteLine(string(query)); err != nil {
		return err
	}
	line, err := ch.ReadLine()
	if err != nil {
		return err
	}

	// A revisit's earlier pairs go first, so the new reply wins.
	key := statusPrefix + ctx.Server
	var stack [64][2]string
	pairs := stack[:0]
	if ctx.State().Has(key) {
		old, err := ctx.State().WalkStringMap(key)
		if err != nil {
			return err
		}
		for old.Next() {
			pairs = append(pairs, [2]string{string(old.AppendKey(nil)), string(old.Value())})
		}
	}
	for rest := line; rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, ";")
		if k, v, ok := strings.Cut(pair, "="); ok {
			pairs = append(pairs, [2]string{k, v})
		}
	}
	ctx.State().SetStringMap(key, pairs, state.Protected, ctx.Record.Home)
	return nil
}

// reportPayload is the wire form of a naplet's status report:
//
//	[version] [map[string]string status] [[]string route]
//
// Status travels flat, keyed "<device>|<oid>"; the map codec's front coding
// is what keeps a device's name and an OID's leading arcs from travelling
// once per variable. The naplet splices the flat map from its state
// (encodeReport) and the station reads it into the nested form directly: a
// flat key exists only in a scratch buffer.
type reportPayload struct {
	Status Report
	Route  []string
}

// reportCodecVersion is the leading version byte of both report payloads.
// Version 2 front-codes the map keys.
const reportCodecVersion = 2

// decode reads body into p.Status, adding to the devices it already holds,
// and p.Route. It accepts and rejects what wire.DecStringMap does; a key
// without a "|" is skipped. Every value is a substring of one string copy
// of the body, so none aliases body and all of them cost one allocation;
// the devices of one body share their OID strings, and a new device's map
// is sized by the entries read since the last one began — a sweep asks
// each device the same — so what it reserves never exceeds what it has
// read.
func (p *reportPayload) decode(body []byte) error {
	rest, err := wire.DecVersion(body, reportCodecVersion)
	if err != nil {
		return err
	}
	n, rest, err := wire.DecCount(rest, 3) // as wire.DecMap
	if err != nil {
		return err
	}
	var (
		text    = string(body)
		keys    wire.MapKeys
		scratch [128]byte
		intern  = make(map[string]string)
		since   int
	)
	for i := 0; i < n; i++ {
		var raw []byte
		if rest, err = keys.Next(rest); err == nil {
			raw, rest, err = wire.DecBytes(rest)
		}
		if err != nil {
			return err
		}
		end := len(body) - len(rest)
		v := text[end-len(raw) : end]
		dev, oid, ok := bytes.Cut(keys.Append(scratch[:0]), []byte("|"))
		if !ok {
			continue
		}
		vals := p.Status[string(dev)]
		if vals == nil {
			vals = make(map[string]string, since)
			p.Status[string(dev)], since = vals, 0
		}
		since++
		o, seen := intern[string(oid)]
		if !seen {
			o = string(oid)
			intern[o] = o
		}
		vals[o] = v
	}
	p.Route, _, err = wire.DecStrings(rest)
	return err
}

// resultReport is the ResultReport post-action of §6.2: report the
// gathered DeviceStatus back home through the listener.
func resultReport(ctx *naplet.Context) error {
	body, err := encodeReport(ctx.State(), ctx.Log().Route())
	if err != nil {
		return err
	}
	rctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return ctx.Listener.Report(rctx, body)
}

// encodeReport writes the report body from st's DeviceStatus entries where
// they lie: each device's encoded map is spliced under its "<device>|"
// prefix, so the body is what wire.AppendStringMap writes for the flat
// map, and no device's map is decoded. An entry that is not a
// map[string]string fails the report, as loading it would.
func encodeReport(st *state.State, route []string) ([]byte, error) {
	keys := st.KeysWithPrefix(statusPrefix)
	// Devices in the order of name+"|" — "|" ends a name, so that is the
	// order of their flat keys: "dev10|" before "dev1|".
	slices.SortFunc(keys, func(a, b string) int { return compareDevices(a[len(statusPrefix):], b[len(statusPrefix):]) })
	r := splicedReport{keys: keys, walks: make([]state.Walk, len(keys)), route: route}
	for i, key := range keys {
		w, err := st.WalkStringMap(key)
		if err != nil {
			return nil, err
		}
		r.walks[i] = w
		r.n += w.Len()
	}
	return wire.EncodeBody(&r), nil
}

// compareDevices orders device names as a+"|" and b+"|" sort.
func compareDevices(a, b string) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 || len(a) == len(b) {
		return c
	}
	if len(a) < len(b) {
		return cmp.Compare('|', b[n])
	}
	return cmp.Compare(a[n], '|')
}

// splicedReport is a report body whose device maps are still encoded in
// the naplet's state.
type splicedReport struct {
	keys  []string     // DeviceStatus keys, devices in name+"|" order
	walks []state.Walk // their maps, checked
	n     int          // entries over all of them
	route []string
}

// AppendBinary writes each device's entries under its "<device>|" prefix,
// every key front-coded against the one before it in one of two stack
// buffers.
func (r *splicedReport) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(append(dst, reportCodecVersion), uint64(r.n))
	var bufs [2][128]byte
	prev, key := bufs[0][:0], bufs[1][:0]
	for i := range r.walks {
		dev, w := r.keys[i][len(statusPrefix):], &r.walks[i]
		for w.Next() {
			key = w.AppendKey(append(append(key[:0], dev...), '|'))
			dst = wire.AppendBytes(wire.AppendMapKey(dst, prev, key), w.Value())
			prev, key = key, prev
		}
	}
	return wire.AppendStrings(dst, r.route)
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
	p := reportPayload{Status: make(Report)}
	if err := p.decode(body); err != nil {
		return nil, nil, err
	}
	return p.Status, p.Route, nil
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
