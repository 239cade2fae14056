package snmp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrBadCommunity reports a community-string mismatch.
var ErrBadCommunity = errors.New("snmp: bad community")

// PDUOp is an SNMP protocol operation.
type PDUOp int

// Protocol operations (the SNMPv1 subset the paper's CNMP uses).
const (
	OpGet PDUOp = iota
	OpGetNext
	OpSet
)

// String returns the operation name.
func (op PDUOp) String() string {
	switch op {
	case OpGet:
		return "get"
	case OpGetNext:
		return "get-next"
	case OpSet:
		return "set"
	default:
		return fmt.Sprintf("PDUOp(%d)", int(op))
	}
}

// VarBind is one OID/value pair in a PDU.
type VarBind struct {
	OID   OID
	Value Value
}

// Request is an SNMP request PDU.
type Request struct {
	Community string
	Op        PDUOp
	Bindings  []VarBind
}

// Response is an SNMP response PDU.
type Response struct {
	Bindings []VarBind
	// Err carries noSuchName / endOfMIB / badCommunity textually (errors
	// must serialize for the CNMP wire path).
	Err string
}

// Agent is the SNMP daemon of one managed device: it owns the device MIB
// and answers protocol requests after a community check. The paper's MAN
// framework accesses it locally through the NetManagement privileged
// service; the CNMP baseline accesses it remotely over the fabric.
type Agent struct {
	mib       *MIB
	community string
}

// NewAgent builds an agent over a MIB with the given read community.
func NewAgent(mib *MIB, community string) *Agent {
	return &Agent{mib: mib, community: community}
}

// MIB exposes the agent's MIB (device-side instrumentation).
func (a *Agent) MIB() *MIB { return a.mib }

// Serve answers one request PDU.
func (a *Agent) Serve(req Request) Response {
	if req.Community != a.community {
		return Response{Err: ErrBadCommunity.Error()}
	}
	out := Response{Bindings: make([]VarBind, 0, len(req.Bindings))}
	for _, b := range req.Bindings {
		switch req.Op {
		case OpGet:
			v, err := a.mib.Get(b.OID)
			if err != nil {
				return Response{Err: err.Error()}
			}
			out.Bindings = append(out.Bindings, VarBind{OID: b.OID.Clone(), Value: v})
		case OpGetNext:
			next, v, err := a.mib.Next(b.OID)
			if err != nil {
				return Response{Err: err.Error()}
			}
			out.Bindings = append(out.Bindings, VarBind{OID: next, Value: v})
		case OpSet:
			if err := a.mib.Set(b.OID, b.Value); err != nil {
				return Response{Err: err.Error()}
			}
			out.Bindings = append(out.Bindings, b)
		default:
			return Response{Err: fmt.Sprintf("snmp: bad op %d", req.Op)}
		}
	}
	return out
}

// Get is the single-variable form local services use: Serve's community
// check and MIB lookup without a PDU, so a get allocates nothing.
func (a *Agent) Get(community string, oid OID) (Value, error) {
	if community != a.community {
		return Value{}, ErrBadCommunity
	}
	return a.mib.Get(oid)
}

// WalkSubtree collects all bindings under root (a local agent-side walk).
func (a *Agent) WalkSubtree(community string, root OID) ([]VarBind, error) {
	if community != a.community {
		return nil, ErrBadCommunity
	}
	var out []VarBind
	err := a.mib.Walk(root, func(oid OID, v Value) error {
		out = append(out, VarBind{OID: oid, Value: v})
		return nil
	})
	return out, err
}

// Device is one simulated managed device: a named host with an RFC1213-ish
// MIB, an SNMP agent, and a synthetic workload that evolves its counters.
type Device struct {
	Name  string
	Agent *Agent

	mu     sync.Mutex
	rng    *rand.Rand
	ifaces int
	uptime time.Duration

	trapsBuf trapBuffer
}

// DeviceConfig parameterizes a simulated device.
type DeviceConfig struct {
	// Name is the device host name.
	Name string
	// Interfaces is the interface count (default 4).
	Interfaces int
	// Community is the read community (default "public").
	Community string
	// Seed seeds the device's workload process.
	Seed int64
	// ExtraVars adds this many synthetic scalar objects under the
	// enterprise subtree, letting experiments scale per-device MIB size.
	ExtraVars int
}

// Interface table column bases under OIDIfTable.
const (
	colIfIndex      = 1
	colIfDescr      = 2
	colIfSpeed      = 5
	colIfInOctets   = 10
	colIfOutOctets  = 16
	colIfOperStatus = 8
)

// enterpriseBase roots the synthetic scalar objects (1.3.6.1.4.1.9999).
var enterpriseBase = MustParseOID("1.3.6.1.4.1.9999.1")

// NewDevice builds a managed device with a populated MIB.
func NewDevice(cfg DeviceConfig) *Device {
	if cfg.Interfaces <= 0 {
		cfg.Interfaces = 4
	}
	if cfg.Community == "" {
		cfg.Community = "public"
	}
	mib := NewMIB()
	mib.Define(OIDSysDescr, StringValue("Naplet simulated router "+cfg.Name), true)
	mib.Define(OIDSysUpTime, TimeTicksValue(0), true)
	mib.Define(MustParseOID("1.3.6.1.2.1.1.4.0"), StringValue("czxu@ece.eng.wayne.edu"), false)
	mib.Define(OIDSysName, StringValue(cfg.Name), false)
	mib.Define(MustParseOID("1.3.6.1.2.1.1.6.0"), StringValue("simulated naplet space"), false)
	mib.Define(OIDIfNumber, IntValue(int64(cfg.Interfaces)), true)
	for i := 1; i <= cfg.Interfaces; i++ {
		mib.Define(OIDIfTable.Append(colIfIndex, i), IntValue(int64(i)), true)
		mib.Define(OIDIfTable.Append(colIfDescr, i), StringValue(fmt.Sprintf("eth%d", i-1)), true)
		mib.Define(OIDIfTable.Append(colIfSpeed, i), GaugeValue(1e9), true)
		mib.Define(OIDIfTable.Append(colIfInOctets, i), CounterValue(0), true)
		mib.Define(OIDIfTable.Append(colIfOutOctets, i), CounterValue(0), true)
		mib.Define(OIDIfTable.Append(colIfOperStatus, i), IntValue(1), true)
	}
	mib.Define(OIDIP.Append(1, 0), IntValue(1), false)    // ipForwarding
	mib.Define(OIDIP.Append(3, 0), CounterValue(0), true) // ipInReceives
	for i := 0; i < cfg.ExtraVars; i++ {
		mib.Define(enterpriseBase.Append(i, 0), CounterValue(int64(i)), true)
	}
	return &Device{
		Name:   cfg.Name,
		Agent:  NewAgent(mib, cfg.Community),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		ifaces: cfg.Interfaces,
	}
}

// ExtraVarOID returns the OID of the i-th synthetic scalar, for parameter
// sweeps over per-device variable counts.
func ExtraVarOID(i int) OID { return enterpriseBase.Append(i, 0) }

// Tick advances the device's synthetic workload by dt: uptime ticks,
// interface counters grow with random traffic, and interfaces occasionally
// flap.
func (d *Device) Tick(dt time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.uptime += dt
	mib := d.Agent.MIB()
	mib.ForceSet(OIDSysUpTime, TimeTicksValue(int64(d.uptime/(10*time.Millisecond)))) // ticks are 1/100 s
	for i := 1; i <= d.ifaces; i++ {
		in := d.rng.Int63n(1 << 20)
		out := d.rng.Int63n(1 << 20)
		mib.Adjust(OIDIfTable.Append(colIfInOctets, i), in)
		mib.Adjust(OIDIfTable.Append(colIfOutOctets, i), out)
		if d.rng.Float64() < 0.01 { // rare flap
			cur, _ := mib.Get(OIDIfTable.Append(colIfOperStatus, i))
			next := int64(1)
			if cur.Int == 1 {
				next = 2
			}
			mib.Adjust(OIDIfTable.Append(colIfOperStatus, i), next-cur.Int)
		}
	}
	mib.Adjust(OIDIP.Append(3, 0), d.rng.Int63n(1<<16))
}
