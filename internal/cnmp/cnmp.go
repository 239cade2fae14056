// Package cnmp implements the conventional, centralized SNMP network
// management baseline of §6: "a management station communicates to the
// SNMP agents via a number of fine-grained get and set operations for MIB
// parameters. This centralized micro-management approach for large
// networks tends to generate heavy traffic between the management station
// and network devices and excessive computational overhead on the
// management station."
//
// The station polls every device over the network, one request per MIB
// variable in micro-management mode (the paper's characterization) or one
// batched request per device in the optimized-baseline ablation. Each
// device runs a Responder: its SNMP daemon attached to the fabric.
package cnmp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/snmp"
	"repro/internal/transport"
	"repro/internal/wire"
)

// RequestBody is the wire body of a wire.KindSNMPRequest frame.
type RequestBody struct {
	Community string
	Op        snmp.PDUOp
	OIDs      []string
	// SetValues carries the values of an OpSet, parallel to OIDs.
	SetValues []string
}

// ReplyBody is the wire body of a wire.KindSNMPReply frame.
type ReplyBody struct {
	OIDs   []string
	Values []string
	Err    string
}

// Responder is one device's SNMP daemon on the fabric.
type Responder struct {
	device *snmp.Device
	node   transport.Node
}

// AttachResponder exposes a device's SNMP agent at addr.
func AttachResponder(fabric transport.Fabric, addr string, dev *snmp.Device) (*Responder, error) {
	r := &Responder{device: dev}
	node, err := fabric.Attach(addr, r.handle)
	if err != nil {
		return nil, err
	}
	r.node = node
	return r, nil
}

// Addr is the responder's resolved fabric address.
func (r *Responder) Addr() string { return r.node.Addr() }

// Close detaches the responder.
func (r *Responder) Close() error { return r.node.Close() }

func (r *Responder) handle(from string, f wire.Frame) (wire.Frame, error) {
	if f.Kind != wire.KindSNMPRequest {
		return wire.Frame{}, fmt.Errorf("cnmp: unexpected kind %q", f.Kind)
	}
	var body RequestBody
	if err := body.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	req := snmp.Request{Community: body.Community, Op: body.Op}
	for i, s := range body.OIDs {
		oid, err := snmp.ParseOID(s)
		if err != nil {
			return wire.BinaryFrame(wire.KindSNMPReply, f.To, f.From, &ReplyBody{Err: err.Error()}), nil
		}
		vb := snmp.VarBind{OID: oid}
		if body.Op == snmp.OpSet && i < len(body.SetValues) {
			vb.Value = snmp.StringValue(body.SetValues[i])
		}
		req.Bindings = append(req.Bindings, vb)
	}
	resp := r.device.Agent.Serve(req)
	reply := ReplyBody{Err: resp.Err}
	for _, b := range resp.Bindings {
		reply.OIDs = append(reply.OIDs, b.OID.String())
		reply.Values = append(reply.Values, b.Value.Render())
	}
	return wire.BinaryFrame(wire.KindSNMPReply, f.To, f.From, &reply), nil
}

// Stats summarizes one collection run.
type Stats struct {
	// Requests is the number of request/reply round trips performed.
	Requests int64
	// Errors counts failed round trips.
	Errors int64
	// Elapsed is the wall time of the run (scale by the fabric's
	// TimeScale for modeled time).
	Elapsed time.Duration
}

// Options configure a collection run.
type Options struct {
	// Concurrency bounds simultaneous device polls; ≤1 means strictly
	// sequential (the classic management station loop).
	Concurrency int
	// Batch sends one request carrying all variables per device instead
	// of one request per variable. False reproduces the paper's
	// micro-management characterization.
	Batch bool
	// Community is the read community (default "public").
	Community string
}

// Report holds collected values: device → OID string → rendered value.
type Report map[string]map[string]string

// Station is the centralized management station.
type Station struct {
	node transport.Node
	sink trapSink
}

// NewStation attaches the management station at addr. The station answers
// only trap notifications; every other inbound frame is an error.
func NewStation(fabric transport.Fabric, addr string) (*Station, error) {
	s := &Station{}
	node, err := fabric.Attach(addr, func(from string, f wire.Frame) (wire.Frame, error) {
		if f.Kind == wire.KindSNMPTrap {
			return s.handleTrap(f)
		}
		return wire.Frame{}, errors.New("cnmp: station serves no requests")
	})
	if err != nil {
		return nil, err
	}
	s.node = node
	return s, nil
}

// Node returns the station's fabric node.
func (s *Station) Node() transport.Node { return s.node }

// Close detaches the station.
func (s *Station) Close() error { return s.node.Close() }

// get performs one SNMP round trip to a device responder.
func (s *Station) get(ctx context.Context, device, community string, oids []string) ([]string, []string, error) {
	body := RequestBody{Community: community, Op: snmp.OpGet, OIDs: oids}
	reply, err := s.node.Call(ctx, device, wire.BinaryFrame(wire.KindSNMPRequest, "", "", &body))
	if err != nil {
		return nil, nil, err
	}
	var rb ReplyBody
	if err := rb.Decode(reply.Payload); err != nil {
		return nil, nil, err
	}
	if rb.Err != "" {
		return nil, nil, errors.New(rb.Err)
	}
	return rb.OIDs, rb.Values, nil
}

// Get retrieves the named variables from one device, one round trip per
// variable (micro-management) or one batched round trip.
func (s *Station) Get(ctx context.Context, device string, oids []snmp.OID, opts Options) (map[string]string, Stats, error) {
	if opts.Community == "" {
		opts.Community = "public"
	}
	out := make(map[string]string, len(oids))
	var st Stats
	start := time.Now()
	defer func() { st.Elapsed = time.Since(start) }()

	if opts.Batch {
		names := make([]string, len(oids))
		for i, o := range oids {
			names[i] = o.String()
		}
		st.Requests++
		rois, vals, err := s.get(ctx, device, opts.Community, names)
		if err != nil {
			st.Errors++
			return nil, st, err
		}
		for i := range rois {
			out[rois[i]] = vals[i]
		}
		return out, st, nil
	}
	for _, o := range oids {
		st.Requests++
		rois, vals, err := s.get(ctx, device, opts.Community, []string{o.String()})
		if err != nil {
			st.Errors++
			return nil, st, err
		}
		out[rois[0]] = vals[0]
	}
	return out, st, nil
}

// Collect polls every device for every variable, the station's management
// sweep. It returns per-device results and aggregate statistics.
func (s *Station) Collect(ctx context.Context, devices []string, oids []snmp.OID, opts Options) (Report, Stats, error) {
	report := make(Report, len(devices))
	var total Stats
	start := time.Now()
	defer func() { total.Elapsed = time.Since(start) }()

	conc := opts.Concurrency
	if conc <= 1 {
		for _, d := range devices {
			vals, st, err := s.Get(ctx, d, oids, opts)
			total.Requests += st.Requests
			total.Errors += st.Errors
			if err != nil {
				return report, total, fmt.Errorf("cnmp: device %s: %w", d, err)
			}
			report[d] = vals
		}
		return report, total, nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		sem      = make(chan struct{}, conc)
		wg       sync.WaitGroup
	)
	for _, d := range devices {
		wg.Add(1)
		go func(d string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			vals, st, err := s.Get(ctx, d, oids, opts)
			mu.Lock()
			defer mu.Unlock()
			total.Requests += st.Requests
			total.Errors += st.Errors
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("cnmp: device %s: %w", d, err)
				}
				return
			}
			report[d] = vals
		}(d)
	}
	wg.Wait()
	return report, total, firstErr
}
