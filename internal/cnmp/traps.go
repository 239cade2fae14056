package cnmp

import (
	"context"
	"sync"

	"repro/internal/snmp"
	"repro/internal/wire"
)

// TrapBody is the wire body of one trap notification. Conventional SNMP
// sends one PDU per trap; the forwarder mirrors that, one frame per trap.
type TrapBody struct {
	Trap snmp.Trap
}

// ForwardTraps drains the device's pending notifications and forwards each
// to the management station, the centralized trap path: every event —
// significant or noise — crosses the network.
func (r *Responder) ForwardTraps(ctx context.Context, station string) (int, error) {
	traps := r.device.TakeTraps()
	for _, tr := range traps {
		f := wire.BinaryFrame(wire.KindSNMPTrap, "", "", &TrapBody{Trap: tr})
		if _, err := r.node.Call(ctx, station, f); err != nil {
			return 0, err
		}
	}
	return len(traps), nil
}

// trapSink collects traps received by a station.
type trapSink struct {
	mu    sync.Mutex
	traps []snmp.Trap
}

func (s *trapSink) add(tr snmp.Trap) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traps = append(s.traps, tr)
}

// Traps returns a copy of every trap the station has received.
func (s *Station) Traps() []snmp.Trap {
	s.sink.mu.Lock()
	defer s.sink.mu.Unlock()
	return append([]snmp.Trap(nil), s.sink.traps...)
}

// SignificantTraps returns the received traps a manager must act on.
func (s *Station) SignificantTraps() []snmp.Trap {
	var out []snmp.Trap
	for _, tr := range s.Traps() {
		if tr.Kind.Significant() {
			out = append(out, tr)
		}
	}
	return out
}

// handleTrap stores an inbound trap notification. SNMP traps are
// unacknowledged UDP in reality; the fabric is request/reply, so the ack is
// an empty-payload frame whose header bytes are part of the modelled cost.
func (s *Station) handleTrap(f wire.Frame) (wire.Frame, error) {
	var body TrapBody
	if err := body.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	s.sink.add(body.Trap)
	return wire.Frame{Kind: wire.KindSNMPTrap, From: f.To, To: f.From}, nil
}
