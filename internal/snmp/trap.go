package snmp

import (
	"fmt"
	"sync"
	"time"
)

// TrapKind classifies asynchronous device notifications (SNMPv1 trap
// generic types, pragmatically reduced).
type TrapKind int

// Trap kinds.
const (
	// TrapLinkDown signals an interface going down — a significant event
	// a manager must act on.
	TrapLinkDown TrapKind = iota
	// TrapLinkUp signals recovery.
	TrapLinkUp
	// TrapThreshold signals a counter crossing a soft threshold — noisy,
	// rarely actionable.
	TrapThreshold
	// TrapHeartbeat is periodic device chatter — pure noise.
	TrapHeartbeat
)

// String returns the trap name.
func (k TrapKind) String() string {
	switch k {
	case TrapLinkDown:
		return "linkDown"
	case TrapLinkUp:
		return "linkUp"
	case TrapThreshold:
		return "threshold"
	case TrapHeartbeat:
		return "heartbeat"
	default:
		return fmt.Sprintf("TrapKind(%d)", int(k))
	}
}

// Significant reports whether a manager must be told about this trap
// promptly (the on-site filtering criterion).
func (k TrapKind) Significant() bool {
	return k == TrapLinkDown || k == TrapLinkUp
}

// Trap is one asynchronous device notification.
type Trap struct {
	// Device is the emitting device's name.
	Device string
	// Kind classifies the event.
	Kind TrapKind
	// Seq orders traps within a device.
	Seq int
	// Round is the workload round that produced the trap.
	Round int
	// Detail is the human-readable payload (e.g. "eth2 down").
	Detail string
}

// String renders the trap compactly.
func (t Trap) String() string {
	return fmt.Sprintf("%s#%d %s: %s", t.Device, t.Seq, t.Kind, t.Detail)
}

// trapBuffer accumulates a device's pending notifications.
type trapBuffer struct {
	mu     sync.Mutex
	traps  []Trap
	seq    int
	round  int
	total  int
	signif int
}

// emit appends a trap; the caller holds b.mu.
func (b *trapBuffer) emit(device string, kind TrapKind, detail string) {
	b.seq++
	b.total++
	if kind.Significant() {
		b.signif++
	}
	b.traps = append(b.traps, Trap{
		Device: device, Kind: kind, Seq: b.seq, Round: b.round, Detail: detail,
	})
}

// TakeTraps drains and returns the device's pending notifications. The
// centralized manager's forwarder and the on-site monitoring naplet both
// consume this stream (each experiment uses its own device set, so the
// stream has one consumer).
func (d *Device) TakeTraps() []Trap {
	d.trapsBuf.mu.Lock()
	defer d.trapsBuf.mu.Unlock()
	out := d.trapsBuf.traps
	d.trapsBuf.traps = nil
	return out
}

// TrapRound reports the latest completed workload round.
func (d *Device) TrapRound() int {
	d.trapsBuf.mu.Lock()
	defer d.trapsBuf.mu.Unlock()
	return d.trapsBuf.round
}

// TrapTotals reports lifetime (total, significant) trap counts.
func (d *Device) TrapTotals() (total, significant int) {
	d.trapsBuf.mu.Lock()
	defer d.trapsBuf.mu.Unlock()
	return d.trapsBuf.total, d.trapsBuf.signif
}

// TickEvents advances the workload one round and emits the round's traps:
// a heartbeat every round, frequent threshold noise, and occasional
// significant link flaps. The mix is deterministic under the device seed.
func (d *Device) TickEvents(dt time.Duration) {
	d.Tick(dt)
	d.mu.Lock()
	rng := d.rng
	name := d.Name
	ifaces := d.ifaces
	d.mu.Unlock()

	// One critical section per round: a reader that sees the round sees
	// every trap it produced (TrapRound's "completed").
	d.trapsBuf.mu.Lock()
	defer d.trapsBuf.mu.Unlock()
	d.trapsBuf.round++
	d.trapsBuf.emit(name, TrapHeartbeat, "alive")
	// Threshold noise: ~2 per round on a busy device.
	for i := 0; i < ifaces; i++ {
		if rng.Float64() < 0.5 {
			d.trapsBuf.emit(name, TrapThreshold, fmt.Sprintf("eth%d util high", i))
		}
	}
	// Significant flaps: rare.
	if rng.Float64() < 0.08 {
		iface := rng.Intn(ifaces)
		d.trapsBuf.emit(name, TrapLinkDown, fmt.Sprintf("eth%d down", iface))
		if rng.Float64() < 0.5 {
			d.trapsBuf.emit(name, TrapLinkUp, fmt.Sprintf("eth%d up", iface))
		}
	}
}
