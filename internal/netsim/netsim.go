// Package netsim is a simulated network fabric for the naplet system.
//
// The paper's quantitative claims (mobile agents reduce network load and
// overcome network latency relative to centralized client/server management)
// are functions of link latency, bandwidth, and the number and size of
// messages exchanged. netsim models exactly those quantities: every frame
// sent through the fabric is charged a modeled delay of
//
//	latency + encodedSize/bandwidth
//
// per direction, every byte is counted per host and per link, and losses and
// partitions can be injected. A TimeScale factor lets experiments model slow
// WAN links while sleeping only a fraction of the modeled time; all reported
// delays are in modeled time.
//
// netsim implements transport.Fabric as a mover: a host's Link carries the
// request and the reply legs, and transport's call and serve paths do the
// rest, so the full naplet protocol stack runs over it unchanged.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Link describes one directed link's characteristics.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is the link rate in bytes per second; 0 means infinite.
	Bandwidth float64
	// Loss is the probability in [0,1) that a frame is dropped.
	Loss float64
}

// Transit returns the modeled one-way transit time of a frame of the given
// encoded size.
func (l Link) Transit(size int) time.Duration {
	d := l.Latency
	if l.Bandwidth > 0 {
		d += time.Duration(float64(size) / l.Bandwidth * float64(time.Second))
	}
	return d
}

// Common link presets: the MAN testbed, loadgen, the examples and the
// benchmark model their links with these.
var (
	// LAN models a switched local network: 0.2 ms, 100 MB/s.
	LAN = Link{Latency: 200 * time.Microsecond, Bandwidth: 100e6}
	// WAN models a wide-area path: 20 ms, 1 MB/s.
	WAN = Link{Latency: 20 * time.Millisecond, Bandwidth: 1e6}
	// Loopback models in-host delivery: 10 µs, infinite bandwidth.
	Loopback = Link{Latency: 10 * time.Microsecond}
)

// Stats aggregates traffic counters for one host.
type Stats struct {
	FramesSent int64
	FramesRecv int64
	BytesSent  int64
	BytesRecv  int64
	// Dropped counts frames lost in transit (sender side).
	Dropped int64
	// ModeledDelay accumulates the modeled transit time of all frames sent.
	ModeledDelay time.Duration
}

// add merges two stats; used when aggregating host stats into totals.
func (s *Stats) add(o Stats) {
	s.FramesSent += o.FramesSent
	s.FramesRecv += o.FramesRecv
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.Dropped += o.Dropped
	s.ModeledDelay += o.ModeledDelay
}

// Config parameterizes a simulated network.
type Config struct {
	// DefaultLink applies to every host pair without an override.
	DefaultLink Link
	// TimeScale divides all real sleeps: a modeled delay d sleeps d/TimeScale.
	// 0 or negative means "do not sleep at all" (pure traffic accounting).
	TimeScale float64
	// Seed seeds the loss process. Experiments fix it for reproducibility.
	Seed int64
	// CallTimeout is the modeled time a caller waits before declaring a
	// lost frame a timeout. Defaults to 1s of modeled time.
	CallTimeout time.Duration
}

// Errors reported by the simulated fabric. A partition is a refusal at
// link setup — the frame never left, so it carries transport.ErrRefused;
// a timeout models a frame lost somewhere in flight, which a real caller
// cannot distinguish from a lost reply, so it stays ambiguous.
var (
	ErrTimeout     = errors.New("netsim: call timed out (frame lost)")
	ErrPartitioned = fmt.Errorf("netsim: hosts are partitioned (%w)", transport.ErrRefused)
)

// Network is an in-process simulated network. It implements
// transport.Fabric. Hosts are identified by arbitrary names.
type Network struct {
	cfg Config

	mu         sync.RWMutex
	nodes      map[string]*simNode
	links      map[[2]string]Link
	partitions map[[2]string]bool

	statsMu   sync.Mutex
	hostStats map[string]*Stats

	rngMu sync.Mutex
	rng   *rand.Rand

	met atomic.Pointer[transport.Metrics]
}

// Instrument registers the fabric's traffic counters and per-kind call
// latency histograms in reg, using the same series names as the TCP
// fabric, so experiments over the simulated network and real deployments
// read identically on /metrics. Latency observations are wall-clock (the
// scaled simulated sleeps), matching what a caller actually waited.
func (n *Network) Instrument(reg *telemetry.Registry) {
	n.met.Store(transport.NewMetrics(reg))
}

// New creates a simulated network with the given configuration.
func New(cfg Config) *Network {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = time.Second
	}
	return &Network{
		cfg:        cfg,
		nodes:      make(map[string]*simNode),
		links:      make(map[[2]string]Link),
		partitions: make(map[[2]string]bool),
		hostStats:  make(map[string]*Stats),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
	}
}

// SetLink overrides the link characteristics for the directed pair
// from→to.
func (n *Network) SetLink(from, to string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]string{from, to}] = l
}

// Partition cuts (or heals) both directions between a and b. While
// partitioned, calls between the hosts fail immediately with
// ErrPartitioned.
func (n *Network) Partition(a, b string, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cut {
		n.partitions[[2]string{a, b}] = true
		n.partitions[[2]string{b, a}] = true
	} else {
		delete(n.partitions, [2]string{a, b})
		delete(n.partitions, [2]string{b, a})
	}
}

// link resolves the effective link for from→to.
func (n *Network) link(from, to string) (Link, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.partitions[[2]string{from, to}] {
		return Link{}, fmt.Errorf("%w: %s -> %s", ErrPartitioned, from, to)
	}
	if from == to {
		return Loopback, nil
	}
	if l, ok := n.links[[2]string{from, to}]; ok {
		return l, nil
	}
	return n.cfg.DefaultLink, nil
}

// lose samples the loss process.
func (n *Network) lose(p float64) bool {
	if p <= 0 {
		return false
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64() < p
}

// sleep sleeps the modeled duration scaled by TimeScale, or until the
// call's deadline (zero for none), which ends it with
// context.DeadlineExceeded — at once when it has passed, even where
// nothing sleeps.
func (n *Network) sleep(ctx context.Context, deadline time.Time, d time.Duration) error {
	real := time.Duration(0)
	if n.cfg.TimeScale > 0 {
		real = time.Duration(float64(d) / n.cfg.TimeScale)
	}
	if real <= 0 {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return context.DeadlineExceeded
		}
		return ctx.Err()
	}
	var err error
	if !deadline.IsZero() {
		if left := time.Until(deadline); left < real {
			real, err = left, context.DeadlineExceeded
		}
	}
	t := time.NewTimer(real)
	defer t.Stop()
	select {
	case <-t.C:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// charge records traffic for one frame transit from→to.
func (n *Network) charge(from, to string, size int, transit time.Duration, dropped bool) {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	s := n.statsOf(from)
	s.FramesSent++
	s.BytesSent += int64(size)
	s.ModeledDelay += transit
	if dropped {
		s.Dropped++
		return
	}
	s = n.statsOf(to)
	s.FramesRecv++
	s.BytesRecv += int64(size)
}

// statsOf returns host's counters, creating them; statsMu held.
func (n *Network) statsOf(host string) *Stats {
	s := n.hostStats[host]
	if s == nil {
		s = &Stats{}
		n.hostStats[host] = s
	}
	return s
}

// HostStats returns a copy of the traffic counters for one host.
func (n *Network) HostStats(host string) Stats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	if s := n.hostStats[host]; s != nil {
		return *s
	}
	return Stats{}
}

// TotalStats aggregates counters over all hosts.
func (n *Network) TotalStats() Stats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	var total Stats
	for _, s := range n.hostStats {
		total.add(*s)
	}
	return total
}

// ResetStats zeroes all counters, typically between experiment phases.
func (n *Network) ResetStats() {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	n.hostStats = make(map[string]*Stats)
}

// Attach implements transport.Fabric.
func (n *Network) Attach(addr string, h transport.Handler) (transport.Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[addr]; dup {
		return nil, fmt.Errorf("%w: %s", transport.ErrDuplicate, addr)
	}
	node := &simNode{net: n, addr: addr, handler: h}
	n.nodes[addr] = node
	return transport.NewEndpoint(addr, node, &n.met), nil
}

// simNode is one attached host: the Link under its transport.Endpoint.
type simNode struct {
	net     *Network
	addr    string
	handler transport.Handler
}

// Move implements transport.Link: the request leg, the peer's Serve, which
// weighs the modeled transit against the caller's budget, and the reply
// leg.
func (s *simNode) Move(ctx context.Context, deadline time.Time, f wire.Frame) (wire.Frame, error) {
	to := f.To
	s.net.mu.RLock()
	peer, ok := s.net.nodes[to]
	s.net.mu.RUnlock()
	if !ok {
		return wire.Frame{}, fmt.Errorf("%w: %s", transport.ErrUnknownPeer, to)
	}
	transit, err := s.net.leg(ctx, deadline, s.addr, to, f.EncodedSize(), "request")
	if err != nil {
		return wire.Frame{}, err
	}
	f.ReceivedAt = time.Now()
	reply := transport.Serve(peer.handler, f, transit, s.net.met.Load())
	reply.From, reply.To = to, s.addr
	if _, err := s.net.leg(ctx, deadline, to, s.addr, reply.EncodedSize(), "reply"); err != nil {
		return wire.Frame{}, err
	}
	return reply, nil
}

// leg carries one frame of size bytes from→to: the link's partition check,
// its loss draw (a lost frame costs the caller CallTimeout and ends in
// ErrTimeout, unless the call's deadline comes first), the traffic charge
// and the scaled sleep. It returns the modeled transit.
func (n *Network) leg(ctx context.Context, deadline time.Time, from, to string, size int, dir string) (time.Duration, error) {
	link, err := n.link(from, to)
	if err != nil {
		return 0, err
	}
	transit := link.Transit(size)
	if n.lose(link.Loss) {
		n.charge(from, to, size, transit, true)
		if err := n.sleep(ctx, deadline, n.cfg.CallTimeout); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("%w: %s -> %s (%s)", ErrTimeout, from, to, dir)
	}
	n.charge(from, to, size, transit, false)
	return transit, n.sleep(ctx, deadline, transit)
}

// Close implements transport.Link: the host leaves the network.
func (s *simNode) Close() error {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	delete(s.net.nodes, s.addr)
	return nil
}
