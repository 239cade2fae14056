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
// netsim implements transport.Fabric, so the full naplet protocol stack runs
// over it unchanged.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/overload"
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

// Stats aggregates traffic counters for one host or one directed link.
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

// add merges two stats; used when aggregating link stats into totals.
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
	linkStats map[[2]string]*Stats

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
		linkStats:  make(map[[2]string]*Stats),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
	}
}

// SetLink overrides the link characteristics for the directed pair
// from→to. Use SetBidirectional for symmetric overrides.
func (n *Network) SetLink(from, to string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]string{from, to}] = l
}

// SetBidirectional overrides both directions between a and b.
func (n *Network) SetBidirectional(a, b string, l Link) {
	n.SetLink(a, b, l)
	n.SetLink(b, a, l)
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

// sleep sleeps the modeled duration scaled by TimeScale.
func (n *Network) sleep(ctx context.Context, d time.Duration) error {
	if n.cfg.TimeScale <= 0 || d <= 0 {
		return ctx.Err()
	}
	real := time.Duration(float64(d) / n.cfg.TimeScale)
	if real <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(real)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// charge records traffic for one frame transit from→to.
func (n *Network) charge(from, to string, size int, transit time.Duration, dropped bool) {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	hs := n.hostStats[from]
	if hs == nil {
		hs = &Stats{}
		n.hostStats[from] = hs
	}
	ls := n.linkStats[[2]string{from, to}]
	if ls == nil {
		ls = &Stats{}
		n.linkStats[[2]string{from, to}] = ls
	}
	hs.FramesSent++
	hs.BytesSent += int64(size)
	hs.ModeledDelay += transit
	ls.FramesSent++
	ls.BytesSent += int64(size)
	ls.ModeledDelay += transit
	if dropped {
		hs.Dropped++
		ls.Dropped++
		return
	}
	rs := n.hostStats[to]
	if rs == nil {
		rs = &Stats{}
		n.hostStats[to] = rs
	}
	rs.FramesRecv++
	rs.BytesRecv += int64(size)
	ls.FramesRecv++
	ls.BytesRecv += int64(size)
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

// LinkStats returns a copy of the counters for the directed link from→to.
func (n *Network) LinkStats(from, to string) Stats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	if s := n.linkStats[[2]string{from, to}]; s != nil {
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
	n.linkStats = make(map[[2]string]*Stats)
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
	return node, nil
}

// Detach removes a host from the network (used by failure-injection tests).
func (n *Network) Detach(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, addr)
}

// node looks up an attached node.
func (n *Network) node(addr string) (*simNode, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	node, ok := n.nodes[addr]
	return node, ok
}

type simNode struct {
	net     *Network
	addr    string
	handler transport.Handler
	closed  atomic.Bool
	seq     atomic.Uint64
}

func (s *simNode) Addr() string { return s.addr }

func (s *simNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	if s.closed.Load() {
		return wire.Frame{}, transport.ErrNodeClosed
	}
	f.From = s.addr
	f.To = to
	f.Seq = s.seq.Add(1)
	if deadline, ok := ctx.Deadline(); ok {
		// Propagate the caller's remaining budget in the Seq high bits,
		// mirroring the TCP fabric (see wire.PackBudget).
		f.Seq = wire.PackBudget(f.Seq, time.Until(deadline))
	}

	met := s.net.met.Load()
	var start time.Time
	if met != nil {
		start = time.Now()
	}

	peer, ok := s.net.node(to)
	if !ok || peer.closed.Load() {
		return wire.Frame{}, fmt.Errorf("%w: %s", transport.ErrUnknownPeer, to)
	}
	link, err := s.net.link(s.addr, to)
	if err != nil {
		return wire.Frame{}, err
	}

	// Request leg.
	reqSize := f.EncodedSize()
	transit := link.Transit(reqSize)
	if s.net.lose(link.Loss) {
		s.net.charge(s.addr, to, reqSize, transit, true)
		if err := s.net.sleep(ctx, s.net.cfg.CallTimeout); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{}, fmt.Errorf("%w: %s -> %s (request)", ErrTimeout, s.addr, to)
	}
	s.net.charge(s.addr, to, reqSize, transit, false)
	if err := s.net.sleep(ctx, transit); err != nil {
		return wire.Frame{}, err
	}

	var reply wire.Frame
	if budget, ok := f.Budget(); ok && transit >= budget {
		// The modeled transit alone consumed the caller's whole budget:
		// the receiving server sheds the frame before dispatch, exactly
		// like the TCP fabric's pre-dispatch deadline check.
		met.DeadlineShed()
		reply = transport.ErrorReply(f, fmt.Errorf(
			"%w: %v transit exceeded %v budget", overload.ErrDeadlinePast, transit, budget))
	} else {
		f.ReceivedAt = time.Now()
		var herr error
		reply, herr = s.safeHandle(peer, f)
		if herr != nil {
			reply = transport.ErrorReply(f, herr)
		}
	}
	reply.Seq = f.Seq
	reply.From, reply.To = to, s.addr

	// Reply leg.
	back, err := s.net.link(to, s.addr)
	if err != nil {
		return wire.Frame{}, err
	}
	repSize := reply.EncodedSize()
	transit = back.Transit(repSize)
	if s.net.lose(back.Loss) {
		s.net.charge(to, s.addr, repSize, transit, true)
		if err := s.net.sleep(ctx, s.net.cfg.CallTimeout); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{}, fmt.Errorf("%w: %s -> %s (reply)", ErrTimeout, to, s.addr)
	}
	s.net.charge(to, s.addr, repSize, transit, false)
	if err := s.net.sleep(ctx, transit); err != nil {
		return wire.Frame{}, err
	}

	if met != nil {
		met.Sent(&f)
		met.Recv(&reply)
		met.ObserveCall(f.Kind, time.Since(start))
	}
	if werr := transport.IsErrorReply(f.Kind, reply); werr != nil {
		return reply, werr
	}
	return reply, nil
}

func (s *simNode) safeHandle(peer *simNode, req wire.Frame) (reply wire.Frame, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", transport.ErrHandlerPanic, r)
		}
	}()
	return peer.handler(req.From, req)
}

func (s *simNode) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.net.Detach(s.addr)
	return nil
}
