package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/directory"
	"repro/internal/health"
	"repro/internal/id"
	"repro/internal/transport"
)

// Config parameterizes a sharded directory client.
type Config struct {
	// Nodes are the directory-node addresses forming the plane.
	Nodes []string
	// Replicas is the replica-group size per shard key (default 2,
	// clamped to len(Nodes)).
	Replicas int
	// Health, when set, supplies liveness signals: calls report outcomes
	// into it, and lookups skip replicas it marks dead (except the one
	// probe per interval its Allow gate grants, so a recovered node
	// rejoins).
	Health *health.Detector
	// CallTimeout bounds each per-replica call (default 2s) so one hung
	// replica cannot stall a write that another replica would ack.
	CallTimeout time.Duration
}

// Stats counts sharded-plane activity.
type Stats struct {
	// Registers counts RegisterEvent calls; RegisterFanout the per-replica
	// writes they fanned into; RegisterErrors the replica writes that
	// failed (the write still succeeds while any replica acks).
	Registers      int64
	RegisterFanout int64
	RegisterErrors int64
	// Lookups counts Lookup calls; Failovers the lookups answered by a
	// non-primary replica.
	Lookups   int64
	Failovers int64
}

// Client is a sharded, replicated directory plane behind the
// directory.Directory interface. Registrations write through to every live
// replica of the key's group; lookups try replicas in rendezvous
// preference order and fail over on errors and on not-found answers, so
// any acknowledged write is readable while one replica of the group
// survives.
//
// Client is safe for concurrent use; build one per server and share it.
type Client struct {
	ring     *Ring
	replicas int
	health   *health.Detector
	timeout  time.Duration

	mu      sync.RWMutex
	clients map[string]*directory.Client
	node    transport.Node

	registers      atomic.Int64
	registerFanout atomic.Int64
	registerErrors atomic.Int64
	lookups        atomic.Int64
	failovers      atomic.Int64
}

// New builds a sharded directory client calling through node.
func New(node transport.Node, cfg Config) *Client {
	ring := NewRing(cfg.Nodes)
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 2
	}
	if replicas > ring.Len() {
		replicas = ring.Len()
	}
	timeout := cfg.CallTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	c := &Client{
		ring:     ring,
		replicas: replicas,
		health:   cfg.Health,
		timeout:  timeout,
		clients:  make(map[string]*directory.Client, ring.Len()),
		node:     node,
	}
	for _, addr := range ring.Nodes() {
		c.clients[addr] = directory.NewClient(node, addr)
	}
	return c
}

// Replicas returns the replica-group size.
func (c *Client) Replicas() int { return c.replicas }

// client returns the per-node directory client for addr.
func (c *Client) client(addr string) *directory.Client {
	c.mu.RLock()
	dc := c.clients[addr]
	c.mu.RUnlock()
	if dc != nil {
		return dc
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if dc = c.clients[addr]; dc == nil {
		dc = directory.NewClient(c.node, addr)
		c.clients[addr] = dc
	}
	return dc
}

// skip reports whether addr should be passed over: the detector holds it
// dead and the probe budget for this interval is spent.
func (c *Client) skip(addr string) bool {
	return c.health != nil && c.health.Dead(addr) && !c.health.Allow(addr)
}

func (c *Client) reportSuccess(addr string) {
	if c.health != nil {
		c.health.ReportSuccess(addr)
	}
}

func (c *Client) reportFailure(addr string) {
	if c.health != nil {
		c.health.ReportFailure(addr)
	}
}

// call runs fn under the per-replica timeout.
func (c *Client) call(ctx context.Context, fn func(ctx context.Context) error) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	return fn(ctx)
}

// RegisterEvent writes the event through to every replica of the key's
// group. It succeeds while at least one replica acknowledges — the paper's
// invariant holds against that ack because the lookup path consults the
// whole group before declaring not-found. Replicas that fail the write are
// reported to the failure detector and excluded from lookups until they
// recover.
func (c *Client) RegisterEvent(ctx context.Context, r directory.Registration) error {
	c.registers.Add(1)
	owners := c.ring.Owners(KeyOf(r.NapletID), c.replicas)
	if len(owners) == 0 {
		return errors.New("shard: no directory nodes configured")
	}
	var (
		acked   bool
		lastErr error
	)
	for _, addr := range owners {
		if c.skip(addr) {
			continue
		}
		c.registerFanout.Add(1)
		err := c.call(ctx, func(ctx context.Context) error {
			return c.client(addr).RegisterEvent(ctx, r)
		})
		if err != nil {
			c.registerErrors.Add(1)
			c.reportFailure(addr)
			lastErr = err
			continue
		}
		c.reportSuccess(addr)
		acked = true
	}
	if acked {
		return nil
	}
	if lastErr != nil {
		return lastErr
	}
	return errors.New("shard: all replicas excluded by failure detector")
}

// Lookup resolves a naplet through its replica group in preference order.
// Transport failures and not-found answers both fail over to the next
// replica: a registration acked by any surviving group member satisfies
// the read even when other replicas missed the write.
func (c *Client) Lookup(ctx context.Context, nid id.NapletID) (directory.Entry, error) {
	c.lookups.Add(1)
	owners := c.ring.Owners(KeyOf(nid), c.replicas)
	if len(owners) == 0 {
		return directory.Entry{}, errors.New("shard: no directory nodes configured")
	}
	var (
		notFound bool
		lastErr  error
	)
	for i, addr := range owners {
		if c.skip(addr) {
			continue
		}
		var entry directory.Entry
		err := c.call(ctx, func(ctx context.Context) error {
			var err error
			entry, err = c.client(addr).Lookup(ctx, nid)
			return err
		})
		switch {
		case err == nil:
			c.reportSuccess(addr)
			if i > 0 {
				c.failovers.Add(1)
			}
			return entry, nil
		case errors.Is(err, directory.ErrNotFound):
			// The node answered; it just has no entry. Another replica of
			// the group may hold the acked write.
			c.reportSuccess(addr)
			notFound = true
		default:
			c.reportFailure(addr)
			lastErr = err
		}
	}
	if notFound {
		return directory.Entry{}, directory.ErrNotFound
	}
	if lastErr != nil {
		return directory.Entry{}, lastErr
	}
	return directory.Entry{}, errors.New("shard: all replicas excluded by failure detector")
}

// DeregisterServer withdraws the server's entries from every directory
// node: a server's naplets are spread across all shards, so the
// withdrawal broadcasts, forwards and all (a node applies those whose
// entries it holds). Unreachable nodes are reported and skipped — a dead
// replica rebuilds from fresher registrations when it returns.
func (c *Client) DeregisterServer(ctx context.Context, server string, moved []directory.Forward) error {
	var lastErr error
	for _, addr := range c.ring.Nodes() {
		if c.skip(addr) {
			continue
		}
		err := c.call(ctx, func(ctx context.Context) error {
			return c.client(addr).DeregisterServer(ctx, server, moved)
		})
		if err != nil {
			c.reportFailure(addr)
			lastErr = err
			continue
		}
		c.reportSuccess(addr)
	}
	return lastErr
}

// Stats returns activity counters.
func (c *Client) Stats() Stats {
	return Stats{
		Registers:      c.registers.Load(),
		RegisterFanout: c.registerFanout.Load(),
		RegisterErrors: c.registerErrors.Load(),
		Lookups:        c.lookups.Load(),
		Failovers:      c.failovers.Load(),
	}
}

// compile-time interface check: the sharded plane is a directory.
var _ directory.Directory = (*Client)(nil)
