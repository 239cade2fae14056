// Package directory implements the NapletDirectory of §4.1: the service
// that tracks the location of naplets.
//
// Docks register ARRIVAL events, ordered by the naplet's navigation log:
// each carries the log's sequence number, which travels with the record and
// so grows across docks whatever their clocks say. A dock registers a
// naplet where it stays — on a due hop, or before it first communicates —
// not at every landing, so an entry may name a dock the naplet has since
// left; that dock's visit trace forwards mail after it (§4.1's forwarding
// mode), and a closing dock re-points what it traced before it withdraws.
//
// At production scale the directory is not one map behind one mutex. A
// Service shards its entries over fixed lock stripes so lookups (RLock)
// never serialize behind registrations, and keeps a by-server secondary
// index so a closing dock's DeregisterServer touches only its own entries.
// Above the single node, internal/directory/shard partitions the namespace
// over the hierarchical NapletID's owner/home prefix by rendezvous hashing
// and replicates each shard across a small replica group; the Directory
// interface below is what the rest of the system programs against, so a
// server is wired identically to one directory node or to a sharded,
// replicated plane.
package directory

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Event is the registered life-cycle event kind. Docks register arrivals
// only; the type and its one value stay because bench/ledger.go names them.
type Event int

// Arrival: the naplet landed at Entry.Server and is (or was) running there.
const Arrival Event = 0

// String returns the event name.
func (e Event) String() string {
	if e == Arrival {
		return "arrival"
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// Entry is the latest registered event for one naplet.
type Entry struct {
	NapletID id.NapletID
	Event    Event
	Server   string
	// At is the registering dock's clock at registration: for display.
	At time.Time
	// Seq orders registrations: the naplet's navigation-log event index
	// at registration time. Registrations race over the network, are
	// retried and may be made late, and docks' clocks disagree, so the
	// log's order — not At — decides which one is newer.
	Seq uint64
}

// Registration is one life-cycle event report.
type Registration struct {
	NapletID id.NapletID
	Event    Event
	Server   string
	At       time.Time
	Seq      uint64
}

// Directory is the location plane the rest of the system programs against:
// a single directory node (*Client) or a sharded replicated plane
// (*shard.Client) behind one interface.
type Directory interface {
	// RegisterEvent reports a life-cycle event.
	RegisterEvent(ctx context.Context, r Registration) error
	// Lookup returns the latest registered entry for a naplet.
	Lookup(ctx context.Context, nid id.NapletID) (Entry, error)
	// DeregisterServer withdraws every entry pointing at server, except
	// that an entry with a forward in moved — a naplet that left server
	// alive — is pointed where it went.
	DeregisterServer(ctx context.Context, server string, moved []Forward) error
}

// Forward is a closing dock's visit trace for one naplet that left it
// alive: Server is where it went, Seq the sequence of its arrival there.
type Forward struct {
	NapletID id.NapletID
	Server   string
	Seq      uint64
}

// ErrNotFound is reported for naplets with no registration.
var ErrNotFound = errors.New("directory: naplet not registered")

// compile-time interface check: a single node is a directory.
var _ Directory = (*Client)(nil)

// RegisterBody is the wire body of a KindDirRegister frame.
type RegisterBody struct {
	NapletID id.NapletID
	Event    Event
	Server   string
	At       time.Time
	Seq      uint64
}

// LookupBody is the wire body of a KindDirLookup frame.
type LookupBody struct {
	NapletID id.NapletID
}

// DeregisterBody is the wire body of a KindDirDeregister frame: a closing
// server withdraws every entry that points at its address, so peers stop
// dispatching naplets and mail at a dead dock. Moved carries its visit
// traces of the naplets that left it alive: an entry still naming the
// closing server for one of them is re-pointed instead of dropped.
type DeregisterBody struct {
	Server string
	Moved  []Forward
}

// ReplyBody is the wire body of a KindDirReply frame.
type ReplyBody struct {
	Found bool
	Entry Entry
}

// Stats counts directory activity.
type Stats struct {
	Registrations int64
	Lookups       int64
	Misses        int64
}

// numStripes is the lock-stripe count of a Service. A power of two so the
// stripe pick is a mask; 64 stripes keep write collisions rare at high
// registration rates without bloating an idle service.
const numStripes = 64

// stripeSeed keys the stripe hash. Process-wide (not per-Service) so two
// services in one process shard identically — handy for tests comparing
// replicas.
var stripeSeed = maphash.MakeSeed()

// stripe is one lock-striped partition of a Service's entries.
type stripe struct {
	mu      sync.RWMutex
	entries map[string]Entry
	// byServer indexes entry keys by Entry.Server so a server withdrawal
	// is O(entries-for-that-server), not a scan of the whole stripe.
	byServer map[string]map[string]struct{}
}

// Service is one directory node. Attach it to a fabric with Serve; it then
// answers register and lookup frames. All methods are safe for concurrent
// use: lookups take per-stripe read locks and never serialize behind
// registrations on other stripes.
type Service struct {
	stripes [numStripes]stripe

	registrations atomic.Int64
	lookups       atomic.Int64
	misses        atomic.Int64
}

// NewService returns an empty directory node.
func NewService() *Service {
	s := &Service{}
	for i := range s.stripes {
		s.stripes[i].entries = make(map[string]Entry)
		s.stripes[i].byServer = make(map[string]map[string]struct{})
	}
	return s
}

// stripeFor picks the lock stripe owning key.
func (s *Service) stripeFor(key string) *stripe {
	return &s.stripes[maphash.String(stripeSeed, key)&(numStripes-1)]
}

// Serve attaches the directory to the fabric under addr and returns its
// node.
func (s *Service) Serve(fabric transport.Fabric, addr string) (transport.Node, error) {
	return fabric.Attach(addr, s.Handle)
}

// Handle is the directory's frame handler; exported so a composite server
// can host a directory alongside other components.
func (s *Service) Handle(from string, f wire.Frame) (wire.Frame, error) {
	switch f.Kind {
	case wire.KindDirRegister:
		var body RegisterBody
		if err := body.Decode(f.Payload); err != nil {
			return wire.Frame{}, err
		}
		s.Register(body)
		return wire.BinaryFrame(wire.KindDirReply, f.To, f.From, &ReplyBody{Found: true}), nil
	case wire.KindDirLookup:
		var body LookupBody
		if err := body.Decode(f.Payload); err != nil {
			return wire.Frame{}, err
		}
		entry, ok := s.Lookup(body.NapletID)
		return wire.BinaryFrame(wire.KindDirReply, f.To, f.From, &ReplyBody{Found: ok, Entry: entry}), nil
	case wire.KindDirDeregister:
		var body DeregisterBody
		if err := body.Decode(f.Payload); err != nil {
			return wire.Frame{}, err
		}
		s.DeregisterServer(body.Server, body.Moved)
		return wire.BinaryFrame(wire.KindDirReply, f.To, f.From, &ReplyBody{Found: true}), nil
	default:
		return wire.Frame{}, fmt.Errorf("directory: unexpected frame kind %q", f.Kind)
	}
}

// newer reports whether the incoming event supersedes the stored entry.
// Events race over the network, are retried and are made late, so the rule
// must be a deterministic total preference — every replica applying any
// interleaving of the same event set converges on the same entry:
//
//  1. the higher navigation-log sequence wins: the log travels with the
//     naplet, so its order is the naplet's, whatever the docks' clocks;
//  2. at equal Seq (a retry, or a launch and a clone birth), the later At.
func newer(in RegisterBody, cur Entry) bool {
	if in.Seq != cur.Seq {
		return in.Seq > cur.Seq
	}
	return !in.At.Before(cur.At)
}

// Register applies one life-cycle event to this node's table. Exported for
// in-process callers (benchmarks, composite servers); the wire path arrives
// through Handle.
func (s *Service) Register(body RegisterBody) {
	s.registrations.Add(1)
	key := body.NapletID.Key()
	st := s.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	cur, ok := st.entries[key]
	if ok && !newer(body, cur) {
		return
	}
	st.put(key, cur, ok, Entry(body))
}

// put stores e under key, moving it in the by-server index from cur (the
// entry it replaces, if had). st.mu held.
func (st *stripe) put(key string, cur Entry, had bool, e Entry) {
	if had && cur.Server != e.Server {
		st.unindex(cur.Server, key)
	}
	if !had || cur.Server != e.Server {
		st.index(e.Server, key)
	}
	st.entries[key] = e
}

func (st *stripe) index(server, key string) {
	keys, ok := st.byServer[server]
	if !ok {
		keys = make(map[string]struct{})
		st.byServer[server] = keys
	}
	keys[key] = struct{}{}
}

func (st *stripe) unindex(server, key string) {
	if keys, ok := st.byServer[server]; ok {
		delete(keys, key)
		if len(keys) == 0 {
			delete(st.byServer, server)
		}
	}
}

// DeregisterServer drops every entry that points at server. A closing dock
// withdraws its registrations so peers fail fast (and consult fresher
// information) instead of burning their retry budget on a dead address.
// An entry with a forward in moved is re-pointed instead, when it still
// names server and the forward is not older than it: a naplet that left
// server alive without registering since stays findable, and a
// registration newer than the forward still wins. The by-server index makes this proportional to
// the server's own entries and its forwards.
func (s *Service) DeregisterServer(server string, moved []Forward) {
	if server == "" {
		return
	}
	for _, f := range moved {
		key := f.NapletID.Key()
		st := s.stripeFor(key)
		st.mu.Lock()
		if cur, ok := st.entries[key]; ok && cur.Server == server && f.Seq >= cur.Seq && f.Server != server {
			st.put(key, cur, true, Entry{NapletID: cur.NapletID, Event: Arrival, Server: f.Server, At: cur.At, Seq: f.Seq})
		}
		st.mu.Unlock()
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for key := range st.byServer[server] {
			delete(st.entries, key)
		}
		delete(st.byServer, server)
		st.mu.Unlock()
	}
}

// Lookup returns this node's latest entry for a naplet. Exported for
// in-process callers; the wire path arrives through Handle.
func (s *Service) Lookup(nid id.NapletID) (Entry, bool) {
	s.lookups.Add(1)
	key := nid.Key()
	st := s.stripeFor(key)
	st.mu.RLock()
	e, ok := st.entries[key]
	st.mu.RUnlock()
	if !ok {
		s.misses.Add(1)
	}
	return e, ok
}

// Len reports the number of registered naplets.
func (s *Service) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n += len(st.entries)
		st.mu.RUnlock()
	}
	return n
}

// Snapshot returns a copy of all registered entries, for management tools.
func (s *Service) Snapshot() []Entry {
	out := make([]Entry, 0, s.Len())
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for _, e := range st.entries {
			out = append(out, e)
		}
		st.mu.RUnlock()
	}
	return out
}

// Stats returns activity counters.
func (s *Service) Stats() Stats {
	return Stats{
		Registrations: s.registrations.Load(),
		Lookups:       s.lookups.Load(),
		Misses:        s.misses.Load(),
	}
}

// Client accesses one directory node over the fabric. It is stateless and
// safe for concurrent use; build it once and share it (constructing a
// client per call was the seed's pattern and is exactly what the Locator
// and Navigator no longer do).
type Client struct {
	node transport.Node
	addr string
}

// NewClient builds a directory client that calls the directory at addr
// through node.
func NewClient(node transport.Node, addr string) *Client {
	return &Client{node: node, addr: addr}
}

// Addr returns the directory's address.
func (c *Client) Addr() string { return c.addr }

// RegisterEvent reports a life-cycle event to the directory.
func (c *Client) RegisterEvent(ctx context.Context, r Registration) error {
	body := RegisterBody(r)
	f := wire.BinaryFrame(wire.KindDirRegister, "", "", &body)
	_, err := c.node.Call(ctx, c.addr, f)
	return err
}

// Register reports a life-cycle event with no sequence, for callers that
// track only (event, server, at).
func (c *Client) Register(ctx context.Context, nid id.NapletID, event Event, server string, at time.Time) error {
	return c.RegisterEvent(ctx, Registration{NapletID: nid, Event: event, Server: server, At: at})
}

// DeregisterServer withdraws every directory entry pointing at server,
// re-pointing those with a forward in moved.
func (c *Client) DeregisterServer(ctx context.Context, server string, moved []Forward) error {
	f := wire.BinaryFrame(wire.KindDirDeregister, "", "", &DeregisterBody{Server: server, Moved: moved})
	_, err := c.node.Call(ctx, c.addr, f)
	return err
}

// Lookup returns the latest registered entry for a naplet.
func (c *Client) Lookup(ctx context.Context, nid id.NapletID) (Entry, error) {
	f := wire.BinaryFrame(wire.KindDirLookup, "", "", &LookupBody{NapletID: nid})
	reply, err := c.node.Call(ctx, c.addr, f)
	if err != nil {
		return Entry{}, err
	}
	var body ReplyBody
	if err := body.Decode(reply.Payload); err != nil {
		return Entry{}, err
	}
	if !body.Found {
		return Entry{}, fmt.Errorf("%w: %s", ErrNotFound, nid)
	}
	return body.Entry, nil
}
