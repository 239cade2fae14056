// Package locator implements the Locator of §4.1: the naplet tracing and
// location service behind location-independent communication.
//
// The naplet space runs in one of two modes: with a naplet directory (a
// centralized service, or the distributed form where each naplet's home
// manager tracks it) or without one (messages chase naplets through the
// per-server visit traces). The Locator resolves NapletID-based addresses
// accordingly and caches recently inquired locations "so as to reduce the
// response time of subsequent naplet location requests".
package locator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/directory"
	"repro/internal/id"
	"repro/internal/manager"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Mode selects the location strategy.
type Mode int

// Location modes.
const (
	// ModeDirectory consults the centralized NapletDirectory.
	ModeDirectory Mode = iota
	// ModeHome consults the naplet's home manager (distributed directory).
	ModeHome
	// ModeForward performs no lookup: the caller starts from its best hint
	// (address book entry) and messages chase the naplet through visit
	// traces.
	ModeForward
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeDirectory:
		return "directory"
	case ModeHome:
		return "home"
	case ModeForward:
		return "forward"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// QueryBody is the wire body of a KindLocatorQuery frame (home mode).
type QueryBody struct {
	NapletID id.NapletID
}

// ReplyBody is the wire body of a KindLocatorReply frame.
type ReplyBody struct {
	Found  bool
	Server string
}

// InvalidateBody is the wire body of a KindLocatorInvalidate frame: a
// push notice from a naplet's previous server that it migrated. Server
// carries the destination when known (the receiver refreshes its cache in
// place); empty means only that the cached location went stale.
type InvalidateBody struct {
	NapletID id.NapletID
	Server   string
}

// Errors reported by the locator.
var (
	ErrNotFound = errors.New("locator: naplet location unknown")
	ErrNoHint   = errors.New("locator: no location hint in forward mode")
)

// Stats is a point-in-time snapshot of locator activity. The counters
// live in the telemetry registry (the single source of truth); Stats is
// the legacy view built by Locator.Stats.
type Stats struct {
	Lookups      int64
	CacheHits    int64
	Directory    int64 // directory round trips
	HomeQuery    int64 // home-manager round trips
	Failures     int64
	CacheEvict   int64
	MissEvict    int64 // cache entries dropped after repeated misses
	Singleflight int64 // duplicate concurrent lookups coalesced
	PushInval    int64 // migration push-invalidations received
}

// Config parameterizes a Locator.
type Config struct {
	// Mode selects the location strategy.
	Mode Mode
	// Directory is the directory plane to consult in ModeDirectory: a
	// single-node *directory.Client or a sharded, replicated
	// *shard.Client.
	Directory directory.Directory
	// CacheTTL bounds the age of cached locations; 0 disables caching.
	CacheTTL time.Duration
	// Telemetry receives the locator's counters; nil uses a private
	// registry (counters still work, nothing is exported).
	Telemetry *telemetry.Registry
}

// metrics holds the locator's registered counter handles.
type metrics struct {
	lookups      *telemetry.Counter
	cacheHits    *telemetry.Counter
	directory    *telemetry.Counter
	homeQuery    *telemetry.Counter
	failures     *telemetry.Counter
	cacheEvict   *telemetry.Counter
	missEvict    *telemetry.Counter
	singleflight *telemetry.Counter
	pushInval    *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		lookups:      reg.Counter("naplet_locator_lookups_total", "naplet location resolutions requested"),
		cacheHits:    reg.Counter("naplet_locator_cache_hits_total", "resolutions served from the location cache"),
		directory:    reg.Counter("naplet_locator_directory_queries_total", "central-directory round trips"),
		homeQuery:    reg.Counter("naplet_locator_home_queries_total", "home-manager round trips"),
		failures:     reg.Counter("naplet_locator_failures_total", "failed lookups (before hint fallback)"),
		cacheEvict:   reg.Counter("naplet_locator_cache_evictions_total", "cache entries dropped (TTL expiry or invalidation)"),
		missEvict:    reg.Counter("naplet_locator_miss_invalidations_total", "cache entries dropped after repeated delivery misses"),
		singleflight: reg.Counter("naplet_locator_singleflight_total", "duplicate concurrent lookups coalesced onto one round trip"),
		pushInval:    reg.Counter("naplet_locator_push_invalidations_total", "migration push-invalidations received"),
	}
}

type cached struct {
	server string
	at     time.Time
}

// flight is one in-progress resolution that concurrent callers for the
// same naplet wait on instead of issuing duplicate round trips.
type flight struct {
	done   chan struct{}
	server string
	err    error
}

// Locator resolves naplet identifiers to server names. It is safe for
// concurrent use.
type Locator struct {
	cfg   Config
	node  transport.Node
	mgr   *manager.Manager
	clock func() time.Time
	met   *metrics

	mu      sync.Mutex
	cache   map[string]cached
	misses  map[string]int
	flights map[string]*flight
}

// missThreshold is how many consecutive delivery misses against a cached
// location are tolerated before the entry is invalidated. A single miss is
// often a transient network fault — dropping the cache for it trades a cheap
// retry for a full lookup.
const missThreshold = 2

// New builds a locator for a server. node is the server's fabric node
// (used for directory and home queries); mgr is the local manager (used to
// answer home queries and to shortcut local naplets); nil clock means
// time.Now.
func New(cfg Config, node transport.Node, mgr *manager.Manager, clock func() time.Time) *Locator {
	if clock == nil {
		clock = time.Now
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Locator{
		cfg:     cfg,
		node:    node,
		mgr:     mgr,
		clock:   clock,
		met:     newMetrics(reg),
		cache:   make(map[string]cached),
		misses:  make(map[string]int),
		flights: make(map[string]*flight),
	}
}

// Mode returns the configured location mode.
func (l *Locator) Mode() Mode { return l.cfg.Mode }

// Caches reports whether the locator keeps resolved locations (CacheTTL >
// 0): only then can a migration notice refresh anything here.
func (l *Locator) Caches() bool { return l.cfg.CacheTTL > 0 }

// Locate resolves the naplet's current (best-known) server. hint is the
// caller's address-book entry for the naplet and may be empty. The answer
// may be stale by the time it is used; the messenger's forwarding handles
// that (§4.2).
func (l *Locator) Locate(ctx context.Context, nid id.NapletID, hint string) (string, error) {
	l.met.lookups.Inc()
	key := nid.Key()
	l.mu.Lock()
	if l.Caches() {
		if c, ok := l.cache[key]; ok {
			if l.clock().Sub(c.at) <= l.cfg.CacheTTL {
				l.mu.Unlock()
				l.met.cacheHits.Inc()
				return c.server, nil
			}
			delete(l.cache, key)
			l.met.cacheEvict.Inc()
		}
	}
	l.mu.Unlock()

	// A naplet present at this very server needs no lookup.
	if l.mgr != nil {
		if tr := l.mgr.TraceNaplet(nid); tr.Present {
			l.remember(nid, l.mgr.Server())
			return l.mgr.Server(), nil
		}
	}

	switch l.cfg.Mode {
	case ModeDirectory:
		server, err := l.shared(nid, func() (string, error) {
			return l.locateViaDirectory(ctx, nid)
		})
		if err != nil {
			l.fail()
			return l.fallback(hint, err)
		}
		return server, nil
	case ModeHome:
		server, err := l.shared(nid, func() (string, error) {
			return l.locateViaHome(ctx, nid)
		})
		if err != nil {
			l.fail()
			return l.fallback(hint, err)
		}
		return server, nil
	default: // ModeForward
		if hint == "" {
			return "", ErrNoHint
		}
		return hint, nil
	}
}

// shared coalesces concurrent resolutions of the same naplet onto one
// round trip: the first caller becomes the leader and performs the lookup;
// the rest wait for its answer. Under fan-in messaging (many correspondents
// resolving one fast-moving naplet at once) this collapses a thundering
// herd of identical directory queries into a single one.
func (l *Locator) shared(nid id.NapletID, resolve func() (string, error)) (string, error) {
	key := nid.Key()
	l.mu.Lock()
	if f, ok := l.flights[key]; ok {
		l.mu.Unlock()
		l.met.singleflight.Inc()
		<-f.done
		return f.server, f.err
	}
	f := &flight{done: make(chan struct{})}
	l.flights[key] = f
	l.mu.Unlock()

	f.server, f.err = resolve()
	if f.err == nil {
		l.remember(nid, f.server)
	}
	l.mu.Lock()
	delete(l.flights, key)
	l.mu.Unlock()
	close(f.done)
	return f.server, f.err
}

// fallback degrades to the caller's hint when a lookup fails.
func (l *Locator) fallback(hint string, err error) (string, error) {
	if hint != "" {
		return hint, nil
	}
	return "", err
}

func (l *Locator) fail() {
	l.met.failures.Inc()
}

// remember caches a resolved location. A fresh location resets the miss
// streak: the entry has earned its place again.
func (l *Locator) remember(nid id.NapletID, server string) {
	if !l.Caches() {
		return
	}
	key := nid.Key()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cache[key] = cached{server: server, at: l.clock()}
	delete(l.misses, key)
}

// Invalidate drops a cached location, e.g. after a delivery failure or a
// migration notice.
func (l *Locator) Invalidate(nid id.NapletID) {
	key := nid.Key()
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.misses, key)
	if _, ok := l.cache[key]; ok {
		delete(l.cache, key)
		l.met.cacheEvict.Inc()
	}
}

// Miss records a delivery failure against the naplet's cached location.
// One miss is tolerated as a likely transient network fault; once the
// consecutive-miss count reaches missThreshold the cache entry is dropped
// so the next Locate performs a real lookup. Reports whether the entry
// was invalidated. Without a cache there is nothing to invalidate, and no
// streak is kept.
func (l *Locator) Miss(nid id.NapletID) bool {
	if !l.Caches() {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	key := nid.Key()
	l.misses[key]++
	if l.misses[key] < missThreshold {
		return false
	}
	delete(l.misses, key)
	if _, ok := l.cache[key]; ok {
		delete(l.cache, key)
		l.met.cacheEvict.Inc()
	}
	l.met.missEvict.Inc()
	return true
}

// Refresh updates the cache with a location learned out of band (a
// migration notice); this is the paper's "buffered naplet location
// information can be updated on migration".
func (l *Locator) Refresh(nid id.NapletID, server string) {
	l.remember(nid, server)
}

// Confirmed caches where a post that was routed to routed was confirmed:
// server, the dock that delivered it. It refreshes only an entry that
// still names routed, or none: a migration notice that landed while the
// post was in flight put a later dock there, and the notice wins — the
// confirmation would write back a dock the naplet has already left.
func (l *Locator) Confirmed(nid id.NapletID, routed, server string) {
	if !l.Caches() {
		return
	}
	key := nid.Key()
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.cache[key]; ok && c.server != routed {
		return
	}
	l.cache[key] = cached{server: server, at: l.clock()}
	delete(l.misses, key)
}

func (l *Locator) locateViaDirectory(ctx context.Context, nid id.NapletID) (string, error) {
	if l.cfg.Directory == nil {
		return "", fmt.Errorf("%w: no directory configured", ErrNotFound)
	}
	l.met.directory.Inc()
	entry, err := l.cfg.Directory.Lookup(ctx, nid)
	if err != nil {
		return "", err
	}
	return entry.Server, nil
}

func (l *Locator) locateViaHome(ctx context.Context, nid id.NapletID) (string, error) {
	home := nid.Host()
	// A naplet whose home is this server resolves locally.
	if l.mgr != nil && home == l.mgr.Server() {
		if server, ok := l.mgr.HomeLocate(nid); ok {
			return server, nil
		}
		return "", fmt.Errorf("%w: %s (home has no record)", ErrNotFound, nid)
	}
	l.met.homeQuery.Inc()
	f := wire.BinaryFrame(wire.KindLocatorQuery, "", "", &QueryBody{NapletID: nid})
	reply, err := l.node.Call(ctx, home, f)
	if err != nil {
		return "", err
	}
	var body ReplyBody
	if err := body.Decode(reply.Payload); err != nil {
		return "", err
	}
	if !body.Found {
		return "", fmt.Errorf("%w: %s", ErrNotFound, nid)
	}
	return body.Server, nil
}

// HandleQuery answers a home-directory location query against the local
// manager; the server routes KindLocatorQuery frames here.
func (l *Locator) HandleQuery(from string, f wire.Frame) (wire.Frame, error) {
	var body QueryBody
	if err := body.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	reply := ReplyBody{}
	if l.mgr != nil {
		if server, ok := l.mgr.HomeLocate(body.NapletID); ok {
			reply.Found = true
			reply.Server = server
		} else if tr := l.mgr.TraceNaplet(body.NapletID); tr.Present {
			reply.Found = true
			reply.Server = l.mgr.Server()
		}
	}
	// The home manager only tracks live residents; a naplet that has
	// retired (or was launched elsewhere) may still have a last-known
	// location in the directory plane, asked within the caller's
	// propagated budget and never longer than 3 s: one context, built
	// only for this fallback.
	if !reply.Found && l.cfg.Directory != nil {
		ctx, cancel := context.WithDeadline(context.Background(), f.DeadlineWithin(3*time.Second))
		if server, err := l.locateViaDirectory(ctx, body.NapletID); err == nil {
			reply.Found = true
			reply.Server = server
		}
		cancel()
	}
	return wire.BinaryFrame(wire.KindLocatorReply, f.To, f.From, &reply), nil
}

// HandleInvalidate applies a migration push-notice; the server routes
// KindLocatorInvalidate frames here. A notice with the destination
// refreshes the cache in place (the next message goes straight to the
// naplet's new server, no lookup); one without drops the stale entry.
func (l *Locator) HandleInvalidate(from string, f wire.Frame) (wire.Frame, error) {
	var body InvalidateBody
	if err := body.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	l.met.pushInval.Inc()
	if body.Server != "" {
		l.Refresh(body.NapletID, body.Server)
	} else {
		l.Invalidate(body.NapletID)
	}
	return wire.BinaryFrame(wire.KindLocatorReply, f.To, f.From, &ReplyBody{Found: body.Server != "", Server: body.Server}), nil
}

// Stats snapshots the locator's activity counters from the telemetry
// registry.
func (l *Locator) Stats() Stats {
	return Stats{
		Lookups:      l.met.lookups.Value(),
		CacheHits:    l.met.cacheHits.Value(),
		Directory:    l.met.directory.Value(),
		HomeQuery:    l.met.homeQuery.Value(),
		Failures:     l.met.failures.Value(),
		CacheEvict:   l.met.cacheEvict.Value(),
		MissEvict:    l.met.missEvict.Value(),
		Singleflight: l.met.singleflight.Value(),
		PushInval:    l.met.pushInval.Value(),
	}
}
