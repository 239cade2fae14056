// Package registry implements the codebase facility of §2.1: the immutable
// codebase URL that names a naplet's classes, and the lazy code loading
// model in which "classes [are] loaded on demand and at the last moment
// possible" and "all the classes and resources needed are transported at a
// time" as one bundle.
//
// Go cannot load code dynamically, so the registry realizes the same
// protocol with a substitution documented in DESIGN.md: every agent
// behaviour, named post-action, and named guard is compiled in and
// registered under its codebase name; what travels on demand is a measured
// opaque code bundle whose size models the JAR transfer. A per-server Cache
// records which codebases a server has already loaded, so a bundle crosses
// the network only on the first arrival of an agent type at a server —
// exactly the cost profile of lazy class loading.
package registry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"repro/internal/naplet"
)

// ActionFunc is a named itinerary post-action (the paper's Operable): "a
// post-action after each visit … facilitates inter-agent communication and
// synchronization" (§2.1).
type ActionFunc func(ctx *naplet.Context) error

// GuardFunc is a named conditional-visit guard (the paper's C in <C→S;T>).
type GuardFunc func(ctx *naplet.Context) (bool, error)

// Factory instantiates a fresh behaviour object for a landing naplet.
type Factory func() naplet.Behavior

// Codebase bundles everything shipped under one codebase name: the
// behaviour factory, named actions and guards used by itineraries, and the
// size of the simulated code bundle.
type Codebase struct {
	// Name is the registry key: the paper's codebase URL.
	Name string
	// New creates the behaviour executed at each visit.
	New Factory
	// Actions maps post-action names to their implementations.
	Actions map[string]ActionFunc
	// Guards maps guard names to their implementations.
	Guards map[string]GuardFunc
	// BundleSize is the size in bytes of the simulated code bundle
	// transported on a cache miss. Zero means DefaultBundleSize.
	BundleSize int
}

// DefaultBundleSize approximates a small agent JAR (32 KiB).
const DefaultBundleSize = 32 << 10

// Errors reported by the registry.
var (
	ErrUnknownCodebase = errors.New("registry: unknown codebase")
	ErrUnknownAction   = errors.New("registry: unknown action")
	ErrUnknownGuard    = errors.New("registry: unknown guard")
	ErrDuplicate       = errors.New("registry: codebase already registered")
	ErrInvalid         = errors.New("registry: invalid codebase")
)

// Registry maps codebase names to codebases. A Registry is safe for
// concurrent use. Typically one process-wide registry is shared by all
// in-process servers, standing in for the universe of published agent code.
type Registry struct {
	mu        sync.RWMutex
	codebases map[string]*Codebase
	digests   map[string]string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		codebases: make(map[string]*Codebase),
		digests:   make(map[string]string),
	}
}

// Register adds a codebase. The name must be unique and the factory
// non-nil.
func (r *Registry) Register(cb *Codebase) error {
	if cb == nil || cb.Name == "" || cb.New == nil {
		return fmt.Errorf("%w: need name and factory", ErrInvalid)
	}
	if cb.BundleSize == 0 {
		cb.BundleSize = DefaultBundleSize
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.codebases[cb.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicate, cb.Name)
	}
	r.codebases[cb.Name] = cb
	return nil
}

// MustRegister is like Register but panics on error; for package init
// registration of compiled-in agents.
func (r *Registry) MustRegister(cb *Codebase) {
	if err := r.Register(cb); err != nil {
		panic(err)
	}
}

// Lookup returns the codebase under name.
func (r *Registry) Lookup(name string) (*Codebase, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cb, ok := r.codebases[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCodebase, name)
	}
	return cb, nil
}

// Instantiate creates a behaviour for the codebase.
func (r *Registry) Instantiate(name string) (naplet.Behavior, error) {
	cb, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	return cb.New(), nil
}

// Action resolves a named post-action of a codebase.
func (r *Registry) Action(codebase, action string) (ActionFunc, error) {
	cb, err := r.Lookup(codebase)
	if err != nil {
		return nil, err
	}
	f, ok := cb.Actions[action]
	if !ok {
		return nil, fmt.Errorf("%w: %q in codebase %q", ErrUnknownAction, action, codebase)
	}
	return f, nil
}

// Guard resolves a named guard of a codebase.
func (r *Registry) Guard(codebase, guard string) (GuardFunc, error) {
	cb, err := r.Lookup(codebase)
	if err != nil {
		return nil, err
	}
	f, ok := cb.Guards[guard]
	if !ok {
		return nil, fmt.Errorf("%w: %q in codebase %q", ErrUnknownGuard, guard, codebase)
	}
	return f, nil
}

// Bundle synthesizes the simulated code bundle for a codebase: BundleSize
// bytes of deterministic, codebase-dependent content (so transfers are
// measurable and reproducible).
func (r *Registry) Bundle(name string) ([]byte, error) {
	cb, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	seed := sha256.Sum256([]byte(cb.Name))
	data := make([]byte, cb.BundleSize)
	var ctr uint64
	for i := 0; i < len(data); i += sha256.Size {
		var block [sha256.Size + 8]byte
		copy(block[:], seed[:])
		binary.BigEndian.PutUint64(block[sha256.Size:], ctr)
		sum := sha256.Sum256(block[:])
		copy(data[i:], sum[:])
		ctr++
	}
	return data, nil
}

// BundleDigest returns the content digest (hex SHA-256) of the codebase's
// bundle, memoized so origin servers compute it once per codebase rather
// than re-hashing 32 KiB on every dispatch. The digest is the
// content-addressed bundle-cache key: a destination that already holds a
// bundle with this digest — under any codebase name — need not refetch.
func (r *Registry) BundleDigest(name string) (string, error) {
	r.mu.RLock()
	d, ok := r.digests[name]
	r.mu.RUnlock()
	if ok {
		return d, nil
	}
	data, err := r.Bundle(name)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	d = hex.EncodeToString(sum[:])
	r.mu.Lock()
	r.digests[name] = d
	r.mu.Unlock()
	return d, nil
}

// CacheStats counts lazy-loading activity at one server.
type CacheStats struct {
	Hits         int64
	Misses       int64
	BytesFetched int64
	// AliasHits counts landings that skipped a bundle transfer because a
	// bundle with the same content digest was already cached, even though
	// the codebase name itself was cold.
	AliasHits int64
}

// Cache is one server's loaded-codebase set: the lazy code loading state.
// Entries are tracked both by codebase name and by content digest, so a
// bundle already present under one name satisfies a landing under another
// (content-addressed caching). It is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	loaded   map[string]bool
	byDigest map[string]bool
	stats    CacheStats
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		loaded:   make(map[string]bool),
		byDigest: make(map[string]bool),
	}
}

// Has reports whether the codebase is already loaded at this server and
// records the hit or miss.
func (c *Cache) Has(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.loaded[name] {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// LoadedDigest marks the codebase loaded, recording the content digest of
// its bundle so future landings under other names can match by content. An
// empty digest marks the name loaded without content addressing.
func (c *Cache) LoadedDigest(name, digest string, bundleBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.loaded[name] {
		c.loaded[name] = true
		c.stats.BytesFetched += int64(bundleBytes)
	}
	if digest != "" {
		c.byDigest[digest] = true
	}
}

// Alias reports whether a bundle with the given content digest is already
// cached; if so, it marks name loaded without a transfer and counts an
// alias hit. Unknown or empty digests return false.
func (c *Cache) Alias(name, digest string) bool {
	if digest == "" {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.byDigest[digest] {
		return false
	}
	if !c.loaded[name] {
		c.loaded[name] = true
		c.stats.AliasHits++
	}
	return true
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
