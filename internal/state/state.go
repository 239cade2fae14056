// Package state implements the NapletState container (§2.1 of the Naplet
// paper): a protected, serializable container of application-specific agent
// running state.
//
// Any object within the container is held in one of three protection modes:
//
//   - Private: accessible to the naplet only.
//   - Public: accessible to any naplet server in the itinerary.
//   - Protected: accessible to specific, named servers only (e.g. so a
//     server can update a returning naplet with new information).
//
// Access checks are enforced through a Viewer: the naplet itself accesses
// the container directly; servers access it through ServerView, which
// applies the mode rules. The state travels with the naplet on every
// migration, so values are restricted to the closed set of types the value
// codec (value.go) can carry.
package state

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"repro/internal/wire"
)

// Mode is the protection mode of an entry in a NapletState container.
type Mode int

// Protection modes, per §2.1.
const (
	// Private entries are accessible to the naplet only.
	Private Mode = iota
	// Protected entries are accessible to the naplet and to the specific
	// servers named when the entry was stored.
	Protected
	// Public entries are accessible to the naplet and to any naplet server
	// in the itinerary.
	Public
)

// String returns the lowercase mode name.
func (m Mode) String() string {
	switch m {
	case Private:
		return "private"
	case Protected:
		return "protected"
	case Public:
		return "public"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors reported by state access.
var (
	ErrNoSuchKey  = errors.New("state: no such key")
	ErrForbidden  = errors.New("state: access forbidden by protection mode")
	ErrNilValue   = errors.New("state: nil value")
	ErrBadPayload = errors.New("state: cannot decode payload")
	// ErrUnsupportedType rejects a value outside the transportable set.
	ErrUnsupportedType = errors.New("state: unsupported value type")
)

// entry is one keyed object with its protection metadata. Values are kept
// encoded so the container is always serializable and so stored values are
// isolated from later mutation by the caller.
type entry struct {
	Mode    Mode
	Servers []string // for Protected: sorted server names allowed to access
	Payload []byte   // value-codec encoding of the value
}

// State is the serializable container of application-specific agent state.
// It is safe for concurrent use: the paper allows agent threads and server
// components (e.g. a server updating a returning naplet's protected state)
// to touch the container.
//
// The zero value is not usable; call New.
type State struct {
	mu      sync.RWMutex
	entries map[string]entry
}

// New returns an empty state container.
func New() *State {
	return &State{entries: make(map[string]entry)}
}

// Set stores value under key with the given mode. For Protected entries,
// servers lists the server names allowed to access the entry; it is ignored
// for other modes. Storing replaces any previous entry under the key,
// including its protection metadata.
func (s *State) Set(key string, value any, mode Mode, servers ...string) error {
	payload, err := encodeValue(value)
	if err != nil {
		return err
	}
	var allowed []string
	if mode == Protected {
		allowed = append([]string(nil), servers...)
		sort.Strings(allowed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = entry{Mode: mode, Servers: allowed, Payload: payload}
	return nil
}

// SetPrivate is shorthand for Set(key, value, Private).
func (s *State) SetPrivate(key string, value any) error { return s.Set(key, value, Private) }

// SetPublic is shorthand for Set(key, value, Public).
func (s *State) SetPublic(key string, value any) error { return s.Set(key, value, Public) }

// SetProtected is shorthand for Set(key, value, Protected, servers...).
func (s *State) SetProtected(key string, value any, servers ...string) error {
	return s.Set(key, value, Protected, servers...)
}

// Get retrieves the value stored under key as the naplet itself (full
// access) and returns it as a decoded any.
func (s *State) Get(key string) (any, error) {
	s.mu.RLock()
	e, ok := s.entries[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchKey, key)
	}
	return decodePayload(e.Payload)
}

// Load retrieves the value under key into out, which must be *any or a
// pointer to the type that was stored (any type of the value codec's set).
func (s *State) Load(key string, out any) error {
	v, err := s.Get(key)
	if err != nil {
		return err
	}
	dst := reflect.ValueOf(out)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return fmt.Errorf("%w: out is %T, not a pointer", ErrUnsupportedType, out)
	}
	if src := reflect.ValueOf(v); src.Type().AssignableTo(dst.Type().Elem()) {
		dst.Elem().Set(src)
		return nil
	}
	return fmt.Errorf("%w: have %T want %s", ErrBadPayload, v, dst.Type().Elem())
}

// Delete removes the entry under key. Deleting a missing key is a no-op.
func (s *State) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, key)
}

// ModeOf returns the protection mode of the entry under key.
func (s *State) ModeOf(key string) (Mode, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[key]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchKey, key)
	}
	return e.Mode, nil
}

// Keys returns all keys in the container, sorted.
func (s *State) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return wire.SortedKeys(s.entries)
}

// Len reports the number of entries.
func (s *State) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// ServerView returns a restricted view of the container for the named
// server, enforcing the protection modes: Public entries are readable and
// writable, Protected entries only if the view's server is in the entry's
// allow list, Private entries never.
func (s *State) ServerView(server string) *ServerView {
	return &ServerView{state: s, server: server}
}

// ServerView is the server-side restricted view of a naplet's state. It is
// obtained from State.ServerView and applies §2.1's protection-mode rules.
type ServerView struct {
	state  *State
	server string
}

// Server returns the server name the view was created for.
func (v *ServerView) Server() string { return v.server }

func (v *ServerView) allowed(e entry) bool {
	switch e.Mode {
	case Public:
		return true
	case Protected:
		i := sort.SearchStrings(e.Servers, v.server)
		return i < len(e.Servers) && e.Servers[i] == v.server
	default:
		return false
	}
}

// Get retrieves the value under key if the view's server may access it.
func (v *ServerView) Get(key string) (any, error) {
	v.state.mu.RLock()
	e, ok := v.state.entries[key]
	v.state.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchKey, key)
	}
	if !v.allowed(e) {
		return nil, fmt.Errorf("%w: key %q is %s to server %q", ErrForbidden, key, e.Mode, v.server)
	}
	return decodePayload(e.Payload)
}

// Update overwrites the value of an existing entry, if the view's server may
// access it. The entry's protection mode and allow list are preserved: a
// server cannot widen access to a naplet's state (this is how "a naplet
// server can update a returning naplet with new information" works for
// protected entries, §2.1).
func (v *ServerView) Update(key string, value any) error {
	payload, err := encodeValue(value)
	if err != nil {
		return err
	}
	v.state.mu.Lock()
	defer v.state.mu.Unlock()
	e, ok := v.state.entries[key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchKey, key)
	}
	if !v.allowed(e) {
		return fmt.Errorf("%w: key %q is %s to server %q", ErrForbidden, key, e.Mode, v.server)
	}
	e.Payload = payload
	v.state.entries[key] = e
	return nil
}

// Keys lists the keys the view's server may access, sorted.
func (v *ServerView) Keys() []string {
	v.state.mu.RLock()
	defer v.state.mu.RUnlock()
	var keys []string
	for k, e := range v.state.entries {
		if v.allowed(e) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Clone returns a deep copy of the container, used when a naplet is cloned
// for a Par itinerary branch: each clone carries independent state.
func (s *State) Clone() *State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := New()
	for k, e := range s.entries {
		ce := entry{
			Mode:    e.Mode,
			Servers: append([]string(nil), e.Servers...),
			Payload: append([]byte(nil), e.Payload...),
		}
		c.entries[k] = ce
	}
	return c
}

// Size returns the total payload bytes held, an input to migration cost
// accounting.
func (s *State) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, e := range s.entries {
		n += len(e.Payload)
	}
	return n
}
