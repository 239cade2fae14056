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
	"slices"
	"strings"
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
	Mode Mode
	// Servers lists the server names allowed to access a Protected entry,
	// kept as wire.AppendStrings encodes it: an entry decoded from a
	// record reads its list where it lies. Set sorts the names.
	Servers []byte
	Payload []byte // value-codec encoding of the value
}

// State is the serializable container of application-specific agent state.
// It is safe for concurrent use: the paper allows agent threads and server
// components (e.g. a server updating a returning naplet's protected state)
// to touch the container.
//
// The zero value is not usable; call New.
type State struct {
	mu sync.RWMutex
	// raw is the encoded container (binary.go) the state was decoded
	// from, or New's empty one, and written the keys set or deleted on it
	// since, sorted, which take precedence over raw's: a dock that writes
	// one key of a landed state pays for that key alone. A read of one key
	// looks in written, then searches raw; AppendBinary re-emits raw
	// verbatim, or merges written into it, and a listing walks that merge.
	// Nothing writes raw's bytes: records and walks alias them.
	raw     []byte
	written []keyed
	added   int // keys written adds to raw's, less those it deletes
}

// keyed is an entry written over raw, with its key; with gone set, the
// delete of the key.
type keyed struct {
	key string
	entry
	gone bool
}

// emptyContainer is the encoding of an empty container, which New's
// states share.
var emptyContainer = []byte{0}

// New returns an empty state container.
func New() *State {
	return &State{raw: emptyContainer}
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
	s.store(key, payload, mode, servers)
	return nil
}

// SetStringMap stores the map[string]string the key-value pairs make
// under key, a later pair replacing an earlier one under the same key, in
// the bytes Set writes for that map; but the pairs are encoded where they
// lie, with no Go map between. pairs is sorted in place.
func (s *State) SetStringMap(key string, pairs [][2]string, mode Mode, servers ...string) {
	slices.SortStableFunc(pairs, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
	kept := pairs[:0]
	for i, p := range pairs {
		if i+1 == len(pairs) || pairs[i+1][0] != p[0] {
			kept = append(kept, p)
		}
	}
	bp := valueBufPool.Get().(*[]byte)
	defer valueBufPool.Put(bp)
	*bp = wire.AppendStringPairs(append((*bp)[:0], tagStringMap), kept)
	s.store(key, append([]byte(nil), *bp...), mode, servers)
}

// store writes the entry of an encoded value.
func (s *State) store(key string, payload []byte, mode Mode, servers []string) {
	var allowed []byte
	if mode == Protected {
		var stack [8]string
		names := append(stack[:0], servers...)
		slices.Sort(names)
		allowed = wire.AppendStrings(nil, names)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(keyed{key: key, entry: entry{Mode: mode, Servers: allowed, Payload: payload}})
}

// put lays k over the encoding. Callers hold the write lock.
func (s *State) put(k keyed) {
	i, ok := s.search(k.key)
	live := ok && !s.written[i].gone
	if !ok {
		_, live = find(s.raw, k.key)
	}
	switch {
	case !live && k.gone:
		return
	case !live:
		s.added++
	case k.gone:
		s.added--
	}
	if ok {
		s.written[i] = k
		return
	}
	s.written = slices.Insert(s.written, i, k)
}

// search finds key in written: its index, or where it would go.
func (s *State) search(key string) (int, bool) {
	return slices.BinarySearchFunc(s.written, key, func(w keyed, key string) int { return strings.Compare(w.key, key) })
}

// lookup returns the entry under key, from what was written over the
// encoding and then the encoding. Callers hold the read lock.
func (s *State) lookup(key string) (entry, bool) {
	if i, ok := s.search(key); ok {
		return s.written[i].entry, !s.written[i].gone
	}
	return find(s.raw, key)
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
	e, ok := s.lookup(key)
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
	s.put(keyed{key: key, gone: true})
}

// Has reports whether an entry is stored under key: the check before a
// Load that may miss, without the error a miss builds.
func (s *State) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.lookup(key)
	return ok
}

// ModeOf returns the protection mode of the entry under key.
func (s *State) ModeOf(key string) (Mode, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.lookup(key)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchKey, key)
	}
	return e.Mode, nil
}

// Keys returns all keys in the container, sorted.
func (s *State) Keys() []string { return s.keys("", nil) }

// KeysWithPrefix returns the keys that start with prefix, sorted.
func (s *State) KeysWithPrefix(prefix string) []string { return s.keys(prefix, nil) }

// keys lists the keys that start with prefix and whose entry keep
// accepts (all for nil), sorted. They are read where they lie, gathered
// on the stack while they fit, and cut from one string: a listing costs
// that string and the slice.
func (s *State) keys(prefix string, keep func(entry) bool) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	listed, ends := make([]byte, 0, 512), make([]int, 0, 32)
	m := s.merge()
	for key, ok := m.next(make([]byte, 0, 64)); ok; key, ok = m.next(key) {
		n := min(len(key), len(prefix))
		if string(key[:n]) > prefix {
			break // past the prefix's run
		}
		if n == len(prefix) && string(key[:n]) == prefix && (keep == nil || keep(m.e)) {
			listed = append(listed, key...)
			ends = append(ends, len(listed))
		}
	}
	if len(ends) == 0 {
		return nil
	}
	all, start, keys := string(listed), 0, make([]string, len(ends))
	for i, end := range ends {
		keys[i], start = all[start:end], end
	}
	return keys
}

// Len reports the number of keys.
func (s *State) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count()
}

// count is Len under the read lock.
func (s *State) count() int {
	n, _, _ := wire.DecUvarint(s.raw) // the count leads the container
	return int(n) + s.added
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
		n, b, err := wire.DecCount(e.Servers, 1)
		for i := 0; i < n && err == nil; i++ {
			var name []byte
			if name, b, err = wire.DecBytes(b); err == nil && string(name) == v.server {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Get retrieves the value under key if the view's server may access it.
func (v *ServerView) Get(key string) (any, error) {
	v.state.mu.RLock()
	e, ok := v.state.lookup(key)
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
	e, ok := v.state.lookup(key)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchKey, key)
	}
	if !v.allowed(e) {
		return fmt.Errorf("%w: key %q is %s to server %q", ErrForbidden, key, e.Mode, v.server)
	}
	e.Payload = payload
	v.state.put(keyed{key: key, entry: e})
	return nil
}

// Keys lists the keys the view's server may access, sorted.
func (v *ServerView) Keys() []string { return v.state.keys("", v.allowed) }

// Clone returns a deep copy of the container, used when a naplet is cloned
// for a Par itinerary branch: each clone carries independent state. The
// copy shares the encoding and the payloads written over it, which nothing
// writes.
func (s *State) Clone() *State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &State{raw: s.raw, written: slices.Clone(s.written), added: s.added}
}
