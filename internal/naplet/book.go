package naplet

import (
	"sort"
	"sync"

	"repro/internal/id"
	"repro/internal/wire"
)

// AddressEntry associates a naplet identifier with a known residing server.
// "The locations may not be current, but they provide a way of tracing and
// locating." (§2.1)
type AddressEntry struct {
	// NapletID identifies the peer naplet.
	NapletID id.NapletID
	// ServerURN is a server the peer was known to reside on; it is a
	// tracing starting point, not necessarily the current location.
	ServerURN string
}

// AddressBook holds the identifiers and initial locations of the naplets a
// naplet may communicate with (§2.1). Communication is restricted to
// naplets whose identifiers appear in the book. The book can be altered as
// the naplet grows and is inherited on clone. It is safe for concurrent use
// (the messenger reads it while the agent may be extending it).
type AddressBook struct {
	mu sync.RWMutex
	// entries is keyed by NapletID.Key(): the text the identifier carries,
	// so filing under it formats and allocates nothing.
	entries map[string]AddressEntry
	// raw, while entries is nil, is the encoded book this one was decoded
	// from (binary.go): AppendBinary re-emits it and Len reads its count;
	// anything else decodes it first.
	raw []byte
}

// NewAddressBook returns an empty address book.
func NewAddressBook() *AddressBook {
	return &AddressBook{entries: make(map[string]AddressEntry)}
}

// decode turns a still-encoded book into entries. Callers hold the write
// lock.
func (b *AddressBook) decode() {
	if b.entries == nil {
		b.entries, b.raw = decodeBook(b.raw), nil
	}
}

// rlockDecoded read-locks b with its entries decoded.
func (b *AddressBook) rlockDecoded() {
	b.mu.RLock()
	if b.entries != nil {
		return
	}
	b.mu.RUnlock()
	b.mu.Lock()
	b.decode()
	b.mu.Unlock()
	b.mu.RLock()
}

// Add records (or replaces) the entry for a peer naplet.
func (b *AddressBook) Add(nid id.NapletID, serverURN string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decode()
	b.entries[nid.Key()] = AddressEntry{NapletID: nid, ServerURN: serverURN}
}

// Remove deletes a peer's entry.
func (b *AddressBook) Remove(nid id.NapletID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decode()
	delete(b.entries, nid.Key())
}

// Lookup returns the entry for a peer, if present.
func (b *AddressBook) Lookup(nid id.NapletID) (AddressEntry, bool) {
	b.rlockDecoded()
	defer b.mu.RUnlock()
	e, ok := b.entries[nid.Key()]
	return e, ok
}

// Knows reports whether the peer is in the book; the messenger refuses to
// post to unknown peers.
func (b *AddressBook) Knows(nid id.NapletID) bool {
	_, ok := b.Lookup(nid)
	return ok
}

// Update refreshes the known server of an existing entry; it is a no-op for
// absent peers (locator cache refreshes must not grow the book).
func (b *AddressBook) Update(nid id.NapletID, serverURN string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decode()
	key := nid.Key()
	if e, ok := b.entries[key]; ok {
		e.ServerURN = serverURN
		b.entries[key] = e
	}
}

// Entries returns all entries sorted by identifier key, a stable order for
// collective-communication post-actions (cf. the paper's DataComm).
func (b *AddressBook) Entries() []AddressEntry {
	b.rlockDecoded()
	defer b.mu.RUnlock()
	keys := make([]string, 0, len(b.entries))
	for k := range b.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]AddressEntry, len(keys))
	for i, k := range keys {
		out[i] = b.entries[k]
	}
	return out
}

// Len reports the number of entries.
func (b *AddressBook) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.entries == nil {
		n, _, _ := wire.DecUvarint(b.raw) // the count leads the book
		return int(n)
	}
	return len(b.entries)
}

// Merge copies every entry of other into b, replacing duplicates.
func (b *AddressBook) Merge(other *AddressBook) {
	for _, e := range other.Entries() {
		b.Add(e.NapletID, e.ServerURN)
	}
}

// Clone deep-copies the book; clones inherit their parent's address book.
// A still-encoded book shares its bytes, which nothing writes.
func (b *AddressBook) Clone() *AddressBook {
	b.mu.RLock()
	raw := b.raw
	b.mu.RUnlock()
	if raw != nil {
		return &AddressBook{raw: raw}
	}
	c := NewAddressBook()
	c.Merge(b)
	return c
}
