// Package dedup provides a bounded, TTL-evicting window of recently seen
// identifiers: the idempotency primitive behind exactly-once effects over
// an at-least-once network.
//
// The navigator remembers accepted transfer IDs so a replayed TRANSFER
// frame (a retry after a lost acknowledgement, or an injected duplicate)
// cannot land the same naplet twice; the messenger remembers delivered
// message IDs so a duplicated post is re-confirmed instead of enqueued
// again. Both need the same structure: membership over the recent past,
// with memory bounded by a capacity and an age limit so a long-lived
// server does not accumulate every identifier it ever saw.
package dedup

import (
	"sync"
	"time"
)

// Window remembers up to max identifiers for at most ttl. It is safe for
// concurrent use.
type Window struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	clock   func() time.Time
	entries map[string]time.Time
	order   []string // insertion order, oldest first
}

// Default bounds applied when NewWindow receives zero values.
const (
	DefaultMax = 4096
	DefaultTTL = 5 * time.Minute
)

// NewWindow builds a window holding at most max identifiers for at most
// ttl. max ≤ 0 and ttl ≤ 0 select the package defaults; nil clock means
// time.Now.
func NewWindow(max int, ttl time.Duration, clock func() time.Time) *Window {
	if max <= 0 {
		max = DefaultMax
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if clock == nil {
		clock = time.Now
	}
	return &Window{
		max:     max,
		ttl:     ttl,
		clock:   clock,
		entries: make(map[string]time.Time),
	}
}

// Seen reports whether id was marked within the window's bounds. Expired
// entries do not count (and are dropped lazily by the next Mark).
func (w *Window) Seen(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	at, ok := w.entries[id]
	if !ok {
		return false
	}
	if w.clock().Sub(at) > w.ttl {
		return false
	}
	return true
}

// Mark records id as seen now, evicting expired entries and — when the
// window is full — the oldest entry. Re-marking a present id refreshes its
// timestamp without growing the window.
func (w *Window) Mark(id string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.clock()
	w.evictLocked(now)
	if _, ok := w.entries[id]; ok {
		w.entries[id] = now
		return
	}
	if len(w.entries) >= w.max {
		w.dropOldestLocked()
	}
	w.entries[id] = now
	w.order = append(w.order, id)
}

// Keys returns the retained, unexpired identifiers in insertion order, for
// persisting the window across a restart. Restore by Marking each key into
// a fresh window.
func (w *Window) Keys() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.clock()
	out := make([]string, 0, len(w.entries))
	seen := make(map[string]bool, len(w.entries))
	for _, id := range w.order {
		at, ok := w.entries[id]
		if !ok || seen[id] || now.Sub(at) > w.ttl {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

// Len reports the number of retained identifiers (including any expired
// entries not yet evicted).
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

// evictLocked drops entries older than ttl from the front of the order
// queue. Refreshed entries may appear out of order; those are skipped here
// and reaped when their queue position ages out.
func (w *Window) evictLocked(now time.Time) {
	for len(w.order) > 0 {
		id := w.order[0]
		at, ok := w.entries[id]
		if ok && now.Sub(at) <= w.ttl {
			return
		}
		w.order = w.order[1:]
		if ok {
			delete(w.entries, id)
		}
	}
}

// dropOldestLocked removes the single oldest entry to make room.
func (w *Window) dropOldestLocked() {
	for len(w.order) > 0 {
		id := w.order[0]
		w.order = w.order[1:]
		if _, ok := w.entries[id]; ok {
			delete(w.entries, id)
			return
		}
	}
}
