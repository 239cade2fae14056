// Package shard partitions the directory namespace across a set of
// directory nodes and replicates each partition over a small replica
// group.
//
// Placement uses rendezvous (highest-random-weight) hashing over the
// hierarchical NapletID's owner/home prefix: every client independently
// scores each directory node against the key and picks the top-R scorers
// as the key's replica group. Unlike a modulo table, a node joining or
// leaving moves only ~K/N of the keys (the ones whose top-R set changes)
// and requires no coordination — all clients converge on the same owners
// from the member list alone. Keying by owner/home prefix keeps a naplet
// and its clones on the same shard, mirroring the hierarchical
// distributed-manager architectures for large mobile-agent populations.
//
// The replica group gives the plane its availability: registrations write
// through to every live replica, and lookups prefer the highest-scored
// live replica, failing over on health signals. A lookup that finds
// nothing on one replica consults the rest of the group before reporting
// not-found, so a registration acknowledged by any surviving replica is
// always readable — the read-your-writes form of the paper's
// "execution postponed until arrival is acknowledged" invariant.
package shard

import (
	"sort"

	"repro/internal/id"
)

// KeyOf returns the shard key of a naplet: the owner/home prefix of its
// hierarchical ID. Clones share it, so a lineage is co-located.
func KeyOf(nid id.NapletID) string {
	return nid.Owner() + "@" + nid.Host()
}

// Ring is a rendezvous-hash view over a fixed member list. It is immutable
// and safe for concurrent use; membership changes build a new Ring.
type Ring struct {
	nodes []string
}

// NewRing builds a ring over the given directory-node addresses.
// Duplicates are dropped; order does not matter (all clients converge on
// the same placement from the same member set).
func NewRing(nodes []string) *Ring {
	seen := make(map[string]struct{}, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" {
			continue
		}
		if _, ok := seen[n]; ok {
			continue
		}
		seen[n] = struct{}{}
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	return &Ring{nodes: uniq}
}

// Nodes returns the member list (sorted, deduplicated).
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// FNV-1a 64-bit parameters; inlined rather than hash/fnv so scoring stays
// allocation-free on the per-lookup routing path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// score is the rendezvous weight of node for key: FNV-1a over
// node \x00 key. Any well-mixed hash works; FNV keeps the ring
// dependency-free and allocation-free.
func score(node, key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // the \x00 separator: XOR with zero, multiply
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// Owners returns the key's replica group: the n highest-scoring members in
// preference order (the first entry is the primary a lookup tries first).
// Ties break by address so placement is deterministic everywhere.
//
// This runs on every routed register and lookup, so it selects the top n
// by scanning rather than sorting: one allocation (the result), stack
// scratch for typical ring sizes.
func (r *Ring) Owners(key string, n int) []string {
	nn := len(r.nodes)
	if n <= 0 || nn == 0 {
		return nil
	}
	if n > nn {
		n = nn
	}
	var scoreStack [16]uint64
	var pickedStack [16]bool
	scores, picked := scoreStack[:], pickedStack[:]
	if nn > len(scoreStack) {
		scores = make([]uint64, nn)
		picked = make([]bool, nn)
	}
	for i, node := range r.nodes {
		scores[i] = score(node, key)
	}
	out := make([]string, n)
	for k := 0; k < n; k++ {
		// r.nodes is sorted ascending, so keeping the first of equal
		// scores is exactly the address tie-break.
		best := -1
		for i := 0; i < nn; i++ {
			if !picked[i] && (best < 0 || scores[i] > scores[best]) {
				best = i
			}
		}
		picked[best] = true
		out[k] = r.nodes[best]
	}
	return out
}
