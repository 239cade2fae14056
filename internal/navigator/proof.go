package navigator

import "sync"

// proofs is an origin's memory of which destinations recently accepted
// which code digest: the licence to send a transfer without a landing
// request first. It only ever errs towards asking — an entry is written by
// an accepted dispatch and the whole destination is dropped on any failed
// call, refusal or re-ask for code — and it is bounded: forgetting a proof
// costs one landing request.
type proofs struct {
	mu sync.Mutex
	by map[string][]string // destination -> digests it accepted, oldest first
}

// Bounds of the proof set. A dock talks to a handful of next stops and
// runs a handful of codebases; past the bounds an arbitrary destination or
// the oldest digest goes.
const (
	maxProvenDests   = 1024
	maxProvenDigests = 8
)

func (p *proofs) has(dest, digest string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.by[dest] {
		if d == digest {
			return true
		}
	}
	return false
}

// add records that dest accepted digest. An unknown (empty) digest proves
// nothing: the destination matched the code by name only.
func (p *proofs) add(dest, digest string) {
	if digest == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ds := p.by[dest]
	for _, d := range ds {
		if d == digest {
			return
		}
	}
	if ds == nil && len(p.by) >= maxProvenDests {
		for victim := range p.by {
			delete(p.by, victim)
			break
		}
	}
	if len(ds) >= maxProvenDigests {
		ds = ds[1:]
	}
	if p.by == nil {
		p.by = make(map[string][]string)
	}
	p.by[dest] = append(ds, digest)
}

func (p *proofs) drop(dest string) {
	p.mu.Lock()
	delete(p.by, dest)
	p.mu.Unlock()
}
