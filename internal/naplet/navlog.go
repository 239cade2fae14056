package naplet

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Hop is one server visit in the navigation log: arrival and departure
// times at a server (§2.1). A zero Depart means the naplet is still at (or
// ended its life at) the server.
type Hop struct {
	Server string
	Arrive time.Time
	Depart time.Time
}

// Dwell returns the time the naplet spent at the server, zero if it has
// not departed.
func (h Hop) Dwell() time.Duration {
	if h.Depart.IsZero() {
		return 0
	}
	return h.Depart.Sub(h.Arrive)
}

// Reroute records one failover decision: a planned visit that could not be
// reached (its destination presumed dead after the retry budget) and what
// the engine did instead. Reroutes are deliberately not hops — the naplet
// never arrived at Visit's server — but they keep the owner's
// post-analysis honest about the planned <C -> S; T> stops that were
// skipped, replaced, or abandoned.
type Reroute struct {
	// Visit is the unreachable visit in the paper's <C -> S; T> notation.
	Visit string
	// Policy is the failover policy applied ("skip", "alternate", "home").
	Policy string
	// Detail carries the dispatch error text.
	Detail string
	// At stamps the decision.
	At time.Time
}

// NavigationLog records the arrival and departure time information of the
// naplet at each server, providing the naplet owner with detailed travel
// information for post-analysis (§2.1). It is safe for concurrent use.
type NavigationLog struct {
	mu       sync.RWMutex
	hops     []Hop
	reroutes []Reroute
	// enc, while its raw is set, is the encoded log this one was decoded
	// from (binary.go), and hops holds only the hops recorded since: a dock
	// appends its arrival and departure to the encoded hops, and anything
	// that reads the log decodes it first.
	enc encodedLog
}

// decode turns a still-encoded log into hops and reroutes. Callers hold
// the write lock.
func (l *NavigationLog) decode() {
	if l.enc.raw != nil {
		l.hops, l.reroutes = decodeLog(l.enc, l.hops)
		l.enc = encodedLog{}
	}
}

// rlockDecoded read-locks l with its encoding decoded.
func (l *NavigationLog) rlockDecoded() {
	l.mu.RLock()
	if l.enc.raw == nil {
		return
	}
	l.mu.RUnlock()
	l.mu.Lock()
	l.decode()
	l.mu.Unlock()
	l.mu.RLock()
}

// NewNavigationLog returns an empty log.
func NewNavigationLog() *NavigationLog {
	return &NavigationLog{}
}

// RecordArrival appends a hop for the server with the given arrival time.
func (l *NavigationLog) RecordArrival(server string, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.enc.rerouted() {
		l.decode() // the reroutes' times chain on from the last hop's
	}
	l.hops = append(l.hops, Hop{Server: server, Arrive: at})
}

// RecordDeparture sets the departure time of the latest hop. It is an error
// to record a departure with no open hop or for a different server.
func (l *NavigationLog) RecordDeparture(server string, at time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.hops) == 0 {
		l.decode() // the open hop, if any, is an encoded one
	}
	if len(l.hops) == 0 {
		return fmt.Errorf("naplet: departure from %q with empty log", server)
	}
	last := &l.hops[len(l.hops)-1]
	if last.Server != server {
		return fmt.Errorf("naplet: departure from %q but last arrival was %q", server, last.Server)
	}
	if !last.Depart.IsZero() {
		return fmt.Errorf("naplet: duplicate departure from %q", server)
	}
	last.Depart = at
	return nil
}

// RecordReroute appends a failover record for an unreachable visit.
func (l *NavigationLog) RecordReroute(r Reroute) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.decode()
	l.reroutes = append(l.reroutes, r)
}

// Reroutes returns a copy of the recorded failover decisions in order.
func (l *NavigationLog) Reroutes() []Reroute {
	l.rlockDecoded()
	defer l.mu.RUnlock()
	return append([]Reroute(nil), l.reroutes...)
}

// Hops returns a copy of the recorded hops in order.
func (l *NavigationLog) Hops() []Hop {
	l.rlockDecoded()
	defer l.mu.RUnlock()
	return append([]Hop(nil), l.hops...)
}

// Len reports the number of recorded hops.
func (l *NavigationLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.enc.hops + len(l.hops)
}

// Current returns the open hop (arrived, not yet departed), if any.
func (l *NavigationLog) Current() (Hop, bool) {
	l.rlockDecoded()
	defer l.mu.RUnlock()
	if len(l.hops) == 0 {
		return Hop{}, false
	}
	last := l.hops[len(l.hops)-1]
	if last.Depart.IsZero() {
		return last, true
	}
	return Hop{}, false
}

// TotalDwell sums the time spent at servers across all completed hops.
func (l *NavigationLog) TotalDwell() time.Duration {
	l.rlockDecoded()
	defer l.mu.RUnlock()
	var total time.Duration
	for _, h := range l.hops {
		total += h.Dwell()
	}
	return total
}

// TotalTransit sums the time between departures and next arrivals: the time
// the naplet spent in the network.
func (l *NavigationLog) TotalTransit() time.Duration {
	l.rlockDecoded()
	defer l.mu.RUnlock()
	var total time.Duration
	for i := 1; i < len(l.hops); i++ {
		prev, cur := l.hops[i-1], l.hops[i]
		if !prev.Depart.IsZero() {
			total += cur.Arrive.Sub(prev.Depart)
		}
	}
	return total
}

// Route returns the sequence of visited server names.
func (l *NavigationLog) Route() []string {
	l.rlockDecoded()
	defer l.mu.RUnlock()
	out := make([]string, len(l.hops))
	for i, h := range l.hops {
		out[i] = h.Server
	}
	return out
}

// String renders the route compactly for logs: "a -> b -> c".
func (l *NavigationLog) String() string {
	return strings.Join(l.Route(), " -> ")
}

// Clone deep-copies the log; clones inherit the travel history that led to
// their creation. A still-encoded log shares its bytes, which nothing
// writes.
func (l *NavigationLog) Clone() *NavigationLog {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return &NavigationLog{
		hops:     append([]Hop(nil), l.hops...),
		reroutes: append([]Reroute(nil), l.reroutes...),
		enc:      l.enc,
	}
}
