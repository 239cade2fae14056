// Package manager implements the NapletManager of §2.2: the per-server
// component that launches local naplets, tracks their execution states, and
// records the footprints of all past and current alien naplets.
//
// The manager keeps three bodies of information:
//
//   - the naplet table of locally launched naplets (status, results,
//     listener callbacks);
//   - the visit trace of every naplet that passed through this server
//     (source, destination, times) — the basis of message forwarding in a
//     system without directory services (§4.1);
//   - the home track: last known locations of naplets whose home is this
//     server, maintained from remote arrival/departure reports, providing
//     the distributed directory mode (§4.1: "the naplet location
//     information can be maintained in their home managers").
package manager

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/id"
)

// Status is the life-cycle state of a naplet as seen by a manager.
type Status int

// Naplet statuses.
const (
	StatusLaunched Status = iota
	StatusRunning
	StatusSuspended
	StatusInTransit
	StatusCompleted
	StatusTerminated
	StatusTrapped
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusLaunched:
		return "launched"
	case StatusRunning:
		return "running"
	case StatusSuspended:
		return "suspended"
	case StatusInTransit:
		return "in-transit"
	case StatusCompleted:
		return "completed"
	case StatusTerminated:
		return "terminated"
	case StatusTrapped:
		return "trapped"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Terminal reports whether the status is a final one.
func (s Status) Terminal() bool {
	return s == StatusCompleted || s == StatusTerminated || s == StatusTrapped
}

// Footprint is the permanent record of one naplet visit at this server
// ("footprints of all past and current alien naplets are also recorded for
// management purposes", §2.2).
type Footprint struct {
	NapletID  id.NapletID
	Codebase  string
	Source    string
	Dest      string
	ArrivedAt time.Time
	LeftAt    time.Time
}

// Trace is the manager's answer to "where is naplet X": present here, or
// forwarded to Dest, or never seen.
type Trace struct {
	// Known reports whether the naplet ever visited this server.
	Known bool
	// Present reports whether the naplet is currently at this server.
	Present bool
	// Dest is the server the naplet departed to, when Known && !Present.
	Dest string
}

// Result is one report delivered by a travelling naplet to its home.
type Result struct {
	NapletID   id.NapletID
	Body       []byte
	ReceivedAt time.Time
}

// Listener receives reports from a locally launched naplet, the Go form of
// the paper's NapletListener callback.
type Listener func(Result)

// EndKey identifies one end of a naplet's life: the dock it ended at and
// the length of its navigation log there. A retried or duplicated report of
// that end carries the same key; a held copy and its live copy end under
// two.
type EndKey struct {
	Dock string
	Len  int
}

// launched tracks one locally launched naplet.
type launched struct {
	status   Status
	err      string
	listener Listener
	results  []Result
	ends     []EndKey      // the ends already recorded
	done     chan struct{} // closed on terminal status
}

// visit tracks one naplet's presence at this server for tracing.
type visit struct {
	present bool
	dest    string
	// seq is the location sequence of the naplet's arrival at dest.
	seq uint64
}

// Errors reported by the manager.
var ErrUnknown = errors.New("manager: unknown naplet")

// Manager is the per-server NapletManager. It is safe for concurrent use.
type Manager struct {
	server string
	clock  func() time.Time

	mu         sync.Mutex
	launchedT  map[string]*launched
	visits     map[string]*visit
	footprints []Footprint
	homeTrack  map[string]homeEntry
}

// homeEntry is the home-manager directory record for one home naplet.
type homeEntry struct {
	server  string
	arrival bool
	seq     uint64
	at      time.Time
}

// newer reports whether a report of (seq, at) supersedes e: the higher
// navigation-log sequence, and at equal sequence the later report, as the
// directory orders its entries. Docks' clocks disagree; the log does not.
func (e homeEntry) newer(seq uint64, at time.Time) bool {
	if seq != e.seq {
		return seq > e.seq
	}
	return !at.Before(e.at)
}

// New builds the manager of the named server; nil clock means time.Now.
func New(server string, clock func() time.Time) *Manager {
	if clock == nil {
		clock = time.Now
	}
	return &Manager{
		server:    server,
		clock:     clock,
		launchedT: make(map[string]*launched),
		visits:    make(map[string]*visit),
		homeTrack: make(map[string]homeEntry),
	}
}

// Server returns the name of the server this manager belongs to.
func (m *Manager) Server() string { return m.server }

// ---- Locally launched naplets (the naplet table) ----

// RecordLaunch registers a locally launched naplet with its result
// listener (which may be nil).
func (m *Manager) RecordLaunch(nid id.NapletID, listener Listener) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.launchedT[nid.Key()] = &launched{
		status:   StatusLaunched,
		listener: listener,
		done:     make(chan struct{}),
	}
}

// SetStatus records a non-terminal status (running, in transit) of a
// locally launched naplet; an end goes through End. Unknown naplets and
// ended ones are left alone: a dispatch's in-transit write can come after
// the naplet already ended at its destination.
func (m *Manager) SetStatus(nid id.NapletID, s Status) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l, ok := m.launchedT[nid.Key()]; ok && !l.status.Terminal() {
		l.status = s
	}
}

// Status returns the current status of a locally launched naplet.
func (m *Manager) Status(nid id.NapletID) (Status, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.launchedT[nid.Key()]
	if !ok {
		return 0, "", fmt.Errorf("%w: %s", ErrUnknown, nid)
	}
	return l.status, l.err, nil
}

// entry returns the table entry of a naplet, creating one for a naplet the
// home first hears of by its report: clones report under their own ID and
// inherit the originator's listener when one exists. m.mu held.
func (m *Manager) entry(nid id.NapletID) *launched {
	l, ok := m.launchedT[nid.Key()]
	if !ok {
		l = &launched{status: StatusRunning, done: make(chan struct{})}
		if root, rok := m.launchedT[nid.Root().Key()]; rok {
			l.listener = root.listener
		}
		m.launchedT[nid.Key()] = l
	}
	return l
}

// Deliver dispatches a mid-tour report from a travelling naplet to its
// listener and stores it in the result log. Reports for unknown naplets
// (e.g. clones the home first hears of via their report) create a table
// entry on the fly, so "the spawned naplets will report their results
// individually" (§6.2) works without pre-registration.
func (m *Manager) Deliver(nid id.NapletID, body []byte) {
	res := Result{NapletID: nid, Body: append([]byte(nil), body...), ReceivedAt: m.clock()}
	m.mu.Lock()
	l := m.entry(nid)
	l.results = append(l.results, res)
	listener := l.listener
	m.mu.Unlock()
	if listener != nil {
		listener(res)
	}
}

// End records the end of a naplet's life: the results it reported while
// ending and its terminal status. A replay of an end already recorded
// (same key) is dropped whole, so a retried or duplicated end report
// reaches the listener once. The listener runs before WaitDone returns, and
// the first terminal status wins: a held copy's trap and its live copy's
// completion are two ends, both of whose results are delivered. Unknown
// naplets get an entry as in Deliver.
func (m *Manager) End(nid id.NapletID, key EndKey, s Status, errText string, results [][]byte) {
	m.mu.Lock()
	l := m.entry(nid)
	if slices.Contains(l.ends, key) {
		m.mu.Unlock()
		return
	}
	l.ends = append(l.ends, key)
	m.mu.Unlock()
	for _, body := range results {
		m.Deliver(nid, body)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !l.status.Terminal() {
		l.status, l.err = s, errText
		close(l.done)
	}
}

// Results returns the reports received from a naplet.
func (m *Manager) Results(nid id.NapletID) []Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.launchedT[nid.Key()]
	if !ok {
		return nil
	}
	return append([]Result(nil), l.results...)
}

// WaitDone blocks until the naplet reaches a terminal status or ctx ends.
func (m *Manager) WaitDone(ctx context.Context, nid id.NapletID) (Status, error) {
	m.mu.Lock()
	l, ok := m.launchedT[nid.Key()]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknown, nid)
	}
	select {
	case <-l.done:
		s, _, err := m.Status(nid)
		return s, err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// ---- Visit traces and footprints ----

// RecordArrival notes that a naplet landed here from source.
func (m *Manager) RecordArrival(nid id.NapletID, codebase, source string, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.visits[nid.Key()] = &visit{present: true}
	m.footprints = append(m.footprints, Footprint{
		NapletID: nid, Codebase: codebase, Source: source, ArrivedAt: at,
	})
}

// RecordDeparture is Depart for a caller that does not track the
// naplet's log: the trace forwards, but a closing dock's re-point of it
// carries sequence 0.
func (m *Manager) RecordDeparture(nid id.NapletID, dest string, at time.Time) error {
	return m.Depart(nid, dest, 0, at)
}

// Depart notes that a naplet left here toward dest, where its arrival has
// location sequence seq. The visit trace then forwards to dest (§4.1: "the
// message will be forwarded to the server for which the naplet left").
func (m *Manager) Depart(nid id.NapletID, dest string, seq uint64, at time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.visits[nid.Key()]
	if !ok || !v.present {
		return fmt.Errorf("%w: departure of %s not preceded by arrival", ErrUnknown, nid)
	}
	v.present = false
	v.dest = dest
	v.seq = seq
	for i := len(m.footprints) - 1; i >= 0; i-- {
		if m.footprints[i].NapletID.Equal(nid) && m.footprints[i].LeftAt.IsZero() {
			m.footprints[i].Dest = dest
			m.footprints[i].LeftAt = at
			break
		}
	}
	return nil
}

// RecordEnd notes that a naplet's life cycle ended at this server (no
// forwarding destination).
func (m *Manager) RecordEnd(nid id.NapletID, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.visits[nid.Key()]; ok {
		v.present = false
		v.dest = ""
	}
	for i := len(m.footprints) - 1; i >= 0; i-- {
		if m.footprints[i].NapletID.Equal(nid) && m.footprints[i].LeftAt.IsZero() {
			m.footprints[i].LeftAt = at
			break
		}
	}
}

// CompressTrace shortcuts this server's forwarding pointer for a departed
// naplet straight to dest (path compression on the paper's forwarding
// chains): once a chased message confirms where the naplet actually is,
// later messages forwarded through here jump the intermediate hops. A
// present naplet's trace is left untouched.
func (m *Manager) CompressTrace(nid id.NapletID, dest string) {
	if dest == "" || dest == m.server {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.visits[nid.Key()]; ok && !v.present && v.dest != "" {
		v.dest = dest
	}
}

// TraceNaplet answers a tracing request against the visit records.
func (m *Manager) TraceNaplet(nid id.NapletID) Trace {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.visits[nid.Key()]
	if !ok {
		return Trace{}
	}
	return Trace{Known: true, Present: v.present, Dest: v.dest}
}

// Departure is the visit trace of a naplet that left this server alive:
// where it went, and the location sequence of its arrival there.
type Departure struct {
	NapletID id.NapletID
	Dest     string
	Seq      uint64
}

// Departures lists the traces of the naplets that left here alive and are
// not back: what a closing dock re-points the directory along.
func (m *Manager) Departures() []Departure {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Departure
	for key, v := range m.visits {
		if v.present || v.dest == "" {
			continue
		}
		if nid, err := id.Parse(key); err == nil {
			out = append(out, Departure{NapletID: nid, Dest: v.dest, Seq: v.seq})
		}
	}
	return out
}

// Footprints returns the recorded footprints in arrival order.
func (m *Manager) Footprints() []Footprint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Footprint(nil), m.footprints...)
}

// Resident reports how many naplets are currently present.
func (m *Manager) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, v := range m.visits {
		if v.present {
			n++
		}
	}
	return n
}

// ---- Home-manager distributed directory (§4.1) ----

// HomeRecord stores a remote arrival report for a naplet whose home is
// this server, made with location sequence seq at the reporting dock's
// time at. A report older by sequence than the one held is stale.
func (m *Manager) HomeRecord(nid id.NapletID, server string, arrival bool, seq uint64, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.homeTrack[nid.Key()]
	if ok && !cur.newer(seq, at) {
		return // stale report
	}
	m.homeTrack[nid.Key()] = homeEntry{server: server, arrival: arrival, seq: seq, at: at}
}

// HomeLocate answers a home-directory location query: the last reported
// server of a home naplet.
func (m *Manager) HomeLocate(nid id.NapletID) (server string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, found := m.homeTrack[nid.Key()]
	if !found {
		return "", false
	}
	return e.server, true
}

// HomeEvent is one externalized home-track record, exchanged with the dock
// snapshot so a restarted home server still answers location queries for
// the naplets it launched.
type HomeEvent struct {
	ID      string
	Server  string
	Arrival bool
	Seq     uint64
	At      time.Time
}

// HomeSnapshot copies the home-track table.
func (m *Manager) HomeSnapshot() []HomeEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]HomeEvent, 0, len(m.homeTrack))
	for key, e := range m.homeTrack {
		out = append(out, HomeEvent{ID: key, Server: e.server, Arrival: e.arrival, Seq: e.seq, At: e.at})
	}
	return out
}

// RestoreHome reseeds the home-track table from a dock snapshot; newer
// live entries (reports that raced the restore) win over restored ones.
func (m *Manager) RestoreHome(evs []HomeEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ev := range evs {
		cur, ok := m.homeTrack[ev.ID]
		if ok && !cur.newer(ev.Seq, ev.At) {
			continue
		}
		m.homeTrack[ev.ID] = homeEntry{server: ev.Server, arrival: ev.Arrival, seq: ev.Seq, at: ev.At}
	}
}
