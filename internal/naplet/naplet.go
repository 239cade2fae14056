// Package naplet implements the Naplet class of §2.1 of the paper: the
// generic mobile agent abstraction that applications extend.
//
// A naplet's serializable closure is a Record: its immutable identity and
// credential, the codebase name of its behaviour, its protected state
// container, its itinerary, address book, and navigation log. Behaviour is
// code and cannot be serialized in Go, so it is referenced by codebase name
// and reconstructed from the codebase registry at each landing — the
// mechanical analogue of the paper's lazy class loading (§2.2 of DESIGN.md
// documents this substitution).
//
// Applications implement the Behavior interface (the paper's onStart hook)
// and optionally the Interruptible, Stoppable, and Destroyable hooks, and
// interact with the hosting server exclusively through the transient
// Context installed by the server's resource manager on arrival.
package naplet

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/state"
)

// Behavior is the application-specific agent logic: the paper's abstract
// onStart() method, "a single entry point when the naplet arrives at a
// host". OnStart runs once per server visit, inside the naplet's confined
// monitor group. Returning an error traps the naplet: execution stops and
// the error is reported to the home manager.
type Behavior interface {
	OnStart(ctx *Context) error
}

// Interruptible is implemented by behaviours that react to system messages:
// the paper's onInterrupt() hook, invoked by the Messenger when a control
// message (callback, terminate, suspend, resume) is cast onto the naplet.
// "How the control message should be reacted by the naplet is left
// unspecified. It is defined by the naplet creator."
type Interruptible interface {
	OnInterrupt(ctx *Context, msg Message) error
}

// Stoppable is implemented by behaviours that need the onStop() hook,
// invoked when the naplet departs a server after a completed visit.
type Stoppable interface {
	OnStop(ctx *Context)
}

// Destroyable is implemented by behaviours that need the onDestroy() hook,
// invoked once when the naplet's life cycle ends (itinerary complete or
// terminated).
type Destroyable interface {
	OnDestroy(ctx *Context)
}

// Record is the serializable closure of a naplet: everything that travels
// when the agent migrates (binary.go is its codec). Code outside the
// runtime should treat the fields as read-only and use the accessors on
// Context.
type Record struct {
	// ID is the system-wide unique immutable identifier (§2.1, Figure 1).
	ID id.NapletID
	// Credential certifies ID and Codebase with the creator's signature.
	Credential cred.Credential
	// Codebase names the behaviour in the codebase registry; the paper's
	// immutable codebase URL.
	Codebase string
	// Home is the server name of the naplet's home server, where its
	// manager and listener live.
	Home string
	// State is the protected serializable container of application state.
	State *state.State
	// Itin is the remaining travel plan.
	Itin *itinerary.Itinerary
	// Book is the address book for inter-naplet communication.
	Book *AddressBook
	// Log is the navigation log of arrivals and departures.
	Log *NavigationLog
	// Pending is the visit the naplet is travelling to execute: set by the
	// origin server when dispatching, consumed by the destination's visit
	// engine (its Action runs after OnStart there).
	Pending itinerary.Visit
	// PendingAlts are the Alt-node alternatives to the Pending visit,
	// captured at decision time: complete replacement itineraries the
	// origin falls back to when dispatch exhausts against a dead
	// destination (FailoverAlternates). Cleared on landing.
	PendingAlts []*itinerary.Pattern
	// Failover selects how the visit engine reacts when dispatch to the
	// next server exhausts its retry budget against a dead peer.
	Failover FailoverPolicy
	// CloneSeq numbers the clones this naplet has spawned, so Par forks
	// allocate unique heritage indices across the whole life cycle.
	CloneSeq int
}

// FailoverPolicy names the visit engine's reaction to a dead destination.
type FailoverPolicy string

// Failover policies.
const (
	// FailoverNone traps the naplet (the pre-failover behaviour).
	FailoverNone FailoverPolicy = ""
	// FailoverSkip records the unreachable visit in the navigation log
	// and continues with the rest of the itinerary.
	FailoverSkip FailoverPolicy = "skip"
	// FailoverAlternates re-routes through the unchosen branches of the
	// visit's Alt node (falling back to skip when there are none).
	FailoverAlternates FailoverPolicy = "alternates"
	// FailoverHome abandons the remaining itinerary and returns the
	// naplet to its home server.
	FailoverHome FailoverPolicy = "home"
)

// ParseFailoverPolicy validates a policy name ("", "skip", "alternates",
// "home", with "none" accepted as an alias for "").
func ParseFailoverPolicy(s string) (FailoverPolicy, error) {
	switch FailoverPolicy(s) {
	case FailoverNone, FailoverSkip, FailoverAlternates, FailoverHome:
		return FailoverPolicy(s), nil
	case "none":
		return FailoverNone, nil
	default:
		return FailoverNone, fmt.Errorf("naplet: unknown failover policy %q", s)
	}
}

// NextCloneIndex allocates the next clone heritage index (1-based). The
// record is owned by a single visit engine at a time, so no locking is
// needed.
func (r *Record) NextCloneIndex() int {
	r.CloneSeq++
	return r.CloneSeq
}

// NewRecord assembles a fresh naplet record. State, book and log are
// created empty if nil.
func NewRecord(nid id.NapletID, credential cred.Credential, codebase, home string, itin *itinerary.Itinerary) *Record {
	return &Record{
		ID:         nid,
		Credential: credential,
		Codebase:   codebase,
		Home:       home,
		State:      state.New(),
		Itin:       itin,
		Book:       NewAddressBook(),
		Log:        NewNavigationLog(),
	}
}

// CloneFor derives the record of the k-th clone for a Par itinerary branch.
// The clone gets a heritage-extended ID, a deep copy of the state, an
// inherited address book (§2.1: "It can also be inherited in naplet
// clone"), the branch as its itinerary, and a navigation log inheriting the
// parent's history (so the owner's post-analysis sees the full path that
// led to the clone).
func (r *Record) CloneFor(k int, branch *itinerary.Itinerary, credential cred.Credential) (*Record, error) {
	cid, err := r.ID.Clone(k)
	if err != nil {
		return nil, err
	}
	return &Record{
		ID:         cid,
		Credential: credential,
		Codebase:   r.Codebase,
		Home:       r.Home,
		State:      r.State.Clone(),
		Itin:       branch,
		Book:       r.Book.Clone(),
		Log:        r.Log.Clone(),
		Failover:   r.Failover,
		// Pending and CloneSeq start fresh: the clone has its own travel
		// plan and its own clone generation.
	}, nil
}

// MessengerAPI is the messaging surface a hosting server exposes to the
// naplet through its context: the paper's reliable, location-independent
// post-office service (§4.2). Implemented by internal/messenger.
type MessengerAPI interface {
	// Post sends a user message to the named naplet, located through the
	// system's locator. It returns once the server's messenger accepts the
	// message for reliable delivery.
	Post(ctx context.Context, to id.NapletID, subject string, body []byte) error
	// Receive blocks until a message arrives in the naplet's mailbox or
	// ctx is done. "It is the naplet that decides when to check its
	// mailbox."
	Receive(ctx context.Context) (Message, error)
	// TryReceive returns the next mailbox message without blocking.
	TryReceive() (Message, bool)
}

// ServicesAPI is the resource-access surface: open services callable by
// handler and privileged services reachable only through service channels
// (§2.2, §5.3). Implemented by internal/resource.
type ServicesAPI interface {
	// CallOpen invokes a registered non-privileged (open) service by name.
	CallOpen(name string, args []string) (string, error)
	// OpenChannel requests a service channel to a privileged service. The
	// resource manager applies naplet-specific access control based on the
	// naplet's credential before granting the channel.
	OpenChannel(name string) (ServiceChannel, error)
	// Channels lists the privileged service names available on the server.
	Channels() []string
}

// ServiceChannel is the naplet-side endpoint pair of a service channel: a
// synchronous pipe to a privileged service (§5.3). WriteLine corresponds to
// the paper's NapletWriter, ReadLine to NapletReader.
type ServiceChannel interface {
	// WriteLine sends one request line to the service.
	WriteLine(line string) error
	// ReadLine receives one reply line from the service.
	ReadLine() (string, error)
	// Close releases the channel and its service-side resources.
	Close() error
}

// ListenerAPI lets a travelling naplet report back to its owner: the
// paper's NapletListener with its report() callback, reached through the
// naplet's home manager.
type ListenerAPI interface {
	Report(ctx context.Context, body []byte) error
}

// TravelAPI is the dispatch proxy through which a naplet (or the visit
// engine on its behalf) requests migration.
type TravelAPI interface {
	// Depart asks the hosting server's navigator to dispatch the naplet to
	// the destination server once the current visit completes.
	Depart(ctx context.Context, dest string) error
}

// Clock abstracts time for the runtime so experiments can warp it.
type Clock interface {
	Now() time.Time
}

// ClockFunc adapts a function to Clock.
type ClockFunc func() time.Time

// Now implements Clock.
func (f ClockFunc) Now() time.Time { return f() }

// Context is the confined execution environment of a naplet on one server
// (§2.1): "The context object provides references to dispatch proxy,
// message, and stationary application services on the server. The context
// object is a transient attribute and is to be set by a resource manager on
// the arrival of the naplet." It never serializes; a fresh context is
// installed at every landing.
type Context struct {
	// Server is the name of the hosting naplet server.
	Server string
	// Record is the naplet's serializable closure.
	Record *Record
	// Messenger is the post-office service of the hosting server.
	Messenger MessengerAPI
	// Services is the resource manager's service surface.
	Services ServicesAPI
	// Listener reports results to the naplet's owner at its home server.
	Listener ListenerAPI
	// Clock is the server's time source.
	Clock Clock

	// Cancel is the Go context bounding this visit's execution; the
	// monitor cancels it on terminate/suspend and on resource-policy kills.
	Cancel context.Context
}

// NapletID returns the executing naplet's identifier.
func (c *Context) NapletID() id.NapletID { return c.Record.ID }

// State returns the naplet's state container.
func (c *Context) State() *state.State { return c.Record.State }

// AddressBook returns the naplet's address book.
func (c *Context) AddressBook() *AddressBook { return c.Record.Book }

// Itinerary returns the naplet's remaining itinerary.
func (c *Context) Itinerary() *itinerary.Itinerary { return c.Record.Itin }

// Log returns the naplet's navigation log.
func (c *Context) Log() *NavigationLog { return c.Record.Log }

// Now returns the server's current time, falling back to the wall clock
// when no clock was installed.
func (c *Context) Now() time.Time {
	if c.Clock != nil {
		return c.Clock.Now()
	}
	return time.Now()
}
