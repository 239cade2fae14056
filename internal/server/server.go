// Package server composes the seven components of Figure 2 into a
// NapletServer: NapletManager, Navigator, NapletMonitor,
// NapletSecurityManager, ResourceManager, Messenger, and Locator, plus the
// dynamically created ServiceChannels.
//
// A NapletServer is "a dock of naplets within a Java virtual machine"
// (here: within a process) that "executes naplets in confined environments
// and makes host resources available to them in a controlled manner". Each
// host installs at most one naplet server; servers run autonomously and
// cooperatively to form the naplet space.
//
// The server also hosts the visit engine (engine.go) that drives each
// resident naplet through its itinerary: OnStart, post-action, next
// decision, dispatch or clone or complete.
package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cred"
	"repro/internal/directory"
	"repro/internal/directory/shard"
	"repro/internal/dock"
	"repro/internal/health"
	"repro/internal/id"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/messenger"
	"repro/internal/monitor"
	"repro/internal/naplet"
	"repro/internal/navigator"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/security"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config assembles a naplet server.
type Config struct {
	// Name is the server's address in the fabric (its host name).
	Name string
	// Fabric is the network the server attaches to.
	Fabric transport.Fabric
	// Registry is the codebase registry (shared, in-process).
	Registry *registry.Registry
	// KeyRing verifies naplet credentials; nil skips signature checks.
	KeyRing *cred.KeyRing
	// Policy is the security matrix; nil means AllowAll.
	Policy *security.Policy
	// LocatorMode selects directory / home / forward location. In home
	// mode every arrival is also reported to the naplet's home manager
	// (the distributed directory of §4.1), which is what home mode reads.
	LocatorMode locator.Mode
	// LocatorTTL bounds the locator cache; 0 disables caching.
	LocatorTTL time.Duration
	// DirectoryAddrs names the nodes of the directory plane (required for
	// ModeDirectory; also receives arrival registrations): one address is
	// the central directory, more a sharded, replicated plane. With more
	// than one node the server routes registrations and lookups by
	// rendezvous hashing over the NapletID's owner/home prefix, writing
	// through to DirReplicas replicas per shard and failing lookups over
	// on health signals.
	DirectoryAddrs []string
	// DirReplicas is the replica-group size per shard (default 2, clamped
	// to the node count). Meaningful only with DirectoryAddrs.
	DirReplicas int
	// CodeDelivery selects push or pull code-bundle transport.
	CodeDelivery navigator.CodeDelivery
	// Slots bounds concurrently executing naplets; ≤0 means unlimited.
	Slots int
	// MonitorPolicy is the default per-naplet resource policy.
	MonitorPolicy monitor.Policy
	// MaxResidents refuses landings beyond this many resident naplets;
	// 0 means unlimited.
	MaxResidents int
	// Messenger configures the post office.
	Messenger messenger.Config
	// DispatchRetries re-attempts a failed migration this many times
	// before trapping the naplet (transient network loss tolerance).
	DispatchRetries int
	// DispatchRetryDelay is the initial backoff between attempts; it
	// grows exponentially, capped at 16x (defaults to the navigator's
	// backoff policy defaults when unset).
	DispatchRetryDelay time.Duration
	// Clock is the server time source; nil means time.Now.
	Clock func() time.Time
	// Telemetry collects every component's metrics; nil creates a
	// per-server registry (retrievable via Server.Telemetry).
	Telemetry *telemetry.Registry
	// Tracer records one span per migration hop; nil creates a per-server
	// tracer (retrievable via Server.Tracer).
	Tracer *telemetry.HopTracer
	// Health is the peer failure detector consulted by the dispatch
	// path; supply one to control thresholds or the probe clock. Nil
	// builds a default detector on the server clock.
	Health *health.Detector
	// Overload, when non-nil, switches on the overload-resilience stack:
	// a two-class admission gate fronting the frame handler (control
	// traffic is never queued behind bulk migrations and mail) and retry
	// budgets for the navigator's and messenger's retry loops. Per-peer
	// liveness stays the health detector's alone, as without the stack.
	// Nil disables the whole stack — every request is admitted, every
	// retry allowed.
	Overload *overload.Options
	// Dock, when non-nil, persists resident naplets, held mail and home
	// registrations across restarts: the server snapshots to it at every
	// state-changing point and restores from it on construction.
	Dock *dock.Store
}

// Server is one naplet server: a dock of naplets on a host.
type Server struct {
	cfg   Config
	name  string
	node  transport.Node
	clock func() time.Time

	reg       *registry.Registry
	cache     *registry.Cache
	sec       *security.Manager
	res       *resource.Manager
	mon       *monitor.Monitor
	mgr       *manager.Manager
	loc       *locator.Locator
	msgr      *messenger.Messenger
	nav       *navigator.Navigator
	dir       directory.Directory
	telem     *telemetry.Registry
	tracer    *telemetry.HopTracer
	hd        *health.Detector
	gate      *overload.Gate
	failovers *telemetry.Counter

	mintMu sync.Mutex
	minted map[string]time.Time

	dockMu      sync.Mutex
	dockStore   *dock.Store
	dockEntries map[string]*dock.Resident

	leaveMu sync.Mutex
	leaving []leave // open migrations away from here

	sinkMu sync.RWMutex
	sink   func(Event)

	draining atomic.Bool

	// closeMu orders entering a visit engine (enter) against Close: a
	// visit either registers in wg before closed closes, or never starts.
	closeMu sync.Mutex
	wg      sync.WaitGroup
	ready   chan struct{}
	closed  chan struct{}
}

// ErrClosed is returned by Launch on a closed server.
var ErrClosed = errors.New("server: closed")

// New builds and attaches a naplet server.
func New(cfg Config) (*Server, error) {
	if cfg.Name == "" {
		return nil, errors.New("server: missing name")
	}
	if cfg.Fabric == nil {
		return nil, errors.New("server: missing fabric")
	}
	if cfg.Registry == nil {
		return nil, errors.New("server: missing registry")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	policy := security.AllowAll
	if cfg.Policy != nil {
		policy = *cfg.Policy
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.NewHopTracer(0)
	}

	hd := cfg.Health
	if hd == nil {
		hd = health.New(health.Config{Clock: clock, Telemetry: cfg.Telemetry})
	}

	// The overload stack is all-or-nothing: one Options bundle builds the
	// admission gate and a retry budget per retrying component.
	var gate *overload.Gate
	var navBudget, msgrBudget *overload.RetryBudget
	if o := cfg.Overload; o != nil {
		gate = overload.NewGate(overload.GateConfig{
			MaxInFlight: o.MaxInFlight,
			MaxQueue:    o.MaxQueue,
			MaxWait:     o.MaxWait,
			Clock:       clock,
			Telemetry:   cfg.Telemetry,
		})
		navBudget = overload.NewRetryBudget(overload.RetryBudgetConfig{
			Ratio:     o.RetryRatio,
			Burst:     o.RetryBurst,
			Name:      "navigator",
			Telemetry: cfg.Telemetry,
		})
		msgrBudget = overload.NewRetryBudget(overload.RetryBudgetConfig{
			Ratio:     o.RetryRatio,
			Burst:     o.RetryBurst,
			Name:      "messenger",
			Telemetry: cfg.Telemetry,
		})
	}

	s := &Server{
		cfg:         cfg,
		clock:       clock,
		reg:         cfg.Registry,
		cache:       registry.NewCache(),
		telem:       cfg.Telemetry,
		tracer:      cfg.Tracer,
		hd:          hd,
		gate:        gate,
		minted:      make(map[string]time.Time),
		dockStore:   cfg.Dock,
		dockEntries: make(map[string]*dock.Resident),
		ready:       make(chan struct{}),
		closed:      make(chan struct{}),
	}
	// Attach first: a TCP fabric resolves port 0 to a concrete address,
	// which then becomes the server's name throughout the component stack.
	node, err := cfg.Fabric.Attach(cfg.Name, s.handle)
	if err != nil {
		return nil, err
	}
	s.node = node
	s.name = node.Addr()

	s.sec = security.NewManager(cfg.KeyRing, policy, clock)
	s.res = resource.NewManager(s.sec)
	s.mon = monitor.New(cfg.Slots, clock)
	s.mon.Instrument(s.telem)
	s.mgr = manager.New(s.name, clock)
	s.telem.GaugeFunc("naplet_server_residents", "naplets currently resident at this server", func() float64 {
		return float64(s.mgr.Resident())
	})
	s.failovers = s.telem.Counter("naplet_server_failovers_total",
		"itinerary reroutes taken after a dead destination or evacuation")

	// One directory client for every component: a sharded, replicated
	// plane when several nodes are configured, a single-node client
	// otherwise. Built once; the locator, navigator, and shutdown path all
	// share it.
	switch {
	case len(cfg.DirectoryAddrs) > 1:
		s.dir = shard.New(node, shard.Config{
			Nodes:    cfg.DirectoryAddrs,
			Replicas: cfg.DirReplicas,
			Health:   hd,
		})
	case len(cfg.DirectoryAddrs) == 1:
		s.dir = directory.NewClient(node, cfg.DirectoryAddrs[0])
	}

	s.loc = locator.New(locator.Config{
		Mode:      cfg.LocatorMode,
		Directory: s.dir,
		CacheTTL:  cfg.LocatorTTL,
		Telemetry: s.telem,
	}, node, s.mgr, clock)
	msgrCfg := cfg.Messenger
	msgrCfg.Telemetry = s.telem
	msgrCfg.RetryBudget = msgrBudget
	s.msgr = messenger.New(msgrCfg, s.name, node, s.loc, s.mgr, clock)
	s.nav = navigator.New(navigator.Config{
		CodeDelivery: cfg.CodeDelivery,
		Directory:    s.dir,
		ReportHome:   cfg.LocatorMode == locator.ModeHome,
		Telemetry:    s.telem,
		Tracer:       s.tracer,
		Health:       hd,
		RetryBudget:  navBudget,
	}, s.name, node, s.sec, s.mgr, s.reg, s.cache, clock)

	s.nav.SetLandFunc(s.land)
	s.nav.SetBeforeLandFunc(s.awaitLeave)
	s.nav.SetAdmitFunc(func(req navigator.LandingRequestBody) error {
		if s.draining.Load() {
			return fmt.Errorf("server %s: draining, not accepting naplets", s.name)
		}
		if cfg.MaxResidents > 0 && s.mgr.Resident() >= cfg.MaxResidents {
			return fmt.Errorf("server %s: at capacity (%d residents)", s.name, cfg.MaxResidents)
		}
		return nil
	})
	if s.dockStore != nil {
		// Commit-before-ack: a landed naplet is on disk before the origin
		// hears "accepted" and releases its copy.
		s.nav.SetPersistFunc(func(rec *naplet.Record) {
			s.dockResident(rec, dock.PhaseVisiting, "", "")
		})
	}
	// System messages cast interrupts onto the resident naplet's group.
	s.msgr.SetInterruptSink(func(to id.NapletID, msg naplet.Message) bool {
		g, err := s.mon.Group(to)
		if err != nil {
			return false
		}
		g.Interrupt(msg)
		return true
	})
	close(s.ready)
	if s.dockStore != nil {
		if err := s.restoreFromDock(); err != nil {
			s.node.Close()
			return nil, err
		}
	}
	return s, nil
}

// Name returns the server's address.
func (s *Server) Name() string { return s.name }

// Node returns the server's fabric node.
func (s *Server) Node() transport.Node { return s.node }

// Manager returns the server's NapletManager.
func (s *Server) Manager() *manager.Manager { return s.mgr }

// Messenger returns the server's post office.
func (s *Server) Messenger() *messenger.Messenger { return s.msgr }

// Monitor returns the server's NapletMonitor.
func (s *Server) Monitor() *monitor.Monitor { return s.mon }

// Locator returns the server's Locator.
func (s *Server) Locator() *locator.Locator { return s.loc }

// Navigator returns the server's Navigator.
func (s *Server) Navigator() *navigator.Navigator { return s.nav }

// Directory returns the server's shared directory client (nil when no
// directory is configured). Sharded when several nodes were given.
func (s *Server) Directory() directory.Directory { return s.dir }

// Resources returns the server's ResourceManager.
func (s *Server) Resources() *resource.Manager { return s.res }

// Cache returns the server's codebase cache.
func (s *Server) Cache() *registry.Cache { return s.cache }

// Telemetry returns the server's metrics registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.telem }

// Tracer returns the server's migration hop tracer.
func (s *Server) Tracer() *telemetry.HopTracer { return s.tracer }

// Health returns the server's peer failure detector.
func (s *Server) Health() *health.Detector { return s.hd }

// OverloadGate returns the server's admission gate (nil when Config.Overload
// was nil).
func (s *Server) OverloadGate() *overload.Gate { return s.gate }

// Draining reports whether the server has stopped accepting new work
// (Drain was called). A health endpoint should turn not-ready on this.
func (s *Server) Draining() bool { return s.draining.Load() }

// Event is one nav-log observation the server exports through the sink
// registered with SetEventSink: launches, arrivals, departures,
// completions, traps, and itinerary reroutes — the live counterpart of
// the NavigationLog entries the naplet itself carries.
type Event struct {
	// Kind is "launch", "arrival", "depart", "complete", "trap", or
	// "reroute".
	Kind string
	// Naplet is the subject naplet's identifier.
	Naplet string
	// Hop is the naplet's navigation-log length when the event fired.
	Hop int
	// From and To are the servers involved: the source and this server
	// for arrivals, this server and the destination for departures.
	From, To string
	// At is the server-clock event time.
	At time.Time
	// Detail carries the error text (traps), the failover policy
	// (reroutes), or the codebase (launches).
	Detail string
}

// SetEventSink registers a callback invoked with every nav-log event the
// visit engine produces. The sink runs on lifecycle goroutines and must
// not block; pass nil to detach. Registered after construction so the
// consumer (the fleet agent) can be wired to the already-attached node.
func (s *Server) SetEventSink(fn func(Event)) {
	s.sinkMu.Lock()
	s.sink = fn
	s.sinkMu.Unlock()
}

// emit hands one nav-log event to the registered sink, if any.
func (s *Server) emit(kind string, rec *naplet.Record, from, to, detail string) {
	s.sinkMu.RLock()
	sink := s.sink
	s.sinkMu.RUnlock()
	if sink == nil {
		return
	}
	sink(Event{
		Kind:   kind,
		Naplet: rec.ID.String(),
		Hop:    rec.Log.Len(),
		From:   from,
		To:     to,
		At:     s.clock(),
		Detail: detail,
	})
}

// Close detaches the server and waits for resident visit engines.
func (s *Server) Close() error {
	s.closeMu.Lock()
	select {
	case <-s.closed:
		s.closeMu.Unlock()
		return nil
	default:
		close(s.closed)
	}
	s.closeMu.Unlock()
	// Unblock resident naplets so their lifecycle goroutines can exit.
	s.mon.KillAll()
	// Withdraw directory state while the node can still send: peers should
	// fail fast on fresh information, not dispatch at a closed dock.
	s.withdrawRegistrations()
	err := s.node.Close()
	s.wg.Wait()
	return err
}

// enter registers one visit engine in wg, or reports false once Close has
// begun; the caller that entered calls wg.Done when the engine ends.
func (s *Server) enter() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
		s.wg.Add(1)
		return true
	}
}

// Drain gracefully evacuates the server ahead of a shutdown: admissions
// stop, resident naplets are asked to leave (next stop or home), held mail
// is flushed onward, the dock takes a final snapshot, and the directory
// registrations pointing here are withdrawn. Bounded by ctx; the caller
// follows with Close. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	s.mon.EvacuateAll()
	// Residents leave on their own lifecycle goroutines; wait (bounded)
	// for the dock to empty.
	for s.mgr.Resident() > 0 {
		select {
		case <-ctx.Done():
			s.finishDrain(ctx)
			return ctx.Err()
		case <-s.closed:
			s.finishDrain(ctx)
			return nil
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.finishDrain(ctx)
	return nil
}

// finishDrain flushes mail, commits the final dock snapshot, and withdraws
// directory registrations.
func (s *Server) finishDrain(ctx context.Context) {
	fctx := ctx
	if fctx.Err() != nil {
		// The drain deadline passed; still give the flush a short grace.
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	_ = s.msgr.FlushHeld(fctx)
	if s.dockStore != nil {
		s.dockCommit()
	}
	s.withdrawRegistrations()
}

// withdrawRegistrations removes this server's entries from the central
// directory so peers stop routing naplets and mail here. Best effort.
func (s *Server) withdrawRegistrations() {
	if s.dir == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = s.dir.DeregisterServer(ctx, s.name)
}

// handle is the server's composite frame handler, dispatching to the
// owning component (Figure 2's request paths).
func (s *Server) handle(from string, f wire.Frame) (wire.Frame, error) {
	// The node attaches before the components are wired (so a TCP fabric
	// can resolve port 0 into the server's name); block early frames until
	// construction completes.
	<-s.ready
	// Admission runs before any component sees the frame: control traffic
	// passes straight through, bulk (migrations, mail, code transfer)
	// queues behind a bounded in-flight window and is shed — with a typed,
	// retryable error — when the queue backs up past the delay target or
	// the caller's propagated budget runs out while waiting.
	ctx, cancel := f.BudgetContext(context.Background())
	release, err := s.gate.Admit(ctx, overload.Classify(f.Kind))
	cancel()
	if err != nil {
		return wire.Frame{}, err
	}
	defer release()
	switch f.Kind {
	case wire.KindLandingRequest:
		return s.nav.HandleLandingRequest(from, f)
	case wire.KindNapletTransfer:
		return s.nav.HandleTransfer(from, f)
	case wire.KindCodeFetch:
		return s.nav.HandleCodeFetch(from, f)
	case wire.KindHomeEvent:
		return s.nav.HandleHomeEvent(from, f)
	case wire.KindPost:
		reply, err := s.msgr.HandlePost(from, f)
		// Commit mail durably before the sender hears its confirmation:
		// a held or queued message acknowledged here must survive a crash.
		if err == nil && s.dockStore != nil {
			s.dockCommit()
		}
		return reply, err
	case wire.KindLocatorQuery:
		return s.loc.HandleQuery(from, f)
	case wire.KindLocatorInvalidate:
		return s.loc.HandleInvalidate(from, f)
	case wire.KindReport:
		return s.handleReport(from, f)
	case wire.KindControl:
		return s.handleControl(from, f)
	default:
		return wire.Frame{}, fmt.Errorf("server %s: unexpected frame kind %q", s.name, f.Kind)
	}
}

// ReportBody carries naplet-to-home traffic: a report made mid-tour, or
// the end of a naplet's life — its terminal status, error text and the
// results it reported while ending, in one message.
type ReportBody struct {
	NapletID id.NapletID
	Kind     ReportKind
	// Status and Err are an end's terminal status and its error text.
	Status manager.Status
	Err    string
	// Len is the naplet's navigation-log length where it ended; with the
	// sending dock it keys the end, so a replay is recognised.
	Len     int
	Results [][]byte
}

// ReportKind says what a ReportBody reports; it is one byte on the wire.
type ReportKind uint8

// Report kinds.
const (
	// ReportResult delivers Results to the owner's listener at once.
	ReportResult ReportKind = iota + 1
	// ReportEnd ends the naplet: Results, then Status and Err, recorded
	// once per end (manager.End).
	ReportEnd
)

// handleReport routes a naplet's report to this server's manager (this
// server is the naplet's home). An end is keyed by the dock that sent it.
func (s *Server) handleReport(from string, f wire.Frame) (wire.Frame, error) {
	var body ReportBody
	if err := body.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	if body.Kind == ReportEnd {
		key := manager.EndKey{Dock: from, Len: body.Len}
		s.mgr.End(body.NapletID, key, body.Status, body.Err, body.Results)
	} else {
		for _, r := range body.Results {
			s.mgr.Deliver(body.NapletID, r)
		}
	}
	// The ack is the frame itself; no caller reads a body from it.
	return wire.Frame{Kind: wire.KindControlReply, From: f.To, To: f.From}, nil
}

// ControlBody is a management request from an owner's tool (napletctl) to a
// naplet's home server.
type ControlBody struct {
	// Op is "launch", "control", "status", or "results".
	Op       string
	NapletID id.NapletID
	Verb     naplet.ControlVerb

	// Launch fields (Op == "launch").
	Owner    string
	Codebase string
	// Route is the itinerary in the paper's operator notation, e.g.
	// "par(seq(s0,s1), seq(s2,s3))".
	Route string
	// Params seeds the "man.params" state entry (the NMNaplet parameter
	// list); may be empty.
	Params []string
	// StateKV seeds private string state entries.
	StateKV map[string]string
	// Failover names the itinerary failover policy ("", "none", "skip",
	// "alternates", "home").
	Failover string
}

// ControlReplyBody answers a ControlBody.
type ControlReplyBody struct {
	OK      bool
	Status  string
	Err     string
	Results [][]byte
	// Footprints lists visit records for Op "footprints" (§2.2:
	// "footprints of all past and current alien naplets are also recorded
	// for management purposes").
	Footprints []manager.Footprint
}

// handleControl serves owner management requests against the home manager.
func (s *Server) handleControl(from string, f wire.Frame) (wire.Frame, error) {
	var body ControlBody
	if err := f.Body(&body); err != nil {
		return wire.Frame{}, err
	}
	reply := ControlReplyBody{}
	switch body.Op {
	case "launch":
		nid, err := s.launchFromControl(body)
		if err != nil {
			reply.Err = err.Error()
		} else {
			reply.OK = true
			reply.Status = nid.String()
		}
	case "control":
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Control(ctx, body.NapletID, body.Verb); err != nil {
			reply.Err = err.Error()
		} else {
			reply.OK = true
		}
	case "status":
		st, errText, err := s.mgr.Status(body.NapletID)
		if err != nil {
			reply.Err = err.Error()
		} else {
			reply.OK = true
			reply.Status = st.String()
			reply.Err = errText
		}
	case "results":
		for _, r := range s.mgr.Results(body.NapletID) {
			reply.Results = append(reply.Results, r.Body)
		}
		reply.OK = true
	case "footprints":
		reply.Footprints = s.mgr.Footprints()
		reply.OK = true
	default:
		return wire.Frame{}, fmt.Errorf("server: unknown control op %q", body.Op)
	}
	return wire.NewFrame(wire.KindControlReply, f.To, f.From, &reply)
}

// Control sends a system message (callback/terminate/suspend/resume) to a
// naplet launched from this server, locating it through the naplet space.
func (s *Server) Control(ctx context.Context, nid id.NapletID, verb naplet.ControlVerb) error {
	hint := ""
	if server, ok := s.mgr.HomeLocate(nid); ok {
		hint = server
	} else if tr := s.mgr.TraceNaplet(nid); tr.Known {
		if tr.Present {
			hint = s.name
		} else if tr.Dest != "" {
			hint = tr.Dest
		}
	}
	return s.msgr.SendControl(ctx, nid, verb, hint)
}

// Status reports the naplet-table status of a locally launched naplet.
func (s *Server) Status(nid id.NapletID) (manager.Status, string, error) {
	return s.mgr.Status(nid)
}

// Results returns the reports received from a naplet launched here.
func (s *Server) Results(nid id.NapletID) [][]byte {
	rs := s.mgr.Results(nid)
	out := make([][]byte, len(rs))
	for i, r := range rs {
		out[i] = r.Body
	}
	return out
}

// WaitDone blocks until a locally launched naplet reaches a terminal
// status.
func (s *Server) WaitDone(ctx context.Context, nid id.NapletID) (manager.Status, error) {
	return s.mgr.WaitDone(ctx, nid)
}

// mintID creates a fresh naplet identifier for owner, unique even within
// one clock second. TCP server names contain ':' which the identifier
// grammar reserves, so the ID's host part is sanitized; Record.Home keeps
// the routable server name (the home-manager location mode resolves homes
// via nid.Host() and therefore requires grammar-clean server names, which
// the simulated fabric uses).
func (s *Server) mintID(owner string) (id.NapletID, error) {
	s.mintMu.Lock()
	defer s.mintMu.Unlock()
	t := s.clock().UTC().Truncate(time.Second)
	if last, ok := s.minted[owner]; ok && !t.After(last) {
		t = last.Add(time.Second)
	}
	s.minted[owner] = t
	host := strings.NewReplacer(":", "_", "@", "_").Replace(s.name)
	return id.New(owner, host, t)
}
