package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cred"
	"repro/internal/dock"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/messenger"
	"repro/internal/monitor"
	"repro/internal/naplet"
	"repro/internal/navigator"
	"repro/internal/resource"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/internal/wire"
)

// LaunchOptions parameterize a naplet launch through this server's
// NapletManager ("Each naplet is launched through its home NapletManager",
// §2.2).
type LaunchOptions struct {
	// Owner is the launching principal; with a key ring configured, the
	// owner's signing key must be registered.
	Owner string
	// Codebase names the agent behaviour in the registry.
	Codebase string
	// Pattern is the itinerary to follow.
	Pattern *itinerary.Pattern
	// Roles are carried in the credential for policy decisions.
	Roles []string
	// Listener receives the naplet's reports (may be nil).
	Listener manager.Listener
	// InitState seeds the naplet's state container (may be nil).
	InitState func(*state.State) error
	// MonitorPolicy overrides the server's default resource policy.
	MonitorPolicy *monitor.Policy
	// TTL bounds credential validity; 0 means no expiry.
	TTL time.Duration
	// Failover selects what the visit engine does when a destination
	// stays unreachable after the dispatch retry budget (see
	// naplet.FailoverPolicy). The zero value traps the naplet.
	Failover naplet.FailoverPolicy
}

// Launch creates and launches a naplet. The first itinerary decision is
// taken at this home server: a first visit elsewhere dispatches
// immediately, a first visit here executes here. A closed server launches
// nothing: ErrClosed.
func (s *Server) Launch(ctx context.Context, opts LaunchOptions) (nid id.NapletID, err error) {
	if !s.enter() {
		return id.NapletID{}, ErrClosed
	}
	defer func() {
		if err != nil {
			s.wg.Done()
		}
	}()
	if opts.Owner == "" || opts.Codebase == "" {
		return id.NapletID{}, fmt.Errorf("server: launch needs owner and codebase")
	}
	if _, err := s.reg.Lookup(opts.Codebase); err != nil {
		return id.NapletID{}, err
	}
	itin, err := itinerary.New(opts.Pattern)
	if err != nil {
		return id.NapletID{}, err
	}
	nid, err = s.mintID(opts.Owner)
	if err != nil {
		return id.NapletID{}, err
	}

	credential := cred.Credential{NapletID: nid, Codebase: opts.Codebase, Roles: opts.Roles}
	if s.cfg.KeyRing != nil {
		var expires time.Time
		if opts.TTL > 0 {
			expires = s.clock().Add(opts.TTL)
		}
		credential, err = s.cfg.KeyRing.Issue(nid, opts.Codebase, opts.Roles, s.clock(), expires)
		if err != nil {
			return id.NapletID{}, err
		}
	}

	rec := naplet.NewRecord(nid, credential, opts.Codebase, s.name, itin)
	rec.Failover = opts.Failover
	if opts.InitState != nil {
		if err := opts.InitState(rec.State); err != nil {
			return id.NapletID{}, err
		}
	}

	now := s.clock()
	s.mgr.RecordLaunch(nid, opts.Listener)
	s.mgr.RecordArrival(nid, opts.Codebase, "origin", now)
	rec.Log.RecordArrival(s.name, now)
	s.nav.RegisterArrival(ctx, rec, now)
	s.mgr.SetStatus(nid, manager.StatusRunning)
	s.emit("launch", rec, s.name, s.name, opts.Codebase)

	go func() {
		defer s.wg.Done()
		s.lifecycle(rec, false, opts.MonitorPolicy)
	}()
	return nid, nil
}

// launchFromControl serves a remote "launch" management request: the route
// arrives in the paper's operator notation and the state seeds as plain
// strings.
func (s *Server) launchFromControl(body ControlBody) (id.NapletID, error) {
	pattern, err := itinerary.Parse(body.Route)
	if err != nil {
		return id.NapletID{}, err
	}
	failover, err := naplet.ParseFailoverPolicy(body.Failover)
	if err != nil {
		return id.NapletID{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Launch(ctx, LaunchOptions{
		Owner:    body.Owner,
		Codebase: body.Codebase,
		Pattern:  pattern,
		Failover: failover,
		InitState: func(st *state.State) error {
			if len(body.Params) > 0 {
				if err := st.SetPrivate("man.params", body.Params); err != nil {
					return err
				}
			}
			for k, v := range body.StateKV {
				if err := st.SetPrivate(k, v); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// land is the navigator's LandFunc: an accepted naplet starts its visit
// here. Residency bookkeeping (manager arrival, navigation log, directory
// registration) already happened inside HandleTransfer, before the ack.
func (s *Server) land(rec *naplet.Record, source string) {
	if !s.enter() {
		return
	}
	defer s.wg.Done()
	s.emit("arrival", rec, source, s.name, "")
	s.lifecycle(rec, true, nil)
}

// lifecycle drives a resident naplet: optionally perform the pending
// arrival visit, then advance the itinerary until the naplet departs,
// completes, or traps.
func (s *Server) lifecycle(rec *naplet.Record, arrived bool, polOverride *monitor.Policy) {
	policy := s.cfg.MonitorPolicy
	if polOverride != nil {
		policy = *polOverride
	}
	g, err := s.mon.Admit(rec.ID, policy)
	if err != nil {
		s.trap(rec, fmt.Errorf("admit: %w", err))
		return
	}
	mb := s.msgr.CreateMailbox(rec.ID)

	behavior, err := s.reg.Instantiate(rec.Codebase)
	if err != nil {
		s.trap(rec, err)
		s.cleanup(rec)
		return
	}

	nctx := &naplet.Context{
		Server:    s.name,
		Record:    rec,
		Messenger: &meteredMessenger{inner: messenger.NewView(s.msgr, rec, mb), group: g},
		Services:  resource.NewView(s.res, &rec.Credential),
		Listener:  &listenerProxy{server: s, rec: rec},
		Clock:     naplet.ClockFunc(s.clock),
	}
	defer nctx.Services.(*resource.View).ReleaseAll()

	// Custom interrupt verbs reach the behaviour's OnInterrupt hook;
	// terminate/suspend/resume act inside the monitor.
	if intr, ok := behavior.(naplet.Interruptible); ok {
		g.SetInterruptHandler(func(msg naplet.Message) {
			_ = intr.OnInterrupt(nctx, msg)
		})
	}

	if arrived {
		s.dockResident(rec, dock.PhaseVisiting, "", "")
		if err := s.performVisit(g, nctx, behavior, rec.Pending); err != nil {
			if errors.Is(err, monitor.ErrEvacuated) {
				s.evacuateNaplet(s.reg.EvaluatorFor(rec.Codebase, nctx), rec)
				return
			}
			s.trap(rec, err)
			s.cleanup(rec)
			return
		}
		rec.Pending = itinerary.Visit{}
		rec.PendingAlts = nil
	}
	s.dockResident(rec, dock.PhaseResident, "", "")

	s.advance(g, nctx, behavior, rec)
}

// advance consumes itinerary decisions until departure or completion.
func (s *Server) advance(g *monitor.Group, nctx *naplet.Context, behavior naplet.Behavior, rec *naplet.Record) {
	ev := s.reg.EvaluatorFor(rec.Codebase, nctx)
	for {
		// Cooperative preemption point: a suspended naplet pauses here
		// between visits (and before departing); a terminated one traps;
		// an evacuated one (server draining) moves on.
		if err := g.Checkpoint(); err != nil {
			if errors.Is(err, monitor.ErrEvacuated) {
				s.evacuateNaplet(ev, rec)
				return
			}
			s.trap(rec, err)
			s.cleanup(rec)
			return
		}
		d, err := rec.Itin.Next(ev)
		if err != nil {
			s.trap(rec, err)
			s.cleanup(rec)
			return
		}
		switch d.Kind {
		case itinerary.DecisionDone:
			// What OnDestroy reports goes home with the end, in one call.
			lp := nctx.Listener.(*listenerProxy)
			if dst, ok := behavior.(naplet.Destroyable); ok {
				lp.ending = true
				dst.OnDestroy(nctx)
			}
			// Release residency before telling the owner: when WaitDone
			// returns, the footprints and traces are already final.
			s.cleanup(rec)
			s.emit("complete", rec, s.name, rec.Home, "")
			s.reportEnd(rec, manager.StatusCompleted, "", lp.results)
			return

		case itinerary.DecisionFork:
			if err := s.forkAll(rec, d.Branches); err != nil {
				s.trap(rec, fmt.Errorf("fork: %w", err))
				s.cleanup(rec)
				return
			}

		case itinerary.DecisionVisit:
			if d.Visit.Server == s.name {
				// Revisit of the current server: perform it in place.
				if err := s.performVisit(g, nctx, behavior, d.Visit); err != nil {
					if errors.Is(err, monitor.ErrEvacuated) {
						s.evacuateNaplet(ev, rec)
						return
					}
					s.trap(rec, err)
					s.cleanup(rec)
					return
				}
				continue
			}
			if stop, ok := behavior.(naplet.Stoppable); ok {
				stop.OnStop(nctx)
			}
			rec.Pending = d.Visit
			rec.PendingAlts = d.Alternates
			tid := s.nav.NewTransferID()
			s.dockResident(rec, dock.PhaseDeparting, d.Visit.Server, tid)
			if err := s.migrate(rec, d.Visit.Server, tid); err != nil {
				switch s.applyFailover(rec, d.Visit, d.Alternates, err) {
				case failoverContinue:
					// Rerouted: the itinerary was rewritten in place;
					// re-enter the decision loop as a resident.
					rec.Pending = itinerary.Visit{}
					rec.PendingAlts = nil
					s.dockResident(rec, dock.PhaseResident, "", "")
					continue
				case failoverDeparted:
					return
				}
				s.trap(rec, fmt.Errorf("dispatch to %s: %w", d.Visit.Server, err))
				s.cleanup(rec)
			}
			return
		}
	}
}

// failoverOutcome says how applyFailover disposed of a failed dispatch.
type failoverOutcome int

const (
	// failoverNone: policy does not apply; the caller traps the naplet.
	failoverNone failoverOutcome = iota
	// failoverContinue: the itinerary was rewritten; the caller re-enters
	// the decision loop at this server.
	failoverContinue
	// failoverDeparted: the naplet left (or ended) under the policy; the
	// caller just returns.
	failoverDeparted
)

// applyFailover reacts to a dispatch that exhausted its retry budget (or
// was refused) according to the naplet's failover policy.
func (s *Server) applyFailover(rec *naplet.Record, v itinerary.Visit, alts []*itinerary.Pattern, derr error) failoverOutcome {
	record := func(policy string) {
		rec.Log.RecordReroute(naplet.Reroute{
			Visit:  v.String(),
			Policy: policy,
			Detail: derr.Error(),
			At:     s.clock(),
		})
		s.failovers.Inc()
		s.emit("reroute", rec, s.name, v.Server, policy)
	}
	if errors.Is(derr, navigator.ErrTransferUnresolved) {
		// The transfer may have silently landed: the destination could
		// already be running this naplet. Rerouting the local copy would
		// fork it — two live copies touring the same itinerary — so no
		// failover policy applies. Hold (trap) this copy instead; the
		// owner observes the trap and relaunches under a fresh identity,
		// which can never collide with the maybe-alive copy.
		record("hold")
		return failoverNone
	}
	switch rec.Failover {
	case naplet.FailoverAlternates:
		// Replace the remaining itinerary with the Alt siblings the guard
		// evaluation did not choose; re-evaluation picks the first live
		// one. With no alternates left, degrade to skipping the visit.
		if len(alts) > 0 {
			record("alternate")
			if len(alts) == 1 {
				rec.Itin.Remaining = alts[0]
			} else {
				rec.Itin.Remaining = itinerary.Alt(alts...)
			}
			return failoverContinue
		}
		record("skip")
		return failoverContinue
	case naplet.FailoverSkip:
		// The itinerary already advanced past the visit when the decision
		// was taken; continuing the loop simply skips it.
		record("skip")
		return failoverContinue
	case naplet.FailoverHome:
		// Abandon the tour: nothing remains but returning to the home
		// server, where the itinerary completes.
		record("home")
		rec.Itin.Remaining = nil
		if rec.Home == s.name {
			return failoverContinue
		}
		rec.Pending = itinerary.Visit{}
		rec.PendingAlts = nil
		tid := s.nav.NewTransferID()
		s.dockResident(rec, dock.PhaseDeparting, rec.Home, tid)
		if err := s.migrate(rec, rec.Home, tid); err != nil {
			s.trap(rec, fmt.Errorf("failover home to %s: %w", rec.Home, err))
			s.cleanup(rec)
		}
		return failoverDeparted
	default:
		return failoverNone
	}
}

// evacuateNaplet moves a naplet off a draining server: its next itinerary
// stop when that stop is elsewhere, otherwise its home server. A naplet
// already home with nothing left elsewhere ends here, reported as
// terminated by the evacuation.
func (s *Server) evacuateNaplet(ev itinerary.Evaluator, rec *naplet.Record) {
	interrupted := rec.Pending
	dest := ""
	if d, err := rec.Itin.Next(ev); err == nil && d.Kind == itinerary.DecisionVisit && d.Visit.Server != s.name {
		rec.Pending = d.Visit
		rec.PendingAlts = d.Alternates
		dest = d.Visit.Server
	}
	if dest == "" && rec.Home != s.name {
		// No onward stop: take refuge at home, abandoning what remains.
		rec.Itin.Remaining = nil
		rec.Pending = itinerary.Visit{}
		rec.PendingAlts = nil
		dest = rec.Home
	}
	if dest == "" {
		s.cleanup(rec)
		s.reportEnd(rec, manager.StatusTerminated, "evacuated: server draining", nil)
		return
	}
	rec.Log.RecordReroute(naplet.Reroute{
		Visit:  interrupted.String(),
		Policy: "evacuate",
		Detail: fmt.Sprintf("server %s draining", s.name),
		At:     s.clock(),
	})
	s.failovers.Inc()
	s.emit("reroute", rec, s.name, dest, "evacuate")
	tid := s.nav.NewTransferID()
	s.dockResident(rec, dock.PhaseDeparting, dest, tid)
	if err := s.migrate(rec, dest, tid); err != nil {
		s.trap(rec, fmt.Errorf("evacuate to %s: %w", dest, err))
		s.cleanup(rec)
	}
}

// departed releases a dispatched naplet's local residency: dock entry,
// mailbox (leftovers forwarded to the destination) and monitor group. Only
// the first hop, which leaves from home, changes the home table's status:
// nothing sets it back on arrival, so a report from any later stop would
// re-assert what the table already says at one call per hop.
func (s *Server) departed(rec *naplet.Record, dest string) {
	s.dockRemove(rec.ID)
	left := s.msgr.CloseMailbox(rec.ID)
	if len(left) > 0 {
		fctx, fcancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.msgr.ForwardLeftovers(fctx, dest, left)
		fcancel()
	}
	s.mon.Remove(rec.ID)
	// Tell recent correspondents where the naplet went so their locator
	// caches refresh in place instead of chasing forwarding pointers.
	s.msgr.PushMigration(context.Background(), rec.ID, dest)
	s.emit("depart", rec, s.name, dest, "")
	if rec.Home == s.name {
		s.mgr.SetStatus(rec.ID, manager.StatusInTransit)
	}
}

// migrate moves the naplet to dest under the navigator's retry policy —
// doubling backoff, one transfer ID for the whole logical migration (the
// destination deduplicates replays after a lost acknowledgement),
// fail-fast on policy refusals — and, once the transfer is acknowledged,
// releases the local residency. The caller mints (and docks) the transfer
// ID so a crash mid-dispatch can replay under the same identity.
//
// The destination starts the naplet before its acknowledgement is back
// here, and a proven hop is a single round trip, so a short visit can have
// the naplet land on this dock again before departed has run. A transfer
// of a naplet therefore waits (awaitLeave, the navigator's before-land
// hook) while a migration of it is open here: the returning copy finds no
// stale admission, mailbox, trace or dock entry of its previous stay.
// Replays and landing requests do not wait — the open migration may be
// waiting for exactly those to resolve a lost ack.
func (s *Server) migrate(rec *naplet.Record, dest, tid string) error {
	s.leaveMu.Lock()
	s.leaving = append(s.leaving, leave{id: rec.ID})
	s.leaveMu.Unlock()
	defer func() {
		s.leaveMu.Lock()
		i := s.leavingIndex(rec.ID)
		settled := s.leaving[i].settled
		last := len(s.leaving) - 1
		s.leaving[i] = s.leaving[last]
		s.leaving[last] = leave{}
		s.leaving = s.leaving[:last]
		s.leaveMu.Unlock()
		if settled != nil {
			close(settled)
		}
	}()

	if _, err := s.nav.DispatchRetryID(context.Background(), rec, dest, tid, s.dispatchPolicy(), s.closed); err != nil {
		return err
	}
	s.departed(rec, dest)
	return nil
}

// leave is one open migration away from this server. The few open at any
// moment sit in a slice searched by ID: no per-hop key string or channel —
// settled is made by the first landing that has to wait, which is rare.
type leave struct {
	id      id.NapletID
	settled chan struct{}
}

// leavingIndex finds the naplet's open migration, or -1; leaveMu held.
func (s *Server) leavingIndex(nid id.NapletID) int {
	for i := range s.leaving {
		if s.leaving[i].id.Equal(nid) {
			return i
		}
	}
	return -1
}

// awaitLeave blocks while a migration of the naplet away from this server
// is open (see migrate), or until the server closes.
func (s *Server) awaitLeave(nid id.NapletID) {
	s.leaveMu.Lock()
	i := s.leavingIndex(nid)
	if i < 0 {
		s.leaveMu.Unlock()
		return
	}
	if s.leaving[i].settled == nil {
		s.leaving[i].settled = make(chan struct{})
	}
	settled := s.leaving[i].settled
	s.leaveMu.Unlock()
	select {
	case <-settled:
	case <-s.closed:
	}
}

// dispatchPolicy derives the migration backoff policy from the server
// config. The delay bounds the growth near the configured pacing so tight
// (millisecond-scale) test configurations don't balloon into multi-second
// sleeps.
func (s *Server) dispatchPolicy() transport.Backoff {
	pol := transport.Backoff{Retries: s.cfg.DispatchRetries}
	if d := s.cfg.DispatchRetryDelay; d > 0 {
		pol.Initial = d
		pol.Max = 16 * d
	}
	return pol
}

// performVisit runs one visit at this server: the business logic S
// (OnStart) followed by the itinerary-dependent post-action T.
func (s *Server) performVisit(g *monitor.Group, nctx *naplet.Context, behavior naplet.Behavior, v itinerary.Visit) error {
	err := g.Run(func(goctx context.Context) error {
		nctx.Cancel = goctx
		return behavior.OnStart(nctx)
	})
	if err != nil {
		return fmt.Errorf("onStart at %s: %w", s.name, err)
	}
	if v.Action == "" {
		return nil
	}
	act, err := s.reg.Action(nctx.Record.Codebase, v.Action)
	if err != nil {
		return err
	}
	err = g.Run(func(goctx context.Context) error {
		nctx.Cancel = goctx
		return act(nctx)
	})
	if err != nil {
		return fmt.Errorf("post-action %q at %s: %w", v.Action, s.name, err)
	}
	return nil
}

// forkAll spawns one clone per Par branch: heritage-extended IDs,
// re-signed credentials, cloned state, inherited books and logs, each
// branch as a clone's itinerary. Before any clone starts, every member of
// the fork — parent included — learns its siblings' identifiers and first
// destinations, so collective post-actions (the paper's DataComm, §3
// Examples 2–3) can synchronize the group without out-of-band setup.
func (s *Server) forkAll(rec *naplet.Record, branches []*itinerary.Pattern) error {
	if len(branches) == 0 {
		return nil
	}
	if err := s.sec.CheckClone(&rec.Credential); err != nil {
		return err
	}
	clones := make([]*naplet.Record, 0, len(branches))
	for _, branch := range branches {
		branchItin, err := itinerary.New(branch)
		if err != nil {
			return err
		}
		k := rec.NextCloneIndex()
		cloneID, err := rec.ID.Clone(k)
		if err != nil {
			return err
		}
		credential := cred.Credential{NapletID: cloneID, Codebase: rec.Codebase, Roles: rec.Credential.Roles}
		if s.cfg.KeyRing != nil {
			credential, err = s.cfg.KeyRing.Reissue(rec.Credential, cloneID)
			if err != nil {
				return err
			}
		}
		clone, err := rec.CloneFor(k, branchItin, credential)
		if err != nil {
			return err
		}
		clones = append(clones, clone)
	}

	// Cross-populate the address books: "the address book of a naplet can
	// be altered as the naplet grows" (§2.1). Hints are each member's
	// first destination (or this server for the parent).
	firstStop := func(r *naplet.Record) string {
		if r.Itin != nil && r.Itin.Remaining != nil {
			if servers := r.Itin.Remaining.Servers(); len(servers) > 0 {
				return servers[0]
			}
		}
		return s.name
	}
	group := append([]*naplet.Record{rec}, clones...)
	for _, member := range group {
		for _, peer := range group {
			if peer == member {
				continue
			}
			member.Book.Add(peer.ID, firstStop(peer))
		}
	}

	now := s.clock()
	for _, clone := range clones {
		s.mgr.RecordArrival(clone.ID, clone.Codebase, "clone:"+rec.ID.Key(), now)
		clone.Log.RecordArrival(s.name, now)
		s.nav.RegisterArrival(context.Background(), clone, now)
		clone := clone
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.lifecycle(clone, false, nil)
		}()
	}
	return nil
}

// trap handles an execution exception: the error is reported to the home
// manager and the naplet's life cycle ends here (§5.2: the monitor "sets
// traps for its execution exceptions").
func (s *Server) trap(rec *naplet.Record, err error) {
	s.emit("trap", rec, s.name, rec.Home, err.Error())
	s.reportEnd(rec, manager.StatusTrapped, err.Error(), nil)
}

// cleanup releases the local residency of a naplet whose life cycle ended
// here. The visit trace records the end before the mail slot goes, so a late
// message errors rather than being held for a naplet that will not come.
func (s *Server) cleanup(rec *naplet.Record) {
	s.mgr.RecordEnd(rec.ID, s.clock())
	s.msgr.CloseMailbox(rec.ID)
	s.dockRemove(rec.ID)
	s.mon.Remove(rec.ID)
}

// reportEnd tells the naplet's home manager that its life ended here, with
// the terminal status, its error text and the results reported while
// ending: one write of the home's naplet table, made locally or in one
// report over the fabric. The owner waits on it (WaitDone), so transient
// network failures are retried; the home drops a replay by the end's key —
// this dock and the naplet's log length — so a retry after a lost reply
// delivers the results once.
func (s *Server) reportEnd(rec *naplet.Record, st manager.Status, errText string, results [][]byte) {
	if rec.Home == s.name {
		s.mgr.End(rec.ID, manager.EndKey{Dock: s.name, Len: rec.Log.Len()}, st, errText, results)
		return
	}
	f := wire.BinaryFrame(wire.KindReport, "", "", &ReportBody{
		NapletID: rec.ID, Kind: ReportEnd, Status: st, Err: errText,
		Len: rec.Log.Len(), Results: results,
	})
	endReportPolicy.Retry(context.Background(), nil, s.closed, nil, func() (bool, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := s.node.Call(ctx, rec.Home, f)
		return false, err
	})
}

// endReportPolicy paces a naplet's end report: 20 tries, 2 ms apart.
var endReportPolicy = transport.Backoff{Initial: 2 * time.Millisecond, Max: 2 * time.Millisecond, Retries: 19}

// meteredMessenger wraps the per-naplet messaging view with the monitor's
// network-bandwidth accounting (§5.2: the monitor tracks "consumed system
// resources including CPU time, memory size, and network bandwidth"). A
// naplet that exceeds its bandwidth budget is killed before the message
// leaves.
type meteredMessenger struct {
	inner naplet.MessengerAPI
	group *monitor.Group
}

// messageOverhead approximates per-message framing beyond the body.
const messageOverhead = 96

// Post implements naplet.MessengerAPI.
func (m *meteredMessenger) Post(ctx context.Context, to id.NapletID, subject string, body []byte) error {
	if err := m.group.ChargeBandwidth(int64(len(body)+len(subject)) + messageOverhead); err != nil {
		return err
	}
	return m.inner.Post(ctx, to, subject, body)
}

// Receive implements naplet.MessengerAPI.
func (m *meteredMessenger) Receive(ctx context.Context) (naplet.Message, error) {
	return m.inner.Receive(ctx)
}

// TryReceive implements naplet.MessengerAPI.
func (m *meteredMessenger) TryReceive() (naplet.Message, bool) {
	return m.inner.TryReceive()
}

// listenerProxy implements naplet.ListenerAPI: reports travel to the
// naplet's home manager, which dispatches to the owner's listener.
type listenerProxy struct {
	server *Server
	rec    *naplet.Record
	// ending is set while OnDestroy runs: its reports are kept in results
	// and go home with the end (reportEnd).
	ending  bool
	results [][]byte
}

// Report implements naplet.ListenerAPI.
func (p *listenerProxy) Report(ctx context.Context, body []byte) error {
	if p.ending {
		p.results = append(p.results, append([]byte(nil), body...))
		return nil
	}
	if p.rec.Home == p.server.name {
		p.server.mgr.Deliver(p.rec.ID, body)
		return nil
	}
	f := wire.BinaryFrame(wire.KindReport, "", "",
		&ReportBody{NapletID: p.rec.ID, Kind: ReportResult, Results: [][]byte{body}})
	_, err := p.server.node.Call(ctx, p.rec.Home, f)
	return err
}
