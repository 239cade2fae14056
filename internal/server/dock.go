package server

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dock"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/navigator"
)

// This file wires the durable dock (internal/dock) into the server: every
// residency-changing event updates the in-memory resident table and commits
// a full snapshot, and a restarted server rebuilds its residents, mail, and
// dedup windows from the last snapshot before serving traffic.

// dockResident records (or updates) a resident's persisted entry and
// commits a snapshot. No-op without a dock store.
func (s *Server) dockResident(rec *naplet.Record, phase, dest, tid string) {
	if s.dockStore == nil {
		return
	}
	data, err := navigator.EncodeRecord(rec)
	if err != nil {
		return
	}
	s.dockMu.Lock()
	s.dockEntries[rec.ID.Key()] = &dock.Resident{
		ID:         rec.ID.Key(),
		Record:     data,
		Phase:      phase,
		Dest:       dest,
		TransferID: tid,
	}
	s.dockMu.Unlock()
	s.dockCommit()
}

// dockRemove drops a resident's persisted entry (departed or ended) and
// commits a snapshot. No-op without a dock store.
func (s *Server) dockRemove(nid id.NapletID) {
	if s.dockStore == nil {
		return
	}
	s.dockMu.Lock()
	delete(s.dockEntries, nid.Key())
	s.dockMu.Unlock()
	s.dockCommit()
}

// dockCommit writes the current recoverable state — residents, the mail
// slots, home-track table, and both dedup windows — to the dock.
func (s *Server) dockCommit() {
	if s.dockStore == nil {
		return
	}
	// dockMu is held through the save: a snapshot taken before another
	// commit's and saved after it would erase what that commit added.
	s.dockMu.Lock()
	defer s.dockMu.Unlock()
	residents := make([]dock.Resident, 0, len(s.dockEntries))
	for _, r := range s.dockEntries {
		residents = append(residents, *r)
	}
	sort.Slice(residents, func(i, j int) bool { return residents[i].ID < residents[j].ID })

	home := s.mgr.HomeSnapshot()
	entries := make([]dock.HomeEntry, len(home))
	for i, ev := range home {
		entries[i] = dock.HomeEntry{ID: ev.ID, Server: ev.Server, Arrival: ev.Arrival, At: ev.At}
	}
	_ = s.dockStore.Save(&dock.Snapshot{
		Server:            s.name,
		SavedAt:           s.clock(),
		Residents:         residents,
		Mail:              s.msgr.MailSnapshot(),
		Home:              entries,
		AcceptedTransfers: s.nav.AcceptedSnapshot(),
		DeliveredMsgs:     s.msgr.DeliveredSnapshot(),
	})
}

// restoreFromDock rebuilds the server from the last snapshot: dedup
// windows first (so replays arriving during restore are still absorbed),
// then mail, the home-track table, and finally the residents, whose visit
// engines resume according to their persisted phase.
func (s *Server) restoreFromDock() error {
	snap, err := s.dockStore.Load()
	if err != nil {
		return err
	}
	if snap == nil {
		return nil
	}
	s.nav.RestoreAccepted(snap.AcceptedTransfers)
	s.msgr.RestoreDelivered(snap.DeliveredMsgs)
	// Mail re-enters held slots: a resident's engine reopens its slot.
	s.msgr.RestoreMail(snap.Mail)
	if len(snap.Home) > 0 {
		evs := make([]manager.HomeEvent, len(snap.Home))
		for i, h := range snap.Home {
			evs[i] = manager.HomeEvent{ID: h.ID, Server: h.Server, Arrival: h.Arrival, At: h.At}
		}
		s.mgr.RestoreHome(evs)
	}

	for i := range snap.Residents {
		r := snap.Residents[i]
		rec, derr := navigator.DecodeRecord(r.Record)
		if derr != nil {
			return fmt.Errorf("server %s: dock resident %s: %w", s.name, r.ID, derr)
		}
		s.dockMu.Lock()
		s.dockEntries[r.ID] = &r
		s.dockMu.Unlock()
		now := s.clock()
		s.mgr.RecordArrival(rec.ID, rec.Codebase, "dock-restore", now)
		switch r.Phase {
		case dock.PhaseDeparting:
			// The crash hit mid-dispatch: replay under the same transfer
			// ID, so a transfer that did land before the crash is absorbed
			// by the destination's dedup window (exactly-once handoff).
			dest, tid := r.Dest, r.TransferID
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.resumeDispatch(rec, dest, tid)
			}()
		default:
			// PhaseVisiting re-runs the pending visit (at-least-once
			// within a visit); PhaseResident resumes at the next decision.
			arrived := r.Phase == dock.PhaseVisiting
			s.nav.RegisterArrival(context.Background(), rec, now)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.lifecycle(rec, arrived, nil)
			}()
		}
	}
	return nil
}

// resumeDispatch replays an interrupted migration after a restart. On
// failure the naplet's failover policy applies; a reroute re-enters the
// visit engine as a resident.
func (s *Server) resumeDispatch(rec *naplet.Record, dest, tid string) {
	err := s.migrate(rec, dest, tid)
	if err == nil {
		return
	}
	switch s.applyFailover(rec, rec.Pending, rec.PendingAlts, err) {
	case failoverContinue:
		rec.Pending = itinerary.Visit{}
		rec.PendingAlts = nil
		// Provably still here, and the shutdown withdrew this server's
		// directory entries: put the naplet's back.
		s.nav.RegisterArrival(context.Background(), rec, s.clock())
		s.dockResident(rec, dock.PhaseResident, "", "")
		s.lifecycle(rec, false, nil)
	case failoverDeparted:
	default:
		s.trap(rec, fmt.Errorf("dispatch to %s: %w", dest, err))
		s.cleanup(rec)
	}
}
