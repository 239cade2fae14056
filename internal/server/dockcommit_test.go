package server

import (
	"os"
	"sync"
	"testing"

	"repro/internal/dock"
	"repro/internal/naplet"
)

// TestConcurrentDockCommitsKeepEveryResident commits residents from many
// goroutines at once, as concurrent landings and held posts do: the saved
// snapshot must hold every one of them. A commit whose snapshot was taken
// before another's must not be saved after it.
func TestConcurrentDockCommitsKeepEveryResident(t *testing.T) {
	const residents = 16
	for round := 0; round < 20; round++ {
		st, err := dock.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sp := newSpace(t, spaceOpts{mutate: func(name string, cfg *Config) { cfg.Dock = st }}, "s1")
		srv := sp.servers["s1"]
		recs := make([]*naplet.Record, residents)
		for i := range recs {
			recs[i] = handRecord("czxu", "test.Collector", "home")
		}
		var wg sync.WaitGroup
		for _, rec := range recs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.dockResident(rec, dock.PhaseVisiting, "", "")
			}()
		}
		wg.Wait()
		snap, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(snap.Residents); got != residents {
			t.Fatalf("round %d: snapshot holds %d of %d committed residents", round, got, residents)
		}
	}
}

// TestDockSaveFailureIsCounted: a commit the store cannot save — the dock
// directory is gone from under a running server — is counted in
// naplet_server_dock_save_errors_total and published as a
// "dock-save-failed" event naming the naplet whose change it carried.
func TestDockSaveFailureIsCounted(t *testing.T) {
	dir := t.TempDir()
	st, err := dock.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := newSpace(t, spaceOpts{mutate: func(name string, cfg *Config) { cfg.Dock = st }}, "s1")
	srv := sp.servers["s1"]
	var mu sync.Mutex
	var failed []Event
	srv.SetEventSink(func(ev Event) {
		if ev.Kind == EventDockSaveFailed {
			mu.Lock()
			failed = append(failed, ev)
			mu.Unlock()
		}
	})
	saveErrors := srv.Telemetry().Counter("naplet_server_dock_save_errors_total", "")
	rec := handRecord("czxu", "test.Collector", "home")
	srv.dockResident(rec, dock.PhaseVisiting, "", "")
	if n := saveErrors.Value(); n != 0 {
		t.Fatalf("%d save errors while the dock directory exists", n)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	srv.dockResident(rec, dock.PhaseResident, "", "")
	if n := saveErrors.Value(); n != 1 {
		t.Fatalf("naplet_server_dock_save_errors_total = %d after one failed commit, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(failed) != 1 || failed[0].Naplet != rec.ID.String() || failed[0].From != "s1" || failed[0].Detail == "" {
		t.Fatalf("dock-save-failed events: %+v", failed)
	}
}
