package server

import (
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
