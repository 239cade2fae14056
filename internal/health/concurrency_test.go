package health

import (
	"fmt"
	"sync"
	"testing"
)

// TestDetectorConcurrentReportsAndSnapshots hammers one detector from
// many goroutines mixing ReportSuccess/ReportFailure with State/Allow
// and the Trail snapshot and per-state peer gauge reads, under the -race scope. The invariants:
// snapshots never tear (bounded trail, valid states, transitions walk
// the alive/suspect/dead lattice), and an all-success epilogue leaves
// every peer alive.
func TestDetectorConcurrentReportsAndSnapshots(t *testing.T) {
	d := New(Config{SuspectThreshold: 2, DeadThreshold: 4, TrailCap: 64})
	const (
		goroutines = 16
		peers      = 8
		ops        = 500
	)
	peerName := func(i int) string { return fmt.Sprintf("peer-%d", i%peers) }

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				addr := peerName(g + i)
				switch (g + i) % 5 {
				case 0:
					d.ReportFailure(addr)
				case 1, 2:
					d.ReportSuccess(addr)
				case 3:
					d.State(addr)
					d.Allow(addr)
				case 4:
					// Snapshot while the reporters churn.
					trail := d.Trail()
					if len(trail) > 64 {
						t.Errorf("trail grew past its cap: %d", len(trail))
						return
					}
					for _, tr := range trail {
						if !validState(tr.From) || !validState(tr.To) || tr.From == tr.To {
							t.Errorf("invalid transition %+v", tr)
							return
						}
						if tr.Peer == "" || tr.At.IsZero() {
							t.Errorf("torn transition %+v", tr)
							return
						}
					}
					for p := 0; p < peers; p++ {
						if st := d.State(peerName(p)); !validState(st) {
							t.Errorf("invalid state %q=%v", peerName(p), st)
							return
						}
					}
					_ = d.count(StateDead) // the per-state gauge's read
				}
			}
		}(g)
	}
	wg.Wait()

	// Epilogue: enough successes walk every peer back to alive.
	for i := 0; i < peers; i++ {
		for j := 0; j < 8; j++ {
			d.ReportSuccess(peerName(i))
		}
	}
	if n := d.count(StateAlive); n != peers {
		t.Fatalf("alive peers = %d after all-success epilogue, want %d", n, peers)
	}
}

func validState(s State) bool {
	return s == StateAlive || s == StateSuspect || s == StateDead
}
