// Package experiments implements the reproduction experiments that no test,
// benchmark or loadgen run already proves: E1, E4, E5, E8 and E9 of
// EXPERIMENTS.md. Each regenerates one figure or claim of the Naplet paper
// as a printed table; cmd/manbench runs them from the command line and the
// root bench_test.go wraps their measurement cores as testing.B benchmarks.
// EXPERIMENTS.md names what holds the numbers of E2, E3, E6, E7, E10 and
// E11.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/id"
	"repro/internal/stats"
)

// Options configure an experiment run.
type Options struct {
	// Quick shrinks sweeps for fast runs (tests, CI).
	Quick bool
	// Seed fixes all random processes.
	Seed int64
}

// Experiment is one runnable experiment.
type Experiment struct {
	// ID is the experiment identifier ("e1", "e4", ...).
	ID string
	// Title describes what it reproduces.
	Title string
	// Run executes the experiment, writing its tables to w.
	Run func(w io.Writer, opts Options) error
}

// All lists every experiment in order.
func All() []Experiment {
	return []Experiment{
		{ID: "e1", Title: "Figure 1: hierarchical naplet identifiers and clone heritage", Run: E1CloneIDs},
		{ID: "e4", Title: "§3: structured itinerary patterns (seq vs par vs par-of-seq)", Run: E4Itinerary},
		{ID: "e5", Title: "§4.1: naplet location modes (directory / home / forwarding)", Run: E5Location},
		{ID: "e8", Title: "§5.3: service channels vs open services", Run: E8ServiceChannel},
		{ID: "e9", Title: "§5.2: monitor scheduling and resource budgets", Run: E9Monitor},
	}
}

// Lookup finds an experiment by ID.
func Lookup(idStr string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == idStr {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// E1 — Figure 1: hierarchical naplet identifiers.

// E1CloneIDs demonstrates the clone heritage encoding of Figure 1 by
// recursively cloning a naplet identifier and parsing every derived form
// back, then reports round-trip throughput.
func E1CloneIDs(w io.Writer, opts Options) error {
	created := time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)
	root := id.MustNew("czxu", "ece.eng.wayne.edu", created)

	fmt.Fprintln(w, "Clone tree (paper Figure 1):")
	tree := stats.NewTable("identifier", "depth", "original?", "originator")
	var walk func(nid id.NapletID, depth, fanout int) error
	count := 0
	walk = func(nid id.NapletID, depth, fanout int) error {
		tree.AddRow(nid.String(), nid.Heritage().Depth(), nid.IsOriginal(), nid.Originator().String())
		count++
		// Round-trip invariant for every node.
		back, err := id.Parse(nid.String())
		if err != nil || !back.Equal(nid) {
			return fmt.Errorf("e1: round trip failed for %s: %v", nid, err)
		}
		if depth == 0 {
			return nil
		}
		for k := 1; k <= fanout; k++ {
			c, err := nid.Clone(k)
			if err != nil {
				return err
			}
			if err := walk(c, depth-1, fanout); err != nil {
				return err
			}
		}
		return nil
	}
	depth, fanout := 3, 2
	if opts.Quick {
		depth = 2
	}
	if err := walk(root, depth, fanout); err != nil {
		return err
	}
	tree.WriteTo(w)

	// Throughput of the identifier codec (the cost of the management
	// plane's most frequent parse).
	n := 100000
	if opts.Quick {
		n = 10000
	}
	sample := "czxu@ece.eng.wayne.edu:010512172720:2.1.3"
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := id.Parse(sample); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "\n%d identifiers in tree; Parse throughput: %.0f IDs/ms (n=%d)\n",
		count, float64(n)/float64(elapsed.Milliseconds()+1), n)
	return nil
}
