// Package experiments implements the reproduction experiments E1–E11
// catalogued in DESIGN.md and EXPERIMENTS.md. Each experiment regenerates
// one figure or claim of the Naplet paper as a printed table; cmd/manbench
// runs them from the command line and the root bench_test.go wraps their
// measurement cores as testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/server"
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
	// ID is the experiment identifier ("e1".."e11").
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
		{ID: "e2", Title: "Figure 2: NapletServer architecture round trip", Run: E2ServerRoundTrip},
		{ID: "e3", Title: "Figure 3 / §6: mobile-agent vs centralized SNMP management", Run: E3ManVsCnmp},
		{ID: "e4", Title: "§3: structured itinerary patterns (seq vs par vs par-of-seq)", Run: E4Itinerary},
		{ID: "e5", Title: "§4.1: naplet location modes (directory / home / forwarding)", Run: E5Location},
		{ID: "e6", Title: "§4.2: post-office reliability under migration", Run: E6PostOffice},
		{ID: "e7", Title: "§2.1: lazy code loading and migration cost breakdown", Run: E7Migration},
		{ID: "e8", Title: "§5.3: service channels vs open services", Run: E8ServiceChannel},
		{ID: "e9", Title: "§5.2: monitor scheduling and resource budgets", Run: E9Monitor},
		{ID: "e10", Title: "event monitoring: trap forwarding vs on-site filtering naplets", Run: E10EventMonitoring},
		{ID: "e11", Title: "§6 at scale: enterprise MAN sweep under sustained load and faults", Run: E11EnterpriseSweep},
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

// ---------------------------------------------------------------------------
// E2 — Figure 2: full server architecture round trip.

// tourAgent is E2's instrumented agent: it records its tour and reports.
type tourAgent struct{}

func (tourAgent) OnStart(ctx *naplet.Context) error {
	var tour []string
	ctx.State().Load("tour", &tour)
	return ctx.State().SetPrivate("tour", append(tour, ctx.Server))
}

func (tourAgent) OnDestroy(ctx *naplet.Context) {
	var tour []string
	ctx.State().Load("tour", &tour)
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctx.Listener.Report(rctx, []byte(strings.Join(tour, ",")))
}

// e2Registry builds the registry used by the framework experiments.
func e2Registry(bundle int) *registry.Registry {
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name:       "exp.Tour",
		New:        func() naplet.Behavior { return tourAgent{} },
		BundleSize: bundle,
	})
	return reg
}

// RoundTripResult is E2's measured outcome, reused by the benchmark.
type RoundTripResult struct {
	Tour       string
	Elapsed    time.Duration
	FramesSent int64
	BytesSent  int64
}

// RunRoundTrip launches one tour agent across n servers over the given
// link and waits for its report: the complete Figure-2 path (manager →
// navigator → security → monitor → messenger → locator → resource) per hop.
func RunRoundTrip(n int, link netsim.Link, seed int64) (RoundTripResult, error) {
	var res RoundTripResult
	net := netsim.New(netsim.Config{DefaultLink: link, Seed: seed})
	reg := e2Registry(8 << 10)

	names := []string{"home"}
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("s%d", i))
	}
	servers := make([]*server.Server, 0, len(names))
	for _, name := range names {
		srv, err := server.New(server.Config{Name: name, Fabric: net, Registry: reg})
		if err != nil {
			return res, err
		}
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	report := make(chan string, 1)
	start := time.Now()
	nid, err := servers[0].Launch(context.Background(), server.LaunchOptions{
		Owner:    "czxu",
		Codebase: "exp.Tour",
		Pattern:  itinerary.SeqVisits(names[1:], ""),
		Listener: func(r manager.Result) { report <- string(r.Body) },
	})
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := servers[0].WaitDone(ctx, nid); err != nil {
		return res, err
	}
	select {
	case res.Tour = <-report:
	case <-ctx.Done():
		return res, ctx.Err()
	}
	res.Elapsed = time.Since(start)
	total := net.TotalStats()
	res.FramesSent = total.FramesSent
	res.BytesSent = total.BytesSent
	return res, nil
}

// E2ServerRoundTrip runs tours of increasing length and prints the per-hop
// protocol cost, confirming every component of Figure 2 engages.
func E2ServerRoundTrip(w io.Writer, opts Options) error {
	sizes := []int{1, 2, 4, 8, 16}
	if opts.Quick {
		sizes = []int{1, 2, 4}
	}
	table := stats.NewTable("servers", "frames", "bytes", "frames/hop", "elapsed")
	for _, n := range sizes {
		res, err := RunRoundTrip(n, netsim.Loopback, opts.Seed)
		if err != nil {
			return err
		}
		wantTour := n
		if got := len(strings.Split(res.Tour, ",")); got != wantTour {
			return fmt.Errorf("e2: tour covered %d of %d servers (%q)", got, wantTour, res.Tour)
		}
		table.AddRow(n, res.FramesSent, stats.Bytes(res.BytesSent),
			float64(res.FramesSent)/float64(n), res.Elapsed)
	}
	table.WriteTo(w)
	fmt.Fprintln(w, "\nEach hop engages the full Figure-2 path: landing request (first contact")
	fmt.Fprintln(w, "only: a fresh fleet per row), transfer, arrival registration, monitor")
	fmt.Fprintln(w, "admission, mailbox; the tour ends with its result and a completed report.")
	return nil
}
