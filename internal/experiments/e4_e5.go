package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/directory"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/stats"
)

// fleet starts a dock named "home" and n stops "s0".."s{n-1}" on net, each
// configured as base under its own name. It returns the docks, home first,
// and the stop names; closeAll shuts the docks down.
func fleet(net *netsim.Network, base server.Config, n int) ([]*server.Server, []string, error) {
	stops := make([]string, n)
	for i := range stops {
		stops[i] = fmt.Sprintf("s%d", i)
	}
	docks := make([]*server.Server, 0, n+1)
	for _, name := range append([]string{"home"}, stops...) {
		cfg := base
		cfg.Name, cfg.Fabric = name, net
		srv, err := server.New(cfg)
		if err != nil {
			closeAll(docks)
			return nil, nil, err
		}
		docks = append(docks, srv)
	}
	return docks, stops, nil
}

func closeAll(docks []*server.Server) {
	for _, s := range docks {
		s.Close()
	}
}

// ---------------------------------------------------------------------------
// E4 — §3: itinerary patterns.

// workerAgent does a fixed amount of per-visit "work" (a sleep read from
// its state) and reports on destruction.
type workerAgent struct{}

func (workerAgent) OnStart(ctx *naplet.Context) error {
	var ms int
	if err := ctx.State().Load("workMs", &ms); err == nil && ms > 0 {
		select {
		case <-time.After(time.Duration(ms) * time.Millisecond):
		case <-ctx.Cancel.Done():
			return ctx.Cancel.Err()
		}
	}
	return nil
}

func (workerAgent) OnDestroy(ctx *naplet.Context) {
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctx.Listener.Report(rctx, []byte("done"))
}

// E4Shape names one itinerary shape in the comparison.
type E4Shape string

// E4 shapes.
const (
	ShapeSeq      E4Shape = "seq"
	ShapePar      E4Shape = "par"
	ShapeParOfSeq E4Shape = "par-of-seq" // paper Example 3: k branches of n/k stops
)

// RunE4 measures the completion time of one itinerary shape over n servers
// of a LAN with workMs of business logic per visit. Completion = every
// agent reported.
func RunE4(shape E4Shape, n, workMs int, seed int64) (time.Duration, error) {
	net := netsim.New(netsim.Config{DefaultLink: netsim.LAN, Seed: seed})
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name: "exp.Worker",
		New:  func() naplet.Behavior { return workerAgent{} },
	})
	servers, names, err := fleet(net, server.Config{Registry: reg}, n)
	if err != nil {
		return 0, err
	}
	defer closeAll(servers)

	var pattern *itinerary.Pattern
	wantReports := 1
	switch shape {
	case ShapeSeq:
		pattern = itinerary.SeqVisits(names, "")
	case ShapePar:
		pattern = itinerary.ParVisits(names, "")
		wantReports = n
	case ShapeParOfSeq:
		// Example 3 generalized: 2 branches of n/2 sequential stops.
		half := n / 2
		if half == 0 {
			half = 1
		}
		pattern = itinerary.Par(
			itinerary.SeqVisits(names[:half], ""),
			itinerary.SeqVisits(names[half:], ""),
		)
		wantReports = 2
		if len(names[half:]) == 0 {
			wantReports = 1
		}
	default:
		return 0, fmt.Errorf("e4: unknown shape %q", shape)
	}

	reports := make(chan struct{}, wantReports+1)
	start := time.Now()
	_, err = servers[0].Launch(context.Background(), server.LaunchOptions{
		Owner:    "czxu",
		Codebase: "exp.Worker",
		Pattern:  pattern,
		InitState: func(s *state.State) error {
			return s.SetPrivate("workMs", workMs)
		},
		Listener: func(manager.Result) { reports <- struct{}{} },
	})
	if err != nil {
		return 0, err
	}
	deadline := time.After(5 * time.Minute)
	for i := 0; i < wantReports; i++ {
		select {
		case <-reports:
		case <-deadline:
			return 0, fmt.Errorf("e4: timeout waiting for report %d/%d", i+1, wantReports)
		}
	}
	return time.Since(start), nil
}

// E4Itinerary compares the completion time of the three §3 pattern shapes:
// par ≈ seq/n plus clone overhead, par-of-seq in between.
func E4Itinerary(w io.Writer, opts Options) error {
	sizes := []int{2, 4, 8}
	workMs := 20
	if opts.Quick {
		sizes = []int{2, 4}
		workMs = 10
	}
	table := stats.NewTable("servers", "work/visit", "seq", "par", "par-of-seq", "speedup(par)")
	for _, n := range sizes {
		seq, err := RunE4(ShapeSeq, n, workMs, opts.Seed)
		if err != nil {
			return err
		}
		par, err := RunE4(ShapePar, n, workMs, opts.Seed)
		if err != nil {
			return err
		}
		pos, err := RunE4(ShapeParOfSeq, n, workMs, opts.Seed)
		if err != nil {
			return err
		}
		table.AddRow(n, fmt.Sprintf("%dms", workMs),
			seq.Round(time.Millisecond), par.Round(time.Millisecond),
			pos.Round(time.Millisecond), float64(seq)/float64(par))
	}
	table.WriteTo(w)
	fmt.Fprintln(w, "\nExpected shape: par completes in ~1 visit time regardless of n;")
	fmt.Fprintln(w, "seq grows linearly; par-of-seq (2 branches) sits near seq/2.")
	return nil
}

// ---------------------------------------------------------------------------
// E5 — §4.1: location modes. A target agent tours the space; a stationary
// controller agent exchanges a ping-pong with it at every stop, so every
// round exercises Locate against a fresh location.

// controllerAgent waits for "arrived" messages and answers "go", n times.
type controllerAgent struct{}

func (controllerAgent) OnStart(ctx *naplet.Context) error {
	var rounds int
	if err := ctx.State().Load("rounds", &rounds); err != nil {
		return err
	}
	for i := 0; i < rounds; i++ {
		msg, err := ctx.Messenger.Receive(ctx.Cancel)
		if err != nil {
			return err
		}
		// The arrival announcement carries the target's current server,
		// which seeds the book entry (essential in forward mode).
		ctx.AddressBook().Add(msg.From, string(msg.Body))
		if err := ctx.Messenger.Post(ctx.Cancel, msg.From, "go", nil); err != nil {
			return err
		}
	}
	return nil
}

// targetAgent announces its arrival to the controller and waits for "go"
// before travelling on.
type targetAgent struct{}

func (targetAgent) OnStart(ctx *naplet.Context) error {
	var ctrlKey string
	if err := ctx.State().Load("controller", &ctrlKey); err != nil {
		return err
	}
	ctrl, err := id.Parse(ctrlKey)
	if err != nil {
		return err
	}
	// Communication is restricted to peers in the address book (§2.1);
	// the controller is stationary at its home server.
	ctx.AddressBook().Add(ctrl, ctrl.Host())
	if err := ctx.Messenger.Post(ctx.Cancel, ctrl, "arrived", []byte(ctx.Server)); err != nil {
		return err
	}
	if _, err := ctx.Messenger.Receive(ctx.Cancel); err != nil {
		return err
	}
	return nil
}

func (targetAgent) OnDestroy(ctx *naplet.Context) {
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctx.Listener.Report(rctx, []byte("toured"))
}

// E5Result is one mode's measured outcome.
type E5Result struct {
	Frames    int64
	Bytes     int64
	Forwarded int64
	DirCalls  int64
	HomeCalls int64
}

// RunE5 runs the ping-pong tour under one location mode and returns the
// protocol cost. A ttl above zero turns on the locator cache, the §4.1
// caching ablation: a cache "reduce[s] the response time of subsequent
// naplet location requests" at the price of staleness — stale hits turn
// into forwarding hops chasing the agent.
func RunE5(mode locator.Mode, hops int, ttl time.Duration, seed int64) (E5Result, error) {
	var res E5Result
	net := netsim.New(netsim.Config{DefaultLink: netsim.LAN, Seed: seed})
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{Name: "exp.Controller", New: func() naplet.Behavior { return controllerAgent{} }})
	reg.MustRegister(&registry.Codebase{Name: "exp.Target", New: func() naplet.Behavior { return targetAgent{} }})

	dirAddr := ""
	if mode == locator.ModeDirectory {
		dirAddr = "dir"
		if _, err := directory.NewService().Serve(net, "dir"); err != nil {
			return res, err
		}
	}
	servers, stops, err := fleet(net, server.Config{
		Registry:       reg,
		LocatorMode:    mode,
		LocatorTTL:     ttl,
		DirectoryAddrs: []string{dirAddr},
		ReportHome:     mode == locator.ModeHome,
	}, hops)
	if err != nil {
		return res, err
	}
	defer closeAll(servers)
	home := servers[0]

	ctrlID, err := home.Launch(context.Background(), server.LaunchOptions{
		Owner:    "ctrl",
		Codebase: "exp.Controller",
		Pattern:  itinerary.SeqVisits([]string{"home"}, ""),
		InitState: func(s *state.State) error {
			return s.SetPrivate("rounds", hops)
		},
	})
	if err != nil {
		return res, err
	}
	done := make(chan struct{}, 1)
	_, err = home.Launch(context.Background(), server.LaunchOptions{
		Owner:    "tgt",
		Codebase: "exp.Target",
		Pattern:  itinerary.SeqVisits(stops, ""),
		InitState: func(s *state.State) error {
			return s.SetPrivate("controller", ctrlID.Key())
		},
		Listener: func(manager.Result) { done <- struct{}{} },
	})
	if err != nil {
		return res, err
	}

	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		return res, fmt.Errorf("e5: tour did not complete (mode %v)", mode)
	}

	total := net.TotalStats()
	res.Frames = total.FramesSent
	res.Bytes = total.BytesSent
	for _, srv := range servers {
		ms := srv.Messenger().Stats()
		res.Forwarded += ms.Forwarded
		ls := srv.Locator().Stats()
		res.DirCalls += ls.Directory
		res.HomeCalls += ls.HomeQuery
	}
	return res, nil
}

// E5Location compares the three location modes' protocol cost for the same
// communication pattern.
func E5Location(w io.Writer, opts Options) error {
	hops := 8
	if opts.Quick {
		hops = 4
	}
	table := stats.NewTable("mode", "cache", "hops", "frames", "bytes", "fwd", "dirRPC", "homeRPC")
	type cfg struct {
		mode locator.Mode
		ttl  time.Duration
	}
	for _, c := range []cfg{
		{locator.ModeDirectory, 0},
		{locator.ModeDirectory, time.Minute},
		{locator.ModeHome, 0},
		{locator.ModeHome, time.Minute},
		{locator.ModeForward, 0},
	} {
		res, err := RunE5(c.mode, hops, c.ttl, opts.Seed)
		if err != nil {
			return err
		}
		cache := "off"
		if c.ttl > 0 {
			cache = "on"
		}
		table.AddRow(c.mode.String(), cache, hops, res.Frames, stats.Bytes(res.Bytes),
			res.Forwarded, res.DirCalls, res.HomeCalls)
	}
	table.WriteTo(w)
	fmt.Fprintln(w, "\nExpected shape: directory mode trades registration traffic for")
	fmt.Fprintln(w, "direct delivery; forward mode avoids lookups but pays forwarding")
	fmt.Fprintln(w, "hops chasing the stale address-book entry; home mode sits between.")
	fmt.Fprintln(w, "Caching cuts lookup RPCs but stale hits against a moving target turn")
	fmt.Fprintln(w, "into forwarding hops (§4.1's staleness/latency trade-off).")
	return nil
}
