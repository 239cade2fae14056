package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
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
// with workMs of business logic per visit. Completion = every agent
// reported.
func RunE4(shape E4Shape, n, workMs int, link netsim.Link, timeScale float64, seed int64) (time.Duration, error) {
	net := netsim.New(netsim.Config{DefaultLink: link, TimeScale: timeScale, Seed: seed})
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name: "exp.Worker",
		New:  func() naplet.Behavior { return workerAgent{} },
	})
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	servers := make([]*server.Server, 0, n+1)
	for _, name := range append([]string{"home"}, names...) {
		srv, err := server.New(server.Config{Name: name, Fabric: net, Registry: reg})
		if err != nil {
			return 0, err
		}
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

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
	_, err := servers[0].Launch(context.Background(), server.LaunchOptions{
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
		seq, err := RunE4(ShapeSeq, n, workMs, netsim.LAN, 1, opts.Seed)
		if err != nil {
			return err
		}
		par, err := RunE4(ShapePar, n, workMs, netsim.LAN, 1, opts.Seed)
		if err != nil {
			return err
		}
		pos, err := RunE4(ShapeParOfSeq, n, workMs, netsim.LAN, 1, opts.Seed)
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
// protocol cost.
func RunE5(mode locator.Mode, hops int, seed int64) (E5Result, error) {
	return RunE5TTL(mode, hops, 0, seed)
}

// RunE5TTL is RunE5 with a locator cache TTL: the §4.1 caching ablation.
// A cache "reduce[s] the response time of subsequent naplet location
// requests" at the price of staleness — stale hits turn into forwarding
// hops chasing the agent.
func RunE5TTL(mode locator.Mode, hops int, ttl time.Duration, seed int64) (E5Result, error) {
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
	names := []string{"home"}
	for i := 0; i < hops; i++ {
		names = append(names, fmt.Sprintf("s%d", i))
	}
	servers := make(map[string]*server.Server, len(names))
	for _, name := range names {
		srv, err := server.New(server.Config{
			Name:           name,
			Fabric:         net,
			Registry:       reg,
			LocatorMode:    mode,
			LocatorTTL:     ttl,
			DirectoryAddrs: []string{dirAddr},
			ReportHome:     mode == locator.ModeHome,
		})
		if err != nil {
			return res, err
		}
		servers[name] = srv
		defer srv.Close()
	}
	home := servers["home"]

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
	targetID, err := home.Launch(context.Background(), server.LaunchOptions{
		Owner:    "tgt",
		Codebase: "exp.Target",
		Pattern:  itinerary.SeqVisits(names[1:], ""),
		InitState: func(s *state.State) error {
			return s.SetPrivate("controller", ctrlID.Key())
		},
		Listener: func(manager.Result) { done <- struct{}{} },
	})
	if err != nil {
		return res, err
	}
	// The target must know the controller; seed its book via the launch
	// state and the controller learns the target from the first message.
	_ = targetID

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
		res, err := RunE5TTL(c.mode, hops, c.ttl, opts.Seed)
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

// ---------------------------------------------------------------------------
// E6 — §4.2: post-office reliability. A mover agent tours the space while a
// stationary sender fires messages at it; every confirmed or held message
// must be received exactly once, regardless of interleaving.

// moverAgent collects messages at every stop until it has seen `expect`
// messages in total (across all stops), then completes its tour.
type moverAgent struct{}

func (moverAgent) OnStart(ctx *naplet.Context) error {
	var expect int
	if err := ctx.State().Load("expect", &expect); err != nil {
		return err
	}
	var got []string
	ctx.State().Load("got", &got) // absent on the first visit
	// Dwell briefly, draining the mailbox; at the final server, wait for
	// the rest.
	last := ctx.Itinerary().Done()
	deadline := time.After(20 * time.Millisecond)
	for {
		if last && len(got) >= expect {
			break
		}
		if msg, ok := ctx.Messenger.TryReceive(); ok {
			got = append(got, msg.Subject)
			continue
		}
		if last {
			msg, err := ctx.Messenger.Receive(ctx.Cancel)
			if err != nil {
				return err
			}
			got = append(got, msg.Subject)
			continue
		}
		select {
		case <-deadline:
			return ctx.State().SetPrivate("got", got)
		case <-time.After(time.Millisecond):
		}
	}
	return ctx.State().SetPrivate("got", got)
}

func (moverAgent) OnDestroy(ctx *naplet.Context) {
	var got []string
	ctx.State().Load("got", &got)
	payload := make([]byte, 0, 16)
	payload = append(payload, []byte(fmt.Sprintf("%d:", len(got)))...)
	for i, s := range got {
		if i > 0 {
			payload = append(payload, ',')
		}
		payload = append(payload, []byte(s)...)
	}
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctx.Listener.Report(rctx, payload)
}

// E6Result summarizes one reliability run.
type E6Result struct {
	Sent      int
	Received  int
	Dups      int
	Held      int64
	Forwarded int64
	Drained   int64
}

// RunE6 launches a mover over `hops` servers and posts `msgs` messages at
// it from a home-resident sender record, verifying exactly-once delivery.
func RunE6(hops, msgs int, seed int64) (E6Result, error) {
	var res E6Result
	net := netsim.New(netsim.Config{DefaultLink: netsim.LAN, Seed: seed})
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{Name: "exp.Mover", New: func() naplet.Behavior { return moverAgent{} }})
	reg.MustRegister(&registry.Codebase{Name: "exp.Sender", New: func() naplet.Behavior { return senderAgent{} }})

	names := []string{"home"}
	for i := 0; i < hops; i++ {
		names = append(names, fmt.Sprintf("s%d", i))
	}
	servers := make(map[string]*server.Server, len(names))
	for _, name := range names {
		srv, err := server.New(server.Config{Name: name, Fabric: net, Registry: reg})
		if err != nil {
			return res, err
		}
		servers[name] = srv
		defer srv.Close()
	}
	home := servers["home"]

	report := make(chan string, 1)
	moverID, err := home.Launch(context.Background(), server.LaunchOptions{
		Owner:    "mover",
		Codebase: "exp.Mover",
		Pattern:  itinerary.SeqVisits(names[1:], ""),
		InitState: func(s *state.State) error {
			return s.SetPrivate("expect", msgs)
		},
		Listener: func(r manager.Result) { report <- string(r.Body) },
	})
	if err != nil {
		return res, err
	}

	// The sender is a stationary naplet at home firing messages at the
	// mover while it travels.
	_, err = home.Launch(context.Background(), server.LaunchOptions{
		Owner:    "sender",
		Codebase: "exp.Sender",
		Pattern:  itinerary.SeqVisits([]string{"home"}, ""),
		InitState: func(s *state.State) error {
			if err := s.SetPrivate("target", moverID.Key()); err != nil {
				return err
			}
			if err := s.SetPrivate("count", msgs); err != nil {
				return err
			}
			// Pace the sender across the mover's tour so later messages
			// must chase it through the visit traces (§4.2 case 2).
			if err := s.SetPrivate("paceMs", 3); err != nil {
				return err
			}
			return s.SetPrivate("hint", names[1])
		},
	})
	if err != nil {
		return res, err
	}

	var body string
	select {
	case body = <-report:
	case <-time.After(2 * time.Minute):
		return res, fmt.Errorf("e6: mover never completed")
	}
	countStr, list, _ := strings.Cut(body, ":")
	res.Sent = msgs
	res.Received, _ = strconv.Atoi(countStr)
	seen := map[string]int{}
	if list != "" {
		for _, s := range strings.Split(list, ",") {
			seen[s]++
		}
	}
	for _, c := range seen {
		if c > 1 {
			res.Dups += c - 1
		}
	}
	for _, srv := range servers {
		ms := srv.Messenger().Stats()
		res.Held += ms.Held
		res.Forwarded += ms.Forwarded
		res.Drained += ms.DrainedH
	}
	return res, nil
}

// senderAgent posts `count` uniquely-tagged messages at the target,
// retrying transient routing failures (the target may be mid-flight).
type senderAgent struct{}

func (senderAgent) OnStart(ctx *naplet.Context) error {
	var targetKey, hint string
	var count int
	if err := ctx.State().Load("target", &targetKey); err != nil {
		return err
	}
	if err := ctx.State().Load("count", &count); err != nil {
		return err
	}
	ctx.State().Load("hint", &hint)
	target, err := id.Parse(targetKey)
	if err != nil {
		return err
	}
	var paceMs int
	ctx.State().Load("paceMs", &paceMs)
	ctx.AddressBook().Add(target, hint)
	for i := 0; i < count; i++ {
		if paceMs > 0 && i > 0 {
			select {
			case <-time.After(time.Duration(paceMs) * time.Millisecond):
			case <-ctx.Cancel.Done():
				return ctx.Cancel.Err()
			}
		}
		subject := fmt.Sprintf("m%d", i)
		for attempt := 0; ; attempt++ {
			err := ctx.Messenger.Post(ctx.Cancel, target, subject, nil)
			if err == nil {
				break
			}
			if attempt > 50 {
				return fmt.Errorf("sender: message %s undeliverable: %w", subject, err)
			}
			select {
			case <-time.After(2 * time.Millisecond):
			case <-ctx.Cancel.Done():
				return ctx.Cancel.Err()
			}
		}
	}
	return nil
}

// E6PostOffice prints the reliability results across message counts.
func E6PostOffice(w io.Writer, opts Options) error {
	cases := []struct{ hops, msgs int }{{4, 8}, {8, 32}}
	if opts.Quick {
		cases = []struct{ hops, msgs int }{{3, 6}}
	}
	table := stats.NewTable("hops", "msgs", "received", "dups", "held", "fwd", "drained")
	for _, c := range cases {
		res, err := RunE6(c.hops, c.msgs, opts.Seed)
		if err != nil {
			return err
		}
		if res.Received != res.Sent || res.Dups != 0 {
			return fmt.Errorf("e6: delivery broken: %+v", res)
		}
		table.AddRow(c.hops, c.msgs, res.Received, res.Dups, res.Held, res.Forwarded, res.Drained)
	}
	table.WriteTo(w)
	fmt.Fprintln(w, "\nInvariant verified: every posted message is delivered exactly once,")
	fmt.Fprintln(w, "via direct delivery, trace forwarding (§4.2 case 2), or the special")
	fmt.Fprintln(w, "mailbox for early arrivals (§4.2 case 3).")
	return nil
}
