// Package loadgen is the sustained-load harness behind `napletctl
// loadgen` and the CI SLO gate: it drives mixed mobile-agent traffic —
// concurrent sequential tours, Par fan-outs, message chase storms, and
// the §6 MAN sweep over thousands of simulated SNMP devices — against a
// real TCP fabric or the simulated WAN, with optional seeded fault
// injection, then judges the run against service-level objectives read
// straight off the telemetry histograms.
//
// Everything the run does is a deterministic function of (profile, seed):
// the plan digest printed in the report is identical across fabrics and
// replays, so a CI failure reproduces locally with -loadgen.seed.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cnmp"
	"repro/internal/fault"
	"repro/internal/itinerary"
	"repro/internal/man"
	"repro/internal/manager"
	"repro/internal/messenger"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Fabric names accepted by Config.Fabric.
const (
	FabricNetsimLAN = "netsim-lan"
	FabricNetsimWAN = "netsim-wan"
	FabricTCP       = "tcp"
)

// Config parameterizes one run.
type Config struct {
	// Profile sizes the run (a Profiles preset, possibly overridden).
	Profile Profile
	// Fabric selects the transport: FabricNetsimLAN, FabricNetsimWAN or
	// FabricTCP.
	Fabric string
	// Seed drives the plan and every probabilistic decision.
	Seed int64
	// Faults enables seeded fault injection (netsim fabrics only): the
	// probabilistic drop/duplicate/delay mix plus the plan's scripted
	// crash and partition windows.
	Faults bool
	// Out receives the human-readable report; nil discards it.
	Out io.Writer
}

// Result is one run's outcome.
type Result struct {
	Profile string
	Fabric  string
	Seed    int64
	Faults  bool
	// PlanDigest fingerprints the deterministic schedule.
	PlanDigest string
	// ToursCompleted counts completed tour launches (seq + par).
	ToursCompleted int
	// Landings counts verified agent landings across tours and sweep.
	Landings int
	// MessagesDelivered counts chase-storm messages received exactly
	// once.
	MessagesDelivered int
	// SweepDevices is the per-round device coverage of the MAN sweep.
	SweepDevices int
	// CNMPBytes / NapletBytes are the management stations' on-the-wire
	// byte totals over the sweep (netsim fabrics only; 0 on TCP).
	CNMPBytes   int64
	NapletBytes int64
	// ByteRatio is CNMPBytes/NapletBytes — the paper's §6 traffic-
	// locality claim, gated against the committed baseline.
	ByteRatio float64
	// SLOs holds every evaluated objective.
	SLOs []telemetry.SLOResult
	// Violations lists every failed invariant and objective; empty means
	// the run passed.
	Violations []string
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// Metrics are the scalar measurements for baseline gating
	// (Baseline.Check).
	Metrics map[string]float64
}

// faultProbabilities is the probabilistic mix loadgen injects. Milder
// than the chaos suite's: loadgen sustains orders of magnitude more
// traffic, so even these rates inject hundreds of faults per run.
var faultProbabilities = fault.Probabilities{
	DropRequest: 0.01,
	DropReply:   0.01,
	Duplicate:   0.02,
	Delay:       0.02,
}

// Run executes one load-generation run and returns its outcome. A
// non-empty Result.Violations means the run failed its objectives; err is
// reserved for the harness itself breaking (setup failure, timeout).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	prof := cfg.Profile
	if prof.Devices <= 0 {
		return nil, fmt.Errorf("loadgen: profile needs devices")
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if prof.Overload != nil {
		return runOverload(ctx, cfg)
	}
	plan := BuildPlan(prof, cfg.Seed, cfg.Faults)
	res := &Result{
		Profile:    prof.Name,
		Fabric:     cfg.Fabric,
		Seed:       cfg.Seed,
		Faults:     cfg.Faults,
		PlanDigest: plan.Digest(),
		Metrics:    map[string]float64{},
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, prof.Timeout)
	defer cancel()

	// --- Fabric ---
	reg := telemetry.NewRegistry()
	var (
		netw   *netsim.Network
		fab    transport.Fabric
		attach func(string) string
		inj    *fault.Injector
	)
	switch cfg.Fabric {
	case FabricNetsimLAN, FabricNetsimWAN:
		link := netsim.LAN
		if cfg.Fabric == FabricNetsimWAN {
			link = netsim.WAN
		}
		netw = netsim.New(netsim.Config{
			DefaultLink: link,
			TimeScale:   0, // pure accounting: modeled delay tallied, not slept
			Seed:        cfg.Seed,
			CallTimeout: 10 * time.Second,
		})
		fab = netw
		if cfg.Faults {
			inj = fault.New(fault.Config{
				Seed:       cfg.Seed,
				P:          faultProbabilities,
				DelaySpike: 100 * time.Microsecond,
				Schedule:   plan.Schedule,
				// Owner reports are the harness's observation channel and
				// the SNMP request/reply pair is the CNMP baseline under
				// comparison, not a protocol under test: keep both clean
				// so the invariants stay sharp.
				Kinds: func(k wire.Kind) bool {
					return k != wire.KindReport &&
						k != wire.KindSNMPRequest && k != wire.KindSNMPReply
				},
				Telemetry: reg,
				MaxTrail:  1 << 16,
			})
			fab = inj.Fabric(netw)
		}
	case FabricTCP:
		if cfg.Faults {
			return nil, fmt.Errorf("loadgen: fault injection needs a netsim fabric (scripted faults address simulator names)")
		}
		tf := transport.NewTCPFabric()
		tf.Instrument(reg)
		fab = tf
		attach = func(string) string { return "127.0.0.1:0" }
	default:
		return nil, fmt.Errorf("loadgen: unknown fabric %q", cfg.Fabric)
	}

	// --- Testbed ---
	extraVars := prof.SweepVars - 4
	if extraVars < 0 {
		extraVars = 0
	}
	tb, err := man.NewTestbed(man.TestbedConfig{
		Devices:    prof.Devices,
		Interfaces: prof.Interfaces,
		ExtraVars:  extraVars,
		Seed:       cfg.Seed,
		Fabric:     fab,
		AttachAddr: attach,
		Telemetry:  reg,
		Tune: func(sc *server.Config) {
			// Generous retry budgets bridge the scripted crash and
			// partition windows; exactly-once then demands the EXACT
			// planned route, with replays absorbed by dedup, not skips.
			sc.DispatchRetries = 200
			sc.DispatchRetryDelay = 200 * time.Microsecond
			sc.Messenger = messenger.Config{
				SendRetries: 8,
				RetryDelay:  200 * time.Microsecond,
				Telemetry:   reg,
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: build testbed: %w", err)
	}
	defer tb.Close()
	if err := RegisterCodebases(tb.Reg); err != nil {
		return nil, err
	}

	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// --- Phase 1: mixed traffic (tours + Par fan-outs + chase storms) ---
	fmt.Fprintf(cfg.Out, "loadgen %s/%s seed=%d devices=%d plan=%s faults=%v\n",
		prof.Name, cfg.Fabric, cfg.Seed, prof.Devices, res.PlanDigest, cfg.Faults)
	fmt.Fprintf(cfg.Out, "phase mixed: %d tours (%d par), %d chase storms x %d msgs\n",
		len(plan.Tours), countPar(plan.Tours), len(plan.Chases), prof.MsgsPerChase)

	if err := runMixed(ctx, tb, plan, prof, res, violate); err != nil {
		return res, err
	}

	// --- Phase 2: §6 MAN sweep, CNMP vs naplet ---
	fmt.Fprintf(cfg.Out, "phase sweep: %d devices x %d vars x %d rounds\n",
		prof.Devices, prof.SweepVars, prof.SweepRounds)
	if err := runSweep(ctx, tb, netw, prof, res, violate); err != nil {
		return res, err
	}

	// --- SLO evaluation over the telemetry histograms ---
	res.SLOs, _ = reg.CheckSLOs(slosFor(cfg))
	for _, s := range res.SLOs {
		if s.Violated {
			violate("SLO %s", s.String())
		}
	}
	if netw != nil && res.ByteRatio > 0 && res.ByteRatio < 0.2 {
		violate("byte ratio %.2f: naplet sweep cost >5x the CNMP baseline at the station", res.ByteRatio)
	}

	// --- Fault reconciliation ---
	if inj != nil {
		reconcileFaults(tb, inj, reg, violate)
	}

	res.Elapsed = time.Since(start)
	fillMetrics(res, reg)
	report(cfg.Out, res)
	return res, nil
}

func countPar(tours []TourSpec) int {
	n := 0
	for _, t := range tours {
		if t.Par {
			n++
		}
	}
	return n
}

// runMixed drives the tour and chase-storm traffic with a bounded
// in-flight window and verifies the exactly-once invariants: every tour
// reports its exact planned route once, every chase delivers every
// message exactly once.
func runMixed(ctx context.Context, tb *man.Testbed, plan *Plan, prof Profile, res *Result, violate func(string, ...any)) error {
	resolve := func(route []int) []string {
		out := make([]string, len(route))
		for i, d := range route {
			out[i] = tb.DeviceNames[d]
		}
		return out
	}

	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		sem = make(chan struct{}, prof.Window)
	)
	for ti := range plan.Tours {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("loadgen: mixed phase timed out launching tour %d: %w", ti, ctx.Err())
		}
		wg.Add(1)
		go func(ti int, spec TourSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			landings, err := runTour(ctx, tb, ti, spec, resolve(spec.Route))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				violate("tour %d: %v", ti, err)
				return
			}
			res.ToursCompleted++
			res.Landings += landings
		}(ti, plan.Tours[ti])
	}
	for ci := range plan.Chases {
		wg.Add(1)
		go func(ci int, spec ChaseSpec) {
			defer wg.Done()
			delivered, err := runChase(ctx, tb, ci, spec, resolve(spec.Route))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				violate("chase %d: %v", ci, err)
			}
			res.MessagesDelivered += delivered
		}(ci, plan.Chases[ci])
	}
	wg.Wait()
	if res.ToursCompleted != len(plan.Tours) {
		violate("tours completed %d/%d — lost or duplicated naplets", res.ToursCompleted, len(plan.Tours))
	}
	wantMsgs := len(plan.Chases) * prof.MsgsPerChase
	if res.MessagesDelivered != wantMsgs {
		violate("chase messages delivered %d/%d", res.MessagesDelivered, wantMsgs)
	}
	return nil
}

// runTour launches one tour from the station and verifies its report(s)
// against the planned route. Sequential tours must report the exact stop
// list once; each Par branch must report its single destination exactly
// once.
func runTour(ctx context.Context, tb *man.Testbed, ti int, spec TourSpec, route []string) (int, error) {
	pattern := itinerary.SeqVisits(route, "")
	wantReports := 1
	if spec.Par {
		pattern = itinerary.ParVisits(route, "")
		wantReports = len(route)
	}
	reports := make(chan string, wantReports+1)
	nid, err := tb.Station.Server.Launch(ctx, server.LaunchOptions{
		Owner:    "loadgen",
		Codebase: TourCodebase,
		Pattern:  pattern,
		Listener: func(r manager.Result) { reports <- string(r.Body) },
	})
	if err != nil {
		return 0, fmt.Errorf("launch: %w", err)
	}
	if !spec.Par {
		// Clones of a Par launch aren't tracked by the home manager's
		// status machine; their branch reports below are the completion
		// signal. Sequential tours have a single tracked naplet.
		if st, err := tb.Station.Server.WaitDone(ctx, nid); err != nil {
			return 0, fmt.Errorf("wait: %w", err)
		} else if st != manager.StatusCompleted {
			_, errText, _ := tb.Station.Server.Status(nid)
			return 0, fmt.Errorf("status %v (%s)", st, errText)
		}
	}
	got := make([]string, 0, wantReports)
	for len(got) < wantReports {
		select {
		case r := <-reports:
			got = append(got, r)
		case <-ctx.Done():
			return 0, fmt.Errorf("only %d/%d reports before timeout", len(got), wantReports)
		}
	}
	landings := 0
	if spec.Par {
		// Every branch visits exactly its own destination.
		sort.Strings(got)
		want := append([]string(nil), route...)
		sort.Strings(want)
		if strings.Join(got, ";") != strings.Join(want, ";") {
			return 0, fmt.Errorf("par branches visited %v, want %v", got, want)
		}
		landings = len(route)
	} else {
		want := strings.Join(route, ",")
		if got[0] != want {
			return 0, fmt.Errorf("route %q, want %q", got[0], want)
		}
		landings = len(route)
	}
	// A late duplicate report would mean a ghost landing.
	select {
	case extra := <-reports:
		return 0, fmt.Errorf("duplicate report %q", extra)
	default:
	}
	return landings, nil
}

// runChase launches a mover touring route and a stationary sender firing
// spec.Msgs messages at it, and verifies exactly-once delivery by
// subject.
func runChase(ctx context.Context, tb *man.Testbed, ci int, spec ChaseSpec, route []string) (int, error) {
	report := make(chan string, 1)
	moverID, err := tb.Station.Server.Launch(ctx, server.LaunchOptions{
		Owner:    fmt.Sprintf("mover%d", ci),
		Codebase: MoverCodebase,
		Pattern:  itinerary.SeqVisits(route, ""),
		InitState: func(s *state.State) error {
			return s.SetPrivate(expectKey, spec.Msgs)
		},
		Listener: func(r manager.Result) { report <- string(r.Body) },
	})
	if err != nil {
		return 0, fmt.Errorf("launch mover: %w", err)
	}
	_, err = tb.Station.Server.Launch(ctx, server.LaunchOptions{
		Owner:    fmt.Sprintf("sender%d", ci),
		Codebase: SenderCodebase,
		Pattern:  itinerary.SeqVisits([]string{tb.StationName}, ""),
		InitState: func(s *state.State) error {
			if err := s.SetPrivate(targetKey, moverID.Key()); err != nil {
				return err
			}
			if err := s.SetPrivate(countKey, spec.Msgs); err != nil {
				return err
			}
			if err := s.SetPrivate(paceKey, 1); err != nil {
				return err
			}
			return s.SetPrivate(hintKey, route[0])
		},
	})
	if err != nil {
		return 0, fmt.Errorf("launch sender: %w", err)
	}
	var body string
	select {
	case body = <-report:
	case <-ctx.Done():
		return 0, fmt.Errorf("mover never completed: %w", ctx.Err())
	}
	countStr, list, _ := strings.Cut(body, ":")
	received, _ := strconv.Atoi(countStr)
	seen := map[string]int{}
	if list != "" {
		for _, s := range strings.Split(list, ",") {
			seen[s]++
		}
	}
	for subject, n := range seen {
		if n > 1 {
			return received, fmt.Errorf("message %s delivered %d times", subject, n)
		}
	}
	if received != spec.Msgs {
		return received, fmt.Errorf("received %d/%d messages", received, spec.Msgs)
	}
	return received, nil
}

// runSweep runs the §6 enterprise sweep both ways — the CNMP station
// polling every device variable-by-variable, then the MAN station
// broadcasting clones in bounded waves — and accounts the stations' wire
// bytes (netsim fabrics only).
func runSweep(ctx context.Context, tb *man.Testbed, netw *netsim.Network, prof Profile, res *Result, violate func(string, ...any)) error {
	oids := tb.QueryOIDs(prof.SweepVars)
	res.SweepDevices = prof.Devices

	// CNMP baseline: per-variable requests, the paper's micro-management
	// characterization, with bounded concurrency standing in for a
	// multi-threaded station.
	if netw != nil {
		netw.ResetStats()
	}
	for round := 0; round < prof.SweepRounds; round++ {
		rep, _, err := tb.CNMP.Collect(ctx, tb.ResponderNames, oids, cnmp.Options{Concurrency: 64})
		if err != nil {
			return fmt.Errorf("loadgen: cnmp sweep round %d: %w", round, err)
		}
		if len(rep) != prof.Devices {
			violate("cnmp sweep round %d covered %d/%d devices", round, len(rep), prof.Devices)
		}
		tb.Tick(time.Second)
	}
	if netw != nil {
		s := netw.HostStats(tb.CNMPName)
		res.CNMPBytes = s.BytesSent + s.BytesRecv
	}

	// Naplet sweep: one NMNaplet tours each SweepWave-sized device chunk
	// and reports the whole chunk's values home in one frame. This is the
	// shape behind the paper's station-traffic claim — the station pays
	// one launch and one report per wave while the agent record hops
	// device-to-device, off the station's links. (Broadcast clones would
	// instead drag the code bundle across the station link once per cold
	// device — E3's documented crossover — so tours are the §6 mode here.)
	// Waves run a few at a time: enough concurrency to overlap tours,
	// bounded so 2000 devices don't mean 2000 in-flight agents.
	if netw != nil {
		netw.ResetStats()
	}
	for round := 0; round < prof.SweepRounds; round++ {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
			sem      = make(chan struct{}, 8)
		)
		for lo := 0; lo < len(tb.DeviceNames); lo += prof.SweepWave {
			hi := lo + prof.SweepWave
			if hi > len(tb.DeviceNames) {
				hi = len(tb.DeviceNames)
			}
			wave := tb.DeviceNames[lo:hi]
			wg.Add(1)
			go func(lo, hi int, wave []string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				rep, _, err := tb.Station.CollectSequential(ctx, wave, oids)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("loadgen: naplet sweep wave %d-%d: %w", lo, hi, err)
					}
					return
				}
				if len(rep) != len(wave) {
					violate("naplet sweep wave %d-%d covered %d/%d devices", lo, hi, len(rep), len(wave))
				}
				res.Landings += len(wave)
			}(lo, hi, wave)
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
		tb.Tick(time.Second)
	}
	if netw != nil {
		s := netw.HostStats(tb.StationName)
		res.NapletBytes = s.BytesSent + s.BytesRecv
		if res.NapletBytes > 0 {
			res.ByteRatio = float64(res.CNMPBytes) / float64(res.NapletBytes)
		}
	}
	return nil
}

// slosFor returns the run's latency objectives. Bounds are deliberately
// generous — they catch structural regressions (retry storms, lock
// convoys, lost wakeups surfacing as timeout-shaped latency), not
// scheduler noise on a loaded CI machine. Fault runs get extra headroom:
// crash windows legitimately push tail latency into the retry range.
func slosFor(cfg Config) []telemetry.SLO {
	hopMax, rttMax := 1.0, 1.0
	if cfg.Fabric == FabricTCP {
		hopMax, rttMax = 2.0, 2.0
	}
	if cfg.Faults {
		hopMax *= 4
		rttMax *= 4
	}
	return []telemetry.SLO{
		{Name: "hop-latency-p99", Series: "naplet_navigator_hop_latency_seconds", Quantile: 0.99, Max: hopMax},
		{Name: "hop-latency-p50", Series: "naplet_navigator_hop_latency_seconds", Quantile: 0.50, Max: hopMax / 2},
		{Name: "confirm-rtt-p99", Series: "naplet_messenger_confirm_rtt_seconds", Quantile: 0.99, Max: rttMax},
	}
}

// reconcileFaults cross-checks the injector's trail against its counters
// and the telemetry registry, and requires every replayed transfer to
// surface as a navigator dedup hit — the chaos suite's reconciliation,
// applied to the sustained run.
func reconcileFaults(tb *man.Testbed, inj *fault.Injector, reg *telemetry.Registry, violate func(string, ...any)) {
	if dropped := inj.TrailDropped(); dropped != 0 {
		violate("fault trail overflowed (%d dropped); raise MaxTrail", dropped)
		return
	}
	tally := make(map[string]int64)
	var transferReplays int64
	for _, ev := range inj.Trail() {
		tally[ev.Fault]++
		if ev.Frame == wire.KindNapletTransfer &&
			(ev.Fault == fault.FaultDuplicate || ev.Fault == fault.FaultDropReply) {
			transferReplays++
		}
	}
	for kind, n := range inj.Counts() {
		if tally[kind] != n {
			violate("fault %s: trail=%d counts=%d", kind, tally[kind], n)
		}
		met := reg.Counter("naplet_fault_injected_total",
			"faults injected by the chaos harness", "fault", kind)
		if met.Value() != n {
			violate("fault %s: telemetry=%d counts=%d", kind, met.Value(), n)
		}
	}
	var dedupHits int64
	for _, srv := range tb.Servers() {
		dedupHits += srv.Navigator().Stats().DupTransfers
	}
	if dedupHits < transferReplays {
		violate("%d transfer replays injected but only %d dedup hits — a replay may have landed twice",
			transferReplays, dedupHits)
	}
}

// fillMetrics flattens the run into the named scalars the baseline gate
// compares.
func fillMetrics(res *Result, reg *telemetry.Registry) {
	res.Metrics["tours_completed"] = float64(res.ToursCompleted)
	res.Metrics["messages_delivered"] = float64(res.MessagesDelivered)
	res.Metrics["landings"] = float64(res.Landings)
	res.Metrics["elapsed_ms"] = float64(res.Elapsed.Milliseconds())
	if res.CNMPBytes > 0 {
		res.Metrics["cnmp_station_bytes"] = float64(res.CNMPBytes)
	}
	if res.NapletBytes > 0 {
		res.Metrics["naplet_station_bytes"] = float64(res.NapletBytes)
	}
	if res.ByteRatio > 0 {
		res.Metrics["byte_ratio"] = res.ByteRatio
	}
	if sum, ok := reg.SummaryOf("naplet_navigator_hop_latency_seconds"); ok {
		res.Metrics["hop_p99_ms"] = sum.P99 * 1000
	}
	if sum, ok := reg.SummaryOf("naplet_messenger_confirm_rtt_seconds"); ok {
		res.Metrics["confirm_p99_ms"] = sum.P99 * 1000
	}
}

// report renders the SLO table and traffic summary.
func report(w io.Writer, res *Result) {
	fmt.Fprintf(w, "traffic: %d tours, %d landings, %d msgs, sweep %d devices in %s\n",
		res.ToursCompleted, res.Landings, res.MessagesDelivered, res.SweepDevices,
		res.Elapsed.Round(time.Millisecond))
	if res.NapletBytes > 0 {
		fmt.Fprintf(w, "sweep bytes: cnmp=%s naplet=%s ratio=%.2f\n",
			stats.Bytes(res.CNMPBytes), stats.Bytes(res.NapletBytes), res.ByteRatio)
	}
	table := stats.NewTable("objective", "quantile", "observed", "bound", "status")
	for _, s := range res.SLOs {
		status := "ok"
		switch {
		case s.Skipped:
			status = "SKIPPED"
		case s.Violated:
			status = "VIOLATED"
		}
		table.AddRow(s.Name, fmt.Sprintf("p%g", s.Quantile*100),
			time.Duration(s.Observed*float64(time.Second)),
			time.Duration(s.Max*float64(time.Second)), status)
	}
	table.WriteTo(w)
	if len(res.Violations) == 0 {
		fmt.Fprintf(w, "loadgen %s/%s: PASS\n", res.Profile, res.Fabric)
		return
	}
	fmt.Fprintf(w, "loadgen %s/%s: FAIL (%d violations)\n", res.Profile, res.Fabric, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  - %s\n", v)
	}
}
