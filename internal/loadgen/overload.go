package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// OverloadSpec sizes the overload-resilience scenario: a single dock
// whose handler runs behind a prioritized admission gate, driven first
// at capacity and then at Multiple times capacity by closed-loop
// clients with budgeted retries, while a control-plane prober measures
// whether control traffic ever queues behind bulk. The run passes when
// overload-phase goodput holds GoodputFloor of measured capacity, the
// control p99 holds its SLO, and every shed reconciles three ways:
// client-observed typed errors == gate accounting == telemetry.
type OverloadSpec struct {
	// Workers is the capacity-phase closed-loop client count; size it
	// to MaxInFlight so phase 1 saturates the dock without queueing.
	Workers int
	// Work is the bulk service time at the dock.
	Work time.Duration
	// Multiple scales Workers for the overload phase (the tentpole
	// claim is 2x sustained overload).
	Multiple int
	// Phase is the duration of each phase.
	Phase time.Duration
	// MaxInFlight, MaxQueue and MaxWait size the dock's gate.
	MaxInFlight int
	MaxQueue    int
	MaxWait     time.Duration
	// ControlInterval is the control prober's firing period during the
	// overload phase.
	ControlInterval time.Duration
	// GoodputFloor is the overload-phase goodput requirement as a
	// fraction of the capacity phase's measured goodput.
	GoodputFloor float64
	// ControlP99 bounds the control-plane round trip p99 under
	// overload. MaxWait is deliberately far above this bound: control
	// queuing behind bulk would blow the SLO, not hide inside it.
	ControlP99 time.Duration
}

// overloadCounts is one phase's client-side ledger. The reconciliation
// sums both phases and holds the totals against the gate's own books.
type overloadCounts struct {
	attempts     atomic.Int64 // bulk frames put on the wire
	success      atomic.Int64 // confirmed replies (goodput)
	shedOverload atomic.Int64 // typed ErrOverloaded replies
	shedDeadline atomic.Int64 // typed ErrDeadlinePast replies
	giveups      atomic.Int64 // jobs abandoned by the retry budget
	other        atomic.Int64 // untyped failures (always a violation)
}

// runOverload executes the overload-resilience scenario in place of the
// testbed phases. It shares Run's contract: Violations mean the run
// failed its objectives, err means the harness itself broke.
func runOverload(ctx context.Context, cfg Config) (*Result, error) {
	prof := cfg.Profile
	spec := prof.Overload
	if cfg.Faults {
		return nil, fmt.Errorf("loadgen: the overload profile injects its own load; -faults applies to the testbed profiles")
	}
	plan := BuildPlan(prof, cfg.Seed, false)
	res := &Result{
		Profile:    prof.Name,
		Fabric:     cfg.Fabric,
		Seed:       cfg.Seed,
		PlanDigest: plan.Digest(),
		Metrics:    map[string]float64{},
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, prof.Timeout)
	defer cancel()

	reg := telemetry.NewRegistry()
	_, fab, addr, err := newFabric(cfg.Fabric, cfg.Seed, reg)
	if err != nil {
		return nil, err
	}

	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// The dock: bulk work runs behind the gate for Work; control is
	// answered immediately after (ungated) admission, exactly as the
	// server's dispatch path orders it.
	gate := overload.NewGate(overload.GateConfig{
		MaxInFlight: spec.MaxInFlight,
		MaxQueue:    spec.MaxQueue,
		MaxWait:     spec.MaxWait,
		MaxTrail:    1 << 15,
		Telemetry:   reg,
	})
	dockHandler := func(from string, f wire.Frame) (wire.Frame, error) {
		hctx, hcancel := f.BudgetContext(context.Background())
		release, err := gate.Admit(hctx, overload.Classify(f.Kind))
		hcancel()
		if err != nil {
			return wire.Frame{}, err
		}
		defer release()
		switch f.Kind {
		case wire.KindPost:
			time.Sleep(spec.Work)
			return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From}, nil
		case wire.KindLocatorQuery:
			return wire.Frame{Kind: wire.KindLocatorReply, From: f.To, To: f.From}, nil
		default:
			return wire.Frame{}, fmt.Errorf("overload rig: unexpected kind %q", f.Kind)
		}
	}
	noCalls := func(from string, f wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, fmt.Errorf("overload rig: client node called")
	}
	dock, err := fab.Attach(addr("dock"), dockHandler)
	if err != nil {
		return nil, fmt.Errorf("loadgen: attach dock: %w", err)
	}
	defer dock.Close()
	bulkNode, err := fab.Attach(addr("lg-bulk"), noCalls)
	if err != nil {
		return nil, fmt.Errorf("loadgen: attach bulk client: %w", err)
	}
	defer bulkNode.Close()
	// The prober gets its own node (own mux connection on TCP) so the
	// control-plane measurement never shares a write path with bulk.
	ctlNode, err := fab.Attach(addr("lg-ctl"), noCalls)
	if err != nil {
		return nil, fmt.Errorf("loadgen: attach control client: %w", err)
	}
	defer ctlNode.Close()
	dockAddr := dock.Addr()

	budget := overload.NewRetryBudget(overload.RetryBudgetConfig{
		Ratio: 0.2, Burst: 10, Name: "loadgen", Telemetry: reg,
	})
	ctlHist := reg.Histogram("naplet_loadgen_control_rtt_seconds",
		"control-plane probe round trips during the overload phase",
		telemetry.LatencyBuckets)

	// drive runs one closed-loop phase: workers jobs with budgeted,
	// backed-off retries until the phase clock expires.
	drive := func(workers int, counts *overloadCounts) {
		stop := make(chan struct{})
		timer := time.AfterFunc(spec.Phase, func() { close(stop) })
		defer timer.Stop()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					case <-ctx.Done():
						return
					default:
					}
					budget.RecordAttempt()
					delay := time.Millisecond
					for {
						cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
						_, err := bulkNode.Call(cctx, dockAddr, wire.Frame{Kind: wire.KindPost, Payload: []byte("job")})
						ccancel()
						counts.attempts.Add(1)
						if err == nil {
							counts.success.Add(1)
							break
						}
						switch {
						case errors.Is(err, overload.ErrDeadlinePast):
							counts.shedDeadline.Add(1)
						case errors.Is(err, overload.ErrOverloaded):
							counts.shedOverload.Add(1)
						default:
							counts.other.Add(1)
							return
						}
						select {
						case <-stop:
							return
						case <-ctx.Done():
							return
						default:
						}
						if !budget.AllowRetry() {
							counts.giveups.Add(1)
							break
						}
						time.Sleep(delay)
						if delay *= 2; delay > 4*time.Millisecond {
							delay = 4 * time.Millisecond
						}
					}
				}
			}()
		}
		wg.Wait()
	}

	fmt.Fprintf(cfg.Out, "loadgen %s/%s seed=%d plan=%s\n",
		prof.Name, cfg.Fabric, cfg.Seed, res.PlanDigest)
	fmt.Fprintf(cfg.Out, "phase capacity: %d workers, %s work, %d slots, %s\n",
		spec.Workers, spec.Work, spec.MaxInFlight, spec.Phase)
	var capacity, over overloadCounts
	drive(spec.Workers, &capacity)

	fmt.Fprintf(cfg.Out, "phase overload: %dx workers (%d), control probe every %s\n",
		spec.Multiple, spec.Workers*spec.Multiple, spec.ControlInterval)
	var (
		proberWG    sync.WaitGroup
		proberStop  = make(chan struct{})
		proberCalls int64
		proberErrs  int64
	)
	proberWG.Add(1)
	go func() {
		defer proberWG.Done()
		tick := time.NewTicker(spec.ControlInterval)
		defer tick.Stop()
		for {
			select {
			case <-proberStop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
			t0 := time.Now()
			_, err := ctlNode.Call(cctx, dockAddr, wire.Frame{Kind: wire.KindLocatorQuery, Payload: []byte("probe")})
			ccancel()
			proberCalls++
			if err != nil {
				proberErrs++
				continue
			}
			ctlHist.ObserveDuration(time.Since(t0))
		}
	}()
	drive(spec.Workers*spec.Multiple, &over)
	close(proberStop)
	proberWG.Wait()

	if ctx.Err() != nil {
		return res, fmt.Errorf("loadgen: overload run timed out: %w", ctx.Err())
	}

	// --- Objectives ---
	capRate := float64(capacity.success.Load()) / spec.Phase.Seconds()
	overRate := float64(over.success.Load()) / spec.Phase.Seconds()
	ratio := 0.0
	if capRate > 0 {
		ratio = overRate / capRate
	} else {
		violate("capacity phase completed zero jobs")
	}
	if ratio < spec.GoodputFloor {
		violate("overload goodput %.0f/s is %.2f of capacity %.0f/s (floor %.2f) — shedding is collapsing goodput instead of protecting it",
			overRate, ratio, capRate, spec.GoodputFloor)
	}
	st := gate.Stats()
	if st.TotalShed() == 0 {
		violate("overload phase shed nothing — the rig is not saturating the gate")
	}
	if proberErrs > 0 {
		violate("%d/%d control probes failed — control must never be shed", proberErrs, proberCalls)
	}
	res.SLOs, _ = reg.CheckSLOs([]telemetry.SLO{{
		Name:     "control-rtt-p99",
		Series:   "naplet_loadgen_control_rtt_seconds",
		Quantile: 0.99,
		Max:      spec.ControlP99.Seconds(),
	}})
	for _, s := range res.SLOs {
		if s.Violated {
			violate("SLO %s", s.String())
		}
	}

	// --- Three-way shed reconciliation: clients vs gate vs telemetry ---
	if st.InFlight != 0 || st.Queued != 0 {
		violate("gate not quiesced after the run: %+v", st)
	}
	if st.ControlArrivals != st.ControlAdmitted {
		violate("control arrivals %d != admitted %d — control was shed", st.ControlArrivals, st.ControlAdmitted)
	}
	if st.BulkArrivals != st.BulkAdmitted+st.TotalShed() {
		violate("gate accounting leak: bulk arrivals %d != admitted %d + shed %d",
			st.BulkArrivals, st.BulkAdmitted, st.TotalShed())
	}
	attempts := capacity.attempts.Load() + over.attempts.Load()
	success := capacity.success.Load() + over.success.Load()
	shedOver := capacity.shedOverload.Load() + over.shedOverload.Load()
	shedDead := capacity.shedDeadline.Load() + over.shedDeadline.Load()
	if n := capacity.other.Load() + over.other.Load(); n != 0 {
		violate("%d bulk calls failed with untyped errors", n)
	}
	if attempts != st.BulkArrivals {
		violate("clients sent %d bulk frames, gate saw %d arrive", attempts, st.BulkArrivals)
	}
	if success != st.BulkAdmitted {
		violate("clients confirmed %d jobs, gate admitted %d", success, st.BulkAdmitted)
	}
	if wantOver := st.TotalShed() - st.Shed[overload.ReasonBudgetExpired]; shedOver != wantOver {
		violate("clients observed %d ErrOverloaded, gate shed %d retryably", shedOver, wantOver)
	}
	if wantDead := st.Shed[overload.ReasonBudgetExpired]; shedDead != wantDead {
		violate("clients observed %d ErrDeadlinePast, gate expired %d budgets", shedDead, wantDead)
	}
	for _, reason := range overload.ShedReasons {
		met := reg.Counter("naplet_overload_shed_total",
			"requests shed by the admission gate",
			"class", overload.ClassBulk.String(), "reason", reason)
		if met.Value() != st.Shed[reason] {
			violate("shed %s: telemetry=%d gate=%d", reason, met.Value(), st.Shed[reason])
		}
	}
	for class, want := range map[overload.Class]int64{
		overload.ClassControl: st.ControlAdmitted,
		overload.ClassBulk:    st.BulkAdmitted,
	} {
		met := reg.Counter("naplet_overload_admitted_total",
			"requests admitted by the gate", "class", class.String())
		if met.Value() != want {
			violate("admitted %s: telemetry=%d gate=%d", class, met.Value(), want)
		}
	}
	if proberCalls != st.ControlArrivals {
		violate("prober fired %d probes, gate saw %d control arrivals", proberCalls, st.ControlArrivals)
	}
	// The shed trail is the injector-trail analogue: every shed event,
	// accounted one by one.
	if got := int64(len(gate.Trail())) + gate.TrailDropped(); got != st.TotalShed() {
		violate("shed trail %d + dropped %d != shed %d", len(gate.Trail()), gate.TrailDropped(), st.TotalShed())
	}
	if gate.TrailDropped() == 0 {
		tally := map[string]int64{}
		for _, ev := range gate.Trail() {
			tally[ev.Reason]++
		}
		for _, reason := range overload.ShedReasons {
			if tally[reason] != st.Shed[reason] {
				violate("shed trail %s: trail=%d gate=%d", reason, tally[reason], st.Shed[reason])
			}
		}
	}

	res.Elapsed = time.Since(start)
	res.Metrics["overload_capacity_per_sec"] = capRate
	res.Metrics["overload_goodput_per_sec"] = overRate
	res.Metrics["overload_goodput_ratio"] = ratio
	res.Metrics["overload_shed_total"] = float64(st.TotalShed())
	res.Metrics["overload_giveups"] = float64(capacity.giveups.Load() + over.giveups.Load())
	res.Metrics["elapsed_ms"] = float64(res.Elapsed.Milliseconds())
	if sum, ok := reg.SummaryOf("naplet_loadgen_control_rtt_seconds"); ok {
		res.Metrics["control_p99_ms"] = sum.P99 * 1000
	}
	fmt.Fprintf(cfg.Out, "goodput: capacity %.0f/s, overload %.0f/s (%.2f of capacity); shed %d (%d given up)\n",
		capRate, overRate, ratio, st.TotalShed(), capacity.giveups.Load()+over.giveups.Load())
	report(cfg.Out, res)
	return res, nil
}
