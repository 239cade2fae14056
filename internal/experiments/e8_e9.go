package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/monitor"
	"repro/internal/resource"
	"repro/internal/security"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------------
// E8 — §5.3: service channels vs open services.

// E8Result holds the measured service-access costs.
type E8Result struct {
	OpenCallsPerSec    float64
	ChannelRTTPerSec   float64
	ChannelOpensPerSec float64
	DeniedEnforced     bool
}

// RunE8 measures open-service call rate, service-channel round-trip rate,
// channel allocation rate, and verifies access-control enforcement.
func RunE8(iters int) (E8Result, error) {
	var res E8Result
	ring := cred.NewKeyRing()
	ring.Register("admin", []byte("ka"))
	ring.Register("guest", []byte("kg"))
	t0 := time.Unix(1e9, 0)
	adminID := id.MustNew("admin", "h", t0)
	guestID := id.MustNew("guest", "h", t0)
	adminCred, _ := ring.Issue(adminID, "cb", []string{"netadmin"}, t0, time.Time{})
	guestCred, _ := ring.Issue(guestID, "cb", nil, t0, time.Time{})

	policy := security.Policy{
		Rules: []security.Rule{
			{Principal: "role:netadmin", Permissions: []security.Permission{"*"}, Effect: security.Allow},
		},
		Default: security.Deny,
	}
	sec := security.NewManager(ring, policy, nil)
	mgr := resource.NewManager(sec)
	mgr.RegisterOpen("echo", func(args []string) (string, error) { return "ok", nil })
	mgr.RegisterPrivileged("priv", func() resource.PrivilegedService {
		return resource.ServiceFunc(func(ch *resource.ServerEnd) {
			for {
				line, err := ch.ReadLine()
				if err != nil {
					return
				}
				ch.WriteLine(line)
			}
		})
	})

	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := mgr.CallOpen("echo", nil); err != nil {
			return res, err
		}
	}
	res.OpenCallsPerSec = float64(iters) / time.Since(start).Seconds()

	ch, err := mgr.OpenChannel(&adminCred, "priv")
	if err != nil {
		return res, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := ch.WriteLine("x"); err != nil {
			return res, err
		}
		if _, err := ch.ReadLine(); err != nil {
			return res, err
		}
	}
	res.ChannelRTTPerSec = float64(iters) / time.Since(start).Seconds()
	ch.Close()

	opens := iters / 10
	if opens == 0 {
		opens = 1
	}
	start = time.Now()
	for i := 0; i < opens; i++ {
		c, err := mgr.OpenChannel(&adminCred, "priv")
		if err != nil {
			return res, err
		}
		c.Close()
	}
	res.ChannelOpensPerSec = float64(opens) / time.Since(start).Seconds()

	_, err = mgr.OpenChannel(&guestCred, "priv")
	res.DeniedEnforced = err != nil
	return res, nil
}

// E8ServiceChannel prints the service-access cost table.
func E8ServiceChannel(w io.Writer, opts Options) error {
	iters := 50000
	if opts.Quick {
		iters = 5000
	}
	res, err := RunE8(iters)
	if err != nil {
		return err
	}
	if !res.DeniedEnforced {
		return errors.New("e8: guest channel was not denied")
	}
	table := stats.NewTable("operation", "rate")
	table.AddRow("open-service call (by handler)", fmt.Sprintf("%.0f/s", res.OpenCallsPerSec))
	table.AddRow("service-channel round trip", fmt.Sprintf("%.0f/s", res.ChannelRTTPerSec))
	table.AddRow("service-channel allocation", fmt.Sprintf("%.0f/s", res.ChannelOpensPerSec))
	table.AddRow("guest access to privileged service", "denied (policy enforced)")
	table.WriteTo(w)
	fmt.Fprintln(w, "\nExpected shape: open services are cheapest; channel round trips add")
	fmt.Fprintln(w, "pipe synchronization; allocation adds policy evaluation and a goroutine.")
	return nil
}

// ---------------------------------------------------------------------------
// E9 — §5.2: monitor scheduling and budgets.

// E9Result summarizes the scheduling and budget measurements.
type E9Result struct {
	// HighMeanStart and LowMeanStart are mean start delays by priority
	// class under contention.
	HighMeanStart time.Duration
	LowMeanStart  time.Duration
	// Killed counts budget-violation kills.
	Killed int
}

// RunE9 admits 2×n naplets (half high, half low priority) onto `slots`
// execution slots under the given scheduling policy, measures start-time
// ordering, then verifies budget kills. The FIFO policy is the ablation
// that shows what the priority mechanism buys.
func RunE9(n, slots int, policy monitor.SchedulingPolicy) (E9Result, error) {
	var res E9Result
	mon := monitor.NewWithPolicy(slots, policy, nil)
	t0 := time.Unix(1e9, 0)

	type sample struct {
		prio  int
		delay time.Duration
	}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	// Saturate the slots with a warm-up group so everyone queues.
	warm, err := mon.Admit(id.MustNew("warm", "h", t0), monitor.Policy{})
	if err != nil {
		return res, err
	}
	release := make(chan struct{})
	warmStarted := make(chan struct{}, slots)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm.Run(func(ctx context.Context) error {
				warmStarted <- struct{}{}
				<-release
				return nil
			})
		}()
	}
	for i := 0; i < slots; i++ {
		<-warmStarted
	}

	start := time.Now()
	var launched atomic.Int32
	for i := 0; i < 2*n; i++ {
		prio := 1
		if i%2 == 0 {
			prio = 9
		}
		g, err := mon.Admit(id.MustNew(fmt.Sprintf("u%d", i), "h", t0), monitor.Policy{Priority: prio})
		if err != nil {
			return res, err
		}
		wg.Add(1)
		go func(g *monitor.Group, prio int) {
			defer wg.Done()
			launched.Add(1)
			g.Run(func(ctx context.Context) error {
				mu.Lock()
				samples = append(samples, sample{prio: prio, delay: time.Since(start)})
				mu.Unlock()
				time.Sleep(200 * time.Microsecond)
				return nil
			})
		}(g, prio)
	}
	// Wait until all contenders are queued, then open the gates.
	for launched.Load() < int32(2*n) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()

	var hi, lo []float64
	for _, s := range samples {
		if s.prio == 9 {
			hi = append(hi, s.delay.Seconds())
		} else {
			lo = append(lo, s.delay.Seconds())
		}
	}
	res.HighMeanStart = time.Duration(stats.Summarize(hi).Mean * float64(time.Second))
	res.LowMeanStart = time.Duration(stats.Summarize(lo).Mean * float64(time.Second))

	// Budget kills.
	for i := 0; i < 4; i++ {
		g, err := mon.Admit(id.MustNew(fmt.Sprintf("hog%d", i), "h", t0), monitor.Policy{MaxMemory: 1024})
		if err != nil {
			return res, err
		}
		if err := g.ChargeMemory(2048); errors.Is(err, monitor.ErrBudgetExceeded) {
			res.Killed++
		}
	}
	return res, nil
}

// E9Monitor prints the scheduling-order and budget-enforcement results.
func E9Monitor(w io.Writer, opts Options) error {
	n, slots := 32, 2
	if opts.Quick {
		n = 8
	}
	res, err := RunE9(n, slots, monitor.SchedulePriority)
	if err != nil {
		return err
	}
	fifo, err := RunE9(n, slots, monitor.ScheduleFIFO)
	if err != nil {
		return err
	}
	table := stats.NewTable("metric", "priority policy", "fifo policy")
	table.AddRow("naplets (high/low priority)", fmt.Sprintf("%d/%d", n, n), fmt.Sprintf("%d/%d", n, n))
	table.AddRow("execution slots", slots, slots)
	table.AddRow("mean start delay, priority 9", res.HighMeanStart.Round(time.Microsecond), fifo.HighMeanStart.Round(time.Microsecond))
	table.AddRow("mean start delay, priority 1", res.LowMeanStart.Round(time.Microsecond), fifo.LowMeanStart.Round(time.Microsecond))
	table.AddRow("budget violations killed", fmt.Sprintf("%d/4", res.Killed), fmt.Sprintf("%d/4", fifo.Killed))
	table.WriteTo(w)
	if res.HighMeanStart >= res.LowMeanStart {
		return fmt.Errorf("e9: priority inversion: high %v >= low %v", res.HighMeanStart, res.LowMeanStart)
	}
	if res.Killed != 4 || fifo.Killed != 4 {
		return fmt.Errorf("e9: budget kills = %d/%d, want 4/4", res.Killed, fifo.Killed)
	}
	fmt.Fprintln(w, "\nExpected shape: under the priority policy high-priority naplets start")
	fmt.Fprintln(w, "earlier; under FIFO both classes see similar delays (the ablation")
	fmt.Fprintln(w, "isolates what the priority mechanism buys). Every budget violation is")
	fmt.Fprintln(w, "trapped and killed under both policies.")
	return nil
}
