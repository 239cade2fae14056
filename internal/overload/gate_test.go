package overload

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for the CoDel controller.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestGateNil(t *testing.T) {
	var g *Gate
	release, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatalf("nil gate must admit: %v", err)
	}
	release()
	if got := g.Stats().TotalShed(); got != 0 {
		t.Fatalf("nil gate shed = %d", got)
	}
	if g.Trail() != nil || g.TrailDropped() != 0 {
		t.Fatal("nil gate trail must be empty")
	}
}

func TestGateControlNeverQueued(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 1, MaxQueue: 1})
	// Saturate the bulk side completely.
	release, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// Control traffic still passes instantly.
	for i := 0; i < 100; i++ {
		rel, err := g.Admit(context.Background(), ClassControl)
		if err != nil {
			t.Fatalf("control admit %d: %v", i, err)
		}
		rel()
	}
	st := g.Stats()
	if st.ControlArrivals != 100 || st.ControlAdmitted != 100 {
		t.Fatalf("control accounting: %+v", st)
	}
}

func TestGateQueueFullShed(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 1, MaxQueue: 1, MaxWait: time.Minute})
	release, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter occupies the queue slot.
	queued := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(queued)
		rel, err := g.Admit(context.Background(), ClassBulk)
		if err == nil {
			rel()
		}
		done <- err
	}()
	<-queued
	waitFor(t, func() bool { return g.Stats().Queued == 1 })
	// The next arrival finds the queue full and is shed immediately.
	if _, err := g.Admit(context.Background(), ClassBulk); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full: got %v, want ErrOverloaded", err)
	}
	if got := g.Stats().Shed[ReasonQueueFull]; got != 1 {
		t.Fatalf("queue-full shed count = %d", got)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("queued waiter should win the freed slot: %v", err)
	}
}

// TestGateQueueFullCountsOnce: as many closed-loop callers as there are
// slots plus queue places can never fill the queue, so none may be shed
// queue-full — not even in the instant between a waiter winning a freed
// slot and leaving the queue. Target and MaxWait are out of reach, so
// queue-full is the only shed that could fire.
func TestGateQueueFullCountsOnce(t *testing.T) {
	const slots, places = 4, 4
	g := NewGate(GateConfig{MaxInFlight: slots, MaxQueue: places, Target: time.Hour, MaxWait: time.Minute})
	stop := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < slots+places; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				release, err := g.Admit(context.Background(), ClassBulk)
				if err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				time.Sleep(2 * time.Millisecond)
				release()
			}
		}()
	}
	wg.Wait()
	st := g.Stats()
	if st.TotalShed() != 0 {
		t.Fatalf("%d callers on %d slots + %d queue places: shed %v of %d arrivals",
			slots+places, slots, places, st.Shed, st.BulkArrivals)
	}
}

func TestGateQueueTimeout(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 1, MaxWait: 20 * time.Millisecond})
	release, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := g.Admit(context.Background(), ClassBulk); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("timeout shed: got %v, want ErrOverloaded", err)
	}
	if got := g.Stats().Shed[ReasonQueueTimeout]; got != 1 {
		t.Fatalf("queue-timeout shed count = %d", got)
	}
}

func TestGateBudgetExpiredInQueue(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 1, MaxWait: time.Minute})
	release, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.Admit(ctx, ClassBulk); !errors.Is(err, ErrDeadlinePast) {
		t.Fatalf("budget expiry in queue: got %v, want ErrDeadlinePast", err)
	}
	if got := g.Stats().Shed[ReasonBudgetExpired]; got != 1 {
		t.Fatalf("budget-expired shed count = %d", got)
	}
}

func TestGateCanceledInQueue(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 1, MaxWait: time.Minute})
	release, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := g.Admit(ctx, ClassBulk); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancellation in queue: got %v, want ErrOverloaded", err)
	}
	if got := g.Stats().Shed[ReasonCanceled]; got != 1 {
		t.Fatalf("canceled shed count = %d", got)
	}
}

// TestGateAdmitByDeadline: a frame's deadline bounds its wait in the
// queue the way a context's does. Before MaxWait it is the budget that
// ran out (ErrDeadlinePast); after MaxWait, or with no deadline at all,
// MaxWait is what ends the wait (ErrOverloaded, queue-timeout).
func TestGateAdmitByDeadline(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxWait  time.Duration
		deadline func() time.Time
		want     error
		reason   string
	}{
		{"before-maxwait", time.Minute, func() time.Time { return time.Now().Add(10 * time.Millisecond) }, ErrDeadlinePast, ReasonBudgetExpired},
		{"already-past", time.Minute, func() time.Time { return time.Now().Add(-time.Millisecond) }, ErrDeadlinePast, ReasonBudgetExpired},
		{"after-maxwait", 20 * time.Millisecond, func() time.Time { return time.Now().Add(time.Minute) }, ErrOverloaded, ReasonQueueTimeout},
		{"none", 20 * time.Millisecond, func() time.Time { return time.Time{} }, ErrOverloaded, ReasonQueueTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGate(GateConfig{MaxInFlight: 1, MaxWait: tc.maxWait})
			ticket, err := g.AdmitBy(time.Time{}, ClassBulk)
			if err != nil {
				t.Fatal(err)
			}
			defer ticket.Release()
			start := time.Now()
			if _, err := g.AdmitBy(tc.deadline(), ClassBulk); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if waited := time.Since(start); waited > 10*time.Second {
				t.Fatalf("shed after %v", waited)
			}
			st := g.Stats()
			if st.Shed[tc.reason] != 1 || st.TotalShed() != 1 {
				t.Fatalf("shed %v, want one %s", st.Shed, tc.reason)
			}
			if st.Queued != 0 {
				t.Fatalf("a shed request still holds room: %d queued", st.Queued)
			}
		})
	}
}

// TestGateAdmitByFastPathArmsNoTimer: a request that finds a free slot
// allocates nothing — no timer, no context, no release func — whatever its
// deadline. Only a request that queues pays for a timer.
func TestGateAdmitByFastPathArmsNoTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := NewGate(GateConfig{MaxInFlight: 1})
	deadline := time.Now().Add(time.Hour)
	bare := testing.AllocsPerRun(100, func() {
		ticket, _ := g.AdmitBy(time.Time{}, ClassBulk)
		ticket.Release()
	})
	budgeted := testing.AllocsPerRun(100, func() {
		ticket, _ := g.AdmitBy(deadline, ClassBulk)
		ticket.Release()
	})
	control := testing.AllocsPerRun(100, func() {
		ticket, _ := g.AdmitBy(deadline, ClassControl)
		ticket.Release()
	})
	if budgeted != 0 || bare != 0 || control != 0 {
		t.Fatalf("fast path allocates %.0f with a deadline, %.0f without, %.0f for control; want 0", budgeted, bare, control)
	}
	if st := g.Stats(); st.BulkAdmitted != 202 || st.TotalShed() != 0 {
		t.Fatalf("fast path: %+v", st)
	}
}

func TestGateDroppingMode(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(GateConfig{
		MaxInFlight: 1, MaxQueue: 8,
		Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond,
		Clock: clk.Now,
	})
	// Hold the only slot first: a fast-path admission would reset the
	// controller (an empty queue is proof delay recovered).
	release, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	// Two above-target sojourn observations spanning a full interval flip
	// the controller into dropping mode.
	g.noteSojourn(10 * time.Millisecond)
	clk.Advance(150 * time.Millisecond)
	g.noteSojourn(10 * time.Millisecond)
	if !g.Stats().Dropping {
		t.Fatal("sustained above-target delay must enter dropping mode")
	}
	// New bulk arrivals are now shed on sight.
	if _, err := g.Admit(context.Background(), ClassBulk); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("dropping mode: got %v, want ErrOverloaded", err)
	}
	if got := g.Stats().Shed[ReasonQueueDelay]; got != 1 {
		t.Fatalf("queue-delay shed count = %d", got)
	}
	// Control traffic is untouched by dropping mode.
	rel, err := g.Admit(context.Background(), ClassControl)
	if err != nil {
		t.Fatalf("control during dropping: %v", err)
	}
	rel()
	// A free slot (queue drained) resets the controller via the fast path.
	release()
	rel2, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatalf("post-drain admit: %v", err)
	}
	rel2()
	if g.Stats().Dropping {
		t.Fatal("a below-target observation must exit dropping mode")
	}
}

func TestGateReleaseIdempotent(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 1})
	release, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // double release must not free a second slot
	if got := g.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight after double release = %d", got)
	}
	// The same holds for a ticket released twice, and for the zero ticket.
	ticket, err := g.AdmitBy(time.Time{}, ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	ticket.Release()
	ticket.Release()
	var zero Ticket
	zero.Release()
	if got := g.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight after double ticket release = %d", got)
	}
	// Exactly one slot is available again, not two.
	r1, err := g.Admit(context.Background(), ClassBulk)
	if err != nil {
		t.Fatal(err)
	}
	defer r1()
	if _, err := g.Admit(timeoutCtx(t, 20*time.Millisecond), ClassBulk); err == nil {
		t.Fatal("double release leaked an extra slot")
	}
}

// TestGateAccounting drives the gate hard from many goroutines and then
// checks the invariant the chaos suite relies on: after quiesce,
// arrivals == admitted + shed per class, and the trail carries exactly
// the shed events.
func TestGateAccounting(t *testing.T) {
	g := NewGate(GateConfig{MaxInFlight: 4, MaxQueue: 4, MaxWait: 5 * time.Millisecond, MaxTrail: 64})
	var wg sync.WaitGroup
	var admitted, shed atomic.Int64
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			class := ClassBulk
			if i%5 == 0 {
				class = ClassControl
			}
			release, err := g.Admit(context.Background(), class)
			if err != nil {
				if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrDeadlinePast) {
					t.Errorf("untyped shed error: %v", err)
				}
				shed.Add(1)
				return
			}
			admitted.Add(1)
			time.Sleep(time.Millisecond)
			release()
		}(i)
	}
	wg.Wait()
	st := g.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("not quiesced: %+v", st)
	}
	if st.ControlArrivals != st.ControlAdmitted {
		t.Fatalf("control must never shed: %+v", st)
	}
	if st.BulkArrivals != st.BulkAdmitted+st.TotalShed() {
		t.Fatalf("bulk accounting leak: arrivals %d != admitted %d + shed %d",
			st.BulkArrivals, st.BulkAdmitted, st.TotalShed())
	}
	if got := st.ControlAdmitted + st.BulkAdmitted; got != admitted.Load() {
		t.Fatalf("admitted: gate %d, observed %d", got, admitted.Load())
	}
	if st.TotalShed() != shed.Load() {
		t.Fatalf("shed: gate %d, observed %d", st.TotalShed(), shed.Load())
	}
	if got := int64(len(g.Trail())) + g.TrailDropped(); got != st.TotalShed() {
		t.Fatalf("trail %d + dropped %d != shed %d", len(g.Trail()), g.TrailDropped(), st.TotalShed())
	}
}

func timeoutCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
