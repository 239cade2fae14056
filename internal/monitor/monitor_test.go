package monitor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/naplet"
	"repro/internal/telemetry"
)

var t0 = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)

func nid(t *testing.T, owner string) id.NapletID {
	t.Helper()
	return id.MustNew(owner, "home", t0)
}

func TestAdmitRunRemove(t *testing.T) {
	m := New(0, nil)
	g, err := m.Admit(nid(t, "a"), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Resident() != 1 {
		t.Fatal("resident count")
	}
	ran := false
	if err := g.Run(func(ctx context.Context) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Run must execute f")
	}
	m.Remove(g.ID())
	if m.Resident() != 0 {
		t.Fatal("resident after remove")
	}
	if g.State() != StateDone {
		t.Fatalf("state = %v", g.State())
	}
	if _, err := m.Group(nid(t, "a")); !errors.Is(err, ErrUnknown) {
		t.Fatal("removed group still known")
	}
}

func TestAdmitDuplicate(t *testing.T) {
	m := New(0, nil)
	m.Admit(nid(t, "a"), Policy{})
	if _, err := m.Admit(nid(t, "a"), Policy{}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
}

// instrumented returns a monitor and its trap counter, read as /metrics
// reads it.
func instrumented() (*Monitor, *telemetry.Counter) {
	m := New(0, nil)
	reg := telemetry.NewRegistry()
	m.Instrument(reg)
	return m, reg.Counter("naplet_monitor_traps_total", "")
}

func TestPanicTrapped(t *testing.T) {
	m, traps := instrumented()
	g, _ := m.Admit(nid(t, "a"), Policy{})
	err := g.Run(func(ctx context.Context) error { panic("naplet bug") })
	if err == nil {
		t.Fatal("panic must surface as error")
	}
	if traps.Value() != 1 {
		t.Fatalf("traps = %d", traps.Value())
	}
}

func TestCPUBudgetKills(t *testing.T) {
	now := t0
	clock := func() time.Time { return now }
	m := New(0, clock)
	g, _ := m.Admit(nid(t, "a"), Policy{MaxCPU: 10 * time.Millisecond})
	err := g.Run(func(ctx context.Context) error {
		now = now.Add(time.Second) // simulated heavy burn
		return nil
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if g.State() != StateKilled {
		t.Fatalf("state = %v", g.State())
	}
	// Further confined calls must fail.
	if err := g.Run(func(ctx context.Context) error { return nil }); err == nil {
		t.Fatal("killed group must refuse to run")
	}
}

func TestMemoryAndBandwidthBudgets(t *testing.T) {
	m := New(0, nil)
	g, _ := m.Admit(nid(t, "a"), Policy{MaxMemory: 100, MaxBandwidth: 50})
	if err := g.ChargeMemory(60); err != nil {
		t.Fatal(err)
	}
	if err := g.ChargeMemory(60); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("memory budget: %v", err)
	}
	g2, _ := m.Admit(nid(t, "b"), Policy{MaxBandwidth: 50})
	if err := g2.ChargeBandwidth(51); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("bandwidth budget: %v", err)
	}
	if g2.State() != StateKilled {
		t.Fatal("budget violation must kill")
	}
}

func TestUnlimitedBudgets(t *testing.T) {
	m := New(0, nil)
	g, _ := m.Admit(nid(t, "a"), Policy{})
	if err := g.ChargeMemory(1 << 40); err != nil {
		t.Fatal("zero limit means unlimited")
	}
	if err := g.ChargeCPU(time.Hour); err != nil {
		t.Fatal("zero limit means unlimited")
	}
}

func TestWallTimeLimit(t *testing.T) {
	m := New(0, nil)
	g, _ := m.Admit(nid(t, "a"), Policy{MaxWallTime: 20 * time.Millisecond})
	err := g.Run(func(ctx context.Context) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestSuspendResume(t *testing.T) {
	m := New(0, nil)
	g, _ := m.Admit(nid(t, "a"), Policy{})
	g.Suspend()
	if g.State() != StateSuspended {
		t.Fatal("state after suspend")
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		done <- g.Run(func(ctx context.Context) error { return nil })
	}()
	<-started
	select {
	case <-done:
		t.Fatal("suspended group must not run")
	case <-time.After(30 * time.Millisecond):
	}
	g.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if g.State() != StateRunning {
		t.Fatal("state after resume")
	}
}

// TestSuspendIsPerGroup: running groups share one resume channel, so a
// suspension must not reach past its own group. Suspending one leaves
// another running, each Resume releases only its own group, and a group
// admitted afterwards runs unsuspended.
func TestSuspendIsPerGroup(t *testing.T) {
	m := New(0, nil)
	g1, _ := m.Admit(nid(t, "a"), Policy{})
	g2, _ := m.Admit(nid(t, "b"), Policy{})
	checkpoint := func(g *Group) <-chan error {
		done := make(chan error, 1)
		go func() { done <- g.Checkpoint() }()
		return done
	}
	blocked := func(done <-chan error, what string) {
		t.Helper()
		select {
		case err := <-done:
			t.Fatalf("%s passed its checkpoint (%v)", what, err)
		case <-time.After(30 * time.Millisecond):
		}
	}
	passes := func(done <-chan error, what string) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked", what)
		}
	}

	g1.Suspend()
	w1 := checkpoint(g1)
	passes(checkpoint(g2), "g2 while g1 is suspended")
	blocked(w1, "suspended g1")

	g2.Suspend()
	w2 := checkpoint(g2)
	g1.Resume()
	passes(w1, "g1 after its resume")
	blocked(w2, "g2 after g1's resume")
	g1.Resume() // a second resume closes nothing twice
	blocked(w2, "g2 after g1's second resume")
	g2.Resume()
	passes(w2, "g2 after its resume")

	g3, _ := m.Admit(nid(t, "c"), Policy{})
	passes(checkpoint(g3), "a group admitted after the suspensions")
	if g1.State() != StateRunning || g2.State() != StateRunning || g3.State() != StateRunning {
		t.Fatalf("states %v %v %v, want all running", g1.State(), g2.State(), g3.State())
	}
}

func TestCheckpoint(t *testing.T) {
	m := New(0, nil)
	g, _ := m.Admit(nid(t, "a"), Policy{})
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Kill()
	if err := g.Checkpoint(); !errors.Is(err, ErrKilled) {
		t.Fatalf("checkpoint after kill: %v", err)
	}
}

func TestGoConfinedAndJoin(t *testing.T) {
	m, traps := instrumented()
	g, _ := m.Admit(nid(t, "a"), Policy{})
	var ran atomic.Int32
	for i := 0; i < 5; i++ {
		g.Go(func(ctx context.Context) error { ran.Add(1); return nil })
	}
	g.Go(func(ctx context.Context) error { panic("aux bug") })
	g.Join()
	if ran.Load() != 5 {
		t.Fatalf("ran = %d", ran.Load())
	}
	if traps.Value() != 1 {
		t.Fatalf("aux panic not trapped: %d", traps.Value())
	}
}

func TestInterruptVerbs(t *testing.T) {
	m := New(0, nil)
	g, _ := m.Admit(nid(t, "a"), Policy{})

	g.Interrupt(naplet.Message{Class: naplet.SystemMessage, Control: naplet.ControlSuspend})
	if g.State() != StateSuspended {
		t.Fatal("suspend verb")
	}
	g.Interrupt(naplet.Message{Class: naplet.SystemMessage, Control: naplet.ControlResume})
	if g.State() != StateRunning {
		t.Fatal("resume verb")
	}
	g.Interrupt(naplet.Message{Class: naplet.SystemMessage, Control: naplet.ControlTerminate})
	if g.State() != StateKilled {
		t.Fatal("terminate verb")
	}
}

func TestInterruptHandlerInvoked(t *testing.T) {
	m, traps := instrumented()
	g, _ := m.Admit(nid(t, "a"), Policy{})
	got := make(chan naplet.Message, 1)
	g.SetInterruptHandler(func(msg naplet.Message) { got <- msg })
	g.Interrupt(naplet.Message{Class: naplet.SystemMessage, Control: naplet.ControlCallback, Subject: "ping"})
	select {
	case msg := <-got:
		if msg.Subject != "ping" {
			t.Fatalf("msg = %+v", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("handler not invoked")
	}
	// Handler panic is trapped, not fatal.
	g.SetInterruptHandler(func(msg naplet.Message) { panic("handler bug") })
	g.Interrupt(naplet.Message{Class: naplet.SystemMessage, Control: naplet.ControlCallback})
	g.Join()
	if traps.Value() != 1 {
		t.Fatalf("traps = %d", traps.Value())
	}
	// Without a handler, custom verbs queue and deliver once a handler is
	// installed (a control message can race the naplet's landing).
	g.SetInterruptHandler(nil)
	g.Interrupt(naplet.Message{Class: naplet.SystemMessage, Control: naplet.ControlCallback, Subject: "early"})
	late := make(chan naplet.Message, 1)
	g.SetInterruptHandler(func(msg naplet.Message) { late <- msg })
	select {
	case msg := <-late:
		if msg.Subject != "early" {
			t.Fatalf("queued interrupt = %+v", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("queued interrupt never delivered")
	}
}

func TestSchedulerLimitsConcurrency(t *testing.T) {
	m := New(2, nil)
	var cur, max atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		g, err := m.Admit(nid(t, fmt.Sprintf("u%d", i)), Policy{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Run(func(ctx context.Context) error {
				c := cur.Add(1)
				for {
					old := max.Load()
					if c <= old || max.CompareAndSwap(old, c) {
						break
					}
				}
				time.Sleep(10 * time.Millisecond)
				cur.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if max.Load() > 2 {
		t.Fatalf("max concurrency = %d, want ≤ 2", max.Load())
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	s := NewScheduler(1)
	if err := s.Acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	type grant struct{ prio int }
	grants := make(chan grant, 3)
	var ready sync.WaitGroup
	for _, prio := range []int{1, 9, 5} {
		ready.Add(1)
		go func(p int) {
			ready.Done()
			if err := s.Acquire(context.Background(), p); err != nil {
				t.Error(err)
				return
			}
			grants <- grant{prio: p}
		}(prio)
	}
	ready.Wait()
	time.Sleep(20 * time.Millisecond) // let all three enqueue

	var order []int
	for i := 0; i < 3; i++ {
		s.Release()
		g := <-grants
		order = append(order, g.prio)
	}
	s.Release()
	if order[0] != 9 || order[1] != 5 || order[2] != 1 {
		t.Fatalf("grant order = %v, want [9 5 1]", order)
	}
}

// TestPriorityGroupsStartFirst is §5.2's scheduling claim at the monitor's
// surface (E9 in EXPERIMENTS.md): 8 priority-9 and 8 priority-1 groups,
// admitted alternately and queued behind a warm-up group that holds both
// execution slots, start priority 9 first, every one of them.
func TestPriorityGroupsStartFirst(t *testing.T) {
	const slots, perClass = 2, 8
	m := New(slots, nil)
	var wg sync.WaitGroup
	run := func(g *Group, f func(context.Context) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Run(f); err != nil {
				t.Error(err)
			}
		}()
	}
	until := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	queued := func() int {
		m.sched.mu.Lock()
		defer m.sched.mu.Unlock()
		return m.sched.waiters.Len()
	}
	held := func() int {
		m.sched.mu.Lock()
		defer m.sched.mu.Unlock()
		return m.sched.running
	}

	warm, err := m.Admit(nid(t, "warm"), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	for i := 0; i < slots; i++ {
		run(warm, func(context.Context) error { <-release; return nil })
	}
	until("the warm-up group to hold every slot", func() bool { return held() == slots })

	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		starts []int // priorities, in start order
	)
	contend := func(prio int) func(context.Context) error {
		return func(context.Context) error {
			mu.Lock()
			defer mu.Unlock()
			starts = append(starts, prio)
			cond.Broadcast()
			// Hold the slot until the next group has started: a slot then
			// frees only after every group granted before it has recorded
			// its start, so starts are recorded in grant order.
			for next := len(starts) + 1; len(starts) < next && len(starts) < 2*perClass; {
				cond.Wait()
			}
			return nil
		}
	}
	// One at a time, so the queue's arrival order alternates 9, 1, 9, ...
	for i := 0; i < 2*perClass; i++ {
		prio := 9 - 8*(i%2)
		g, err := m.Admit(nid(t, fmt.Sprintf("u%d", i)), Policy{Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		run(g, contend(prio))
		until(fmt.Sprintf("%d queued groups", i+1), func() bool { return queued() == i+1 })
	}
	close(release)
	wg.Wait()

	t.Logf("%d slots, start order by priority: %v", slots, starts)
	for i, prio := range starts {
		if want := 9 - 8*(i/perClass); prio != want {
			t.Fatalf("start %d is a priority-%d group, want priority %d: %v", i+1, prio, want, starts)
		}
	}
}

func TestSchedulerAcquireCancelled(t *testing.T) {
	s := NewScheduler(1)
	s.Acquire(context.Background(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Acquire(ctx, 0) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	// The slot must still be usable.
	s.Release()
	if err := s.Acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// And it is the only one: a second holder waits out its deadline.
	full, cancelFull := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancelFull()
	if err := s.Acquire(full, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second holder of a one-slot scheduler: %v", err)
	}
}

func TestSchedulerUnlimited(t *testing.T) {
	s := NewScheduler(0)
	for i := 0; i < 100; i++ {
		if err := s.Acquire(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Release() // no-op, must not underflow
}

func TestKillIdempotentAndStateTerminal(t *testing.T) {
	m := New(0, nil)
	g, _ := m.Admit(nid(t, "a"), Policy{})
	g.Kill()
	g.Kill()
	if g.State() != StateKilled {
		t.Fatal("state after double kill")
	}
	g.Suspend() // must not override terminal state
	if g.State() != StateKilled {
		t.Fatal("suspend after kill must be ignored")
	}
	g.Resume()
	if g.State() != StateKilled {
		t.Fatal("resume after kill must be ignored")
	}
}

func TestGroupStateString(t *testing.T) {
	names := map[GroupState]string{
		StateRunning: "running", StateSuspended: "suspended",
		StateKilled: "killed", StateDone: "done",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if GroupState(42).String() != "GroupState(42)" {
		t.Fatal("unknown state formatting")
	}
}
