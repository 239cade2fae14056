// Package monitor implements the NapletMonitor of §5.2: the component that
// confines naplet execution and controls resource consumption.
//
// "On receiving a naplet, the monitor creates a NapletThread object and a
// thread group for the execution of the naplet … All the threads created by
// the naplet are confined to the thread group. The group is set to a limited
// range of scheduling priorities … The monitor maintains the running state
// of the thread group and information about consumed system resources
// including CPU time, memory size, and network bandwidth. It schedules the
// execution of the naplets according to resource management policies."
//
// Go has no thread groups or preemptible priorities, so confinement is
// cooperative and explicit, mirroring the JDK design at the mechanism level:
// a Group owns a context that bounds every goroutine the naplet runs, all
// agent goroutines are launched through the group (so the monitor can join
// and kill them), resource consumption is charged against per-group budgets
// at instrumented points (the framework charges CPU time around behaviour
// calls and bandwidth at the messenger), and admission to execution slots
// goes through a priority scheduler. Policies (budgets, priorities, slot
// counts) are plain data, separated from the enforcing mechanism — the
// paper's stated design goal.
package monitor

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/naplet"
	"repro/internal/telemetry"
)

// Policy bounds one naplet's resource consumption at a server.
type Policy struct {
	// MaxWallTime bounds the wall-clock duration of one visit; 0 means
	// unlimited.
	MaxWallTime time.Duration
	// MaxCPU bounds charged CPU time; 0 means unlimited.
	MaxCPU time.Duration
	// MaxMemory bounds charged memory bytes; 0 means unlimited.
	MaxMemory int64
	// MaxBandwidth bounds charged network bytes; 0 means unlimited.
	MaxBandwidth int64
	// Priority orders admission to execution slots; higher runs first.
	// The useful range is 0–9, mirroring the paper's "limited range of
	// scheduling priorities".
	Priority int
}

// GroupState is the running state the monitor maintains for a group.
type GroupState int32

// Group states.
const (
	StateRunning GroupState = iota
	StateSuspended
	StateKilled
	StateDone
)

// String returns the state name.
func (s GroupState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateKilled:
		return "killed"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("GroupState(%d)", int32(s))
	}
}

// Errors reported by the monitor.
var (
	ErrBudgetExceeded = errors.New("monitor: resource budget exceeded")
	ErrKilled         = errors.New("monitor: naplet killed")
	ErrDuplicate      = errors.New("monitor: naplet already admitted")
	ErrUnknown        = errors.New("monitor: unknown naplet")
	// ErrEvacuated interrupts a confined call because the server is
	// draining: unlike ErrKilled it is not an execution exception — the
	// visit engine moves the naplet to its next stop or home instead of
	// trapping it.
	ErrEvacuated = errors.New("monitor: naplet evacuated (server draining)")
)

// Monitor supervises the naplet groups of one server.
type Monitor struct {
	sched *Scheduler
	clock func() time.Time
	met   atomic.Pointer[monMetrics]

	mu     sync.Mutex
	groups map[string]*Group

	// killing and evacuating are sticky shutdown modes: a group admitted
	// after KillAll/EvacuateAll (a landing accepted just before the flag
	// flipped) is interrupted on admission instead of outliving the sweep.
	killing    atomic.Bool
	evacuating atomic.Bool
}

// monMetrics holds the monitor's registered telemetry handles. Every
// helper is safe on a nil receiver so uninstrumented monitors pay only a
// nil check.
type monMetrics struct {
	admissions *telemetry.Counter
	kills      *telemetry.Counter
	exhausted  *telemetry.Counter
	traps      *telemetry.Counter
}

func (mm *monMetrics) admitted() {
	if mm != nil {
		mm.admissions.Inc()
	}
}

func (mm *monMetrics) killed() {
	if mm != nil {
		mm.kills.Inc()
	}
}

func (mm *monMetrics) budgetExhausted() {
	if mm != nil {
		mm.exhausted.Inc()
	}
}

func (mm *monMetrics) trapped() {
	if mm != nil {
		mm.traps.Inc()
	}
}

// Instrument registers the monitor's counters and a resident-group gauge
// in reg.
func (m *Monitor) Instrument(reg *telemetry.Registry) {
	m.met.Store(&monMetrics{
		admissions: reg.Counter("naplet_monitor_admissions_total", "naplet groups admitted"),
		kills:      reg.Counter("naplet_monitor_kills_total", "naplet groups killed"),
		exhausted:  reg.Counter("naplet_monitor_budget_exhausted_total", "resource-budget violations (cpu/memory/bandwidth)"),
		traps:      reg.Counter("naplet_monitor_traps_total", "execution exceptions trapped"),
	})
	reg.GaugeFunc("naplet_monitor_resident_groups", "currently admitted naplet groups", func() float64 {
		return float64(m.Resident())
	})
}

// New creates a monitor with the given number of concurrent execution
// slots (≤ 0 means unlimited) and clock (nil means time.Now).
func New(slots int, clock func() time.Time) *Monitor {
	if clock == nil {
		clock = time.Now
	}
	return &Monitor{
		sched:  NewScheduler(slots),
		clock:  clock,
		groups: make(map[string]*Group),
	}
}

// Admit creates the confined group for an arriving naplet.
func (m *Monitor) Admit(nid id.NapletID, policy Policy) (*Group, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := nid.Key()
	if _, dup := m.groups[key]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, nid)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if policy.MaxWallTime > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), policy.MaxWallTime)
	}
	g := &Group{
		nid:     nid,
		policy:  policy,
		monitor: m,
		ctx:     ctx,
		cancel:  cancel,
		resume:  running,
	}
	m.groups[key] = g
	m.met.Load().admitted()
	if m.killing.Load() {
		g.Kill()
	} else if m.evacuating.Load() {
		g.Evacuate()
	}
	return g, nil
}

// Group returns the admitted group for a naplet.
func (m *Monitor) Group(nid id.NapletID) (*Group, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.groups[nid.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, nid)
	}
	return g, nil
}

// Remove releases a naplet's group after departure or completion.
func (m *Monitor) Remove(nid id.NapletID) {
	key := nid.Key()
	m.mu.Lock()
	g, ok := m.groups[key]
	delete(m.groups, key)
	m.mu.Unlock()
	if ok {
		g.setState(StateDone)
		g.cancel()
	}
}

// KillAll terminates every admitted group: the server is shutting down and
// resident naplets must unblock.
func (m *Monitor) KillAll() {
	m.killing.Store(true)
	m.mu.Lock()
	groups := make([]*Group, 0, len(m.groups))
	for _, g := range m.groups {
		groups = append(groups, g)
	}
	m.mu.Unlock()
	for _, g := range groups {
		g.Kill()
	}
}

// EvacuateAll interrupts every admitted group for evacuation: blocked
// confined calls unwind with ErrEvacuated so the visit engines can move
// their naplets off this draining server instead of trapping them.
func (m *Monitor) EvacuateAll() {
	m.evacuating.Store(true)
	m.mu.Lock()
	groups := make([]*Group, 0, len(m.groups))
	for _, g := range m.groups {
		groups = append(groups, g)
	}
	m.mu.Unlock()
	for _, g := range groups {
		g.Evacuate()
	}
}

// Resident returns the number of currently admitted groups.
func (m *Monitor) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.groups)
}

// Group is the confined execution environment of one naplet at one server:
// the paper's NapletThread plus thread group.
type Group struct {
	nid     id.NapletID
	policy  Policy
	monitor *Monitor
	ctx     context.Context
	cancel  context.CancelFunc

	wg sync.WaitGroup

	stateMu sync.Mutex
	state   GroupState
	// resume is closed while the group runs: the shared running channel
	// until a Suspend puts a fresh open one of the group's own in its
	// place, which Resume closes.
	resume chan struct{}

	cpu       atomic.Int64 // nanoseconds
	mem       atomic.Int64
	bw        atomic.Int64
	killed    atomic.Bool
	evacuated atomic.Bool

	interruptMu sync.Mutex
	onInterrupt func(naplet.Message)
	pendingIntr []naplet.Message
}

// running is the resume channel every group that runs unsuspended shares:
// closed once, never replaced, so admitting a group makes no channel.
var running = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// maxPendingInterrupts bounds interrupts queued before a handler exists.
const maxPendingInterrupts = 16

// ID returns the naplet the group confines.
func (g *Group) ID() id.NapletID { return g.nid }

// Policy returns the group's resource policy.
func (g *Group) Policy() Policy { return g.policy }

// State returns the group's running state.
func (g *Group) State() GroupState {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	return g.state
}

func (g *Group) setState(s GroupState) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	if g.state == StateKilled || g.state == StateDone {
		return // terminal
	}
	g.state = s
}

// Run executes f as the naplet's main activity: it waits for an execution
// slot (by priority), confines the call, traps panics as execution
// exceptions, and charges wall time as CPU time. It is the monitor-side of
// the paper's "sets traps for its execution exceptions".
func (g *Group) Run(f func(ctx context.Context) error) (err error) {
	if err := g.monitor.sched.Acquire(g.ctx, g.policy.Priority); err != nil {
		if g.evacuating() {
			return ErrEvacuated
		}
		return err
	}
	defer g.monitor.sched.Release()
	return g.confined(f)
}

// Go launches an auxiliary goroutine confined to the group ("all the
// threads created by the naplet are confined to the thread group"). Its
// error, if any, is trapped and counted.
func (g *Group) Go(f func(ctx context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		// Panics are trapped and counted inside confined; plain errors from
		// auxiliary goroutines are the naplet's own business.
		_ = g.confined(f)
	}()
}

// Join waits for all auxiliary goroutines of the group.
func (g *Group) Join() { g.wg.Wait() }

// confined runs f with panic trapping, suspension gating, and CPU charging.
func (g *Group) confined(f func(ctx context.Context) error) (err error) {
	if g.evacuating() {
		return ErrEvacuated
	}
	if err := g.waitResumed(); err != nil {
		if g.evacuating() {
			return ErrEvacuated
		}
		return err
	}
	start := g.monitor.clock()
	defer func() {
		if r := recover(); r != nil {
			g.monitor.met.Load().trapped()
			err = fmt.Errorf("monitor: trapped naplet panic: %v", r)
		}
		elapsed := g.monitor.clock().Sub(start)
		if elapsed > 0 {
			if cerr := g.ChargeCPU(elapsed); cerr != nil && err == nil {
				err = cerr
			}
		}
		// An error produced by the evacuation cancel (a ctx-aware wait
		// unwinding) is an evacuation, not an execution exception.
		if err != nil && g.evacuating() {
			err = ErrEvacuated
		}
	}()
	if g.killed.Load() {
		return ErrKilled
	}
	return f(g.ctx)
}

// evacuating reports whether the group is unwinding for evacuation (a kill
// still wins over an evacuation).
func (g *Group) evacuating() bool {
	return g.evacuated.Load() && !g.killed.Load()
}

// waitResumed blocks while the group is suspended. A running group
// returns on the closed channel alone, without asking its context for a
// Done channel it would otherwise build.
func (g *Group) waitResumed() error {
	g.stateMu.Lock()
	ch := g.resume
	g.stateMu.Unlock()
	select {
	case <-ch:
		return nil
	default:
	}
	select {
	case <-ch:
		return nil
	case <-g.ctx.Done():
		return g.ctx.Err()
	}
}

// Checkpoint is the cooperative preemption point: long-running behaviours
// call it periodically. It blocks while suspended and reports termination.
func (g *Group) Checkpoint() error {
	if g.killed.Load() {
		return ErrKilled
	}
	if g.evacuated.Load() {
		return ErrEvacuated
	}
	if err := g.ctx.Err(); err != nil {
		return err
	}
	return g.waitResumed()
}

// charge adds amount to a counter and kills the group when the limit (if
// nonzero) is exceeded.
func (g *Group) charge(counter *atomic.Int64, amount, limit int64, what string) error {
	total := counter.Add(amount)
	if limit > 0 && total > limit {
		g.monitor.met.Load().budgetExhausted()
		g.Kill()
		return fmt.Errorf("%w: %s %d > %d", ErrBudgetExceeded, what, total, limit)
	}
	return nil
}

// ChargeCPU charges CPU time against the group's budget.
func (g *Group) ChargeCPU(d time.Duration) error {
	return g.charge(&g.cpu, int64(d), int64(g.policy.MaxCPU), "cpu")
}

// ChargeMemory charges memory bytes against the group's budget.
func (g *Group) ChargeMemory(n int64) error {
	return g.charge(&g.mem, n, g.policy.MaxMemory, "memory")
}

// ChargeBandwidth charges network bytes against the group's budget.
func (g *Group) ChargeBandwidth(n int64) error {
	return g.charge(&g.bw, n, g.policy.MaxBandwidth, "bandwidth")
}

// Kill terminates the group: its context is cancelled and every confined
// call fails from now on.
func (g *Group) Kill() {
	if g.killed.Swap(true) {
		return
	}
	g.monitor.met.Load().killed()
	g.stateMu.Lock()
	g.state = StateKilled
	g.stateMu.Unlock()
	g.cancel()
}

// Evacuate interrupts the group for a server drain: its context is
// cancelled so blocked confined calls unwind, but instead of ErrKilled
// they (and subsequent checkpoints) report ErrEvacuated, which the visit
// engine turns into a migration rather than a trap. A suspended group is
// resumed first — a drain must not wait on a suspension that may never be
// lifted.
func (g *Group) Evacuate() {
	if g.evacuated.Swap(true) {
		return
	}
	g.Resume()
	g.cancel()
}

// Suspend pauses the group: confined calls and checkpoints block until
// Resume.
func (g *Group) Suspend() {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	if g.state != StateRunning {
		return
	}
	g.state = StateSuspended
	g.resume = make(chan struct{})
}

// Resume releases a suspended group.
func (g *Group) Resume() {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	if g.state != StateSuspended {
		return
	}
	g.state = StateRunning
	close(g.resume)
}

// SetInterruptHandler installs the function invoked when a system message
// is cast onto the naplet (§2.2: "On receiving a system message, the
// Messenger casts an interrupt onto the running naplet thread").
// Interrupts that arrived before a handler existed (a control message can
// race the naplet's landing) are delivered immediately.
func (g *Group) SetInterruptHandler(h func(naplet.Message)) {
	g.interruptMu.Lock()
	g.onInterrupt = h
	pending := g.pendingIntr
	g.pendingIntr = nil
	g.interruptMu.Unlock()
	if h == nil {
		return
	}
	for _, msg := range pending {
		g.dispatchInterrupt(h, msg)
	}
}

// Interrupt casts a system message onto the group. The handler runs in a
// confined goroutine; without a handler the built-in verbs still act
// (terminate kills, suspend pauses, resume releases).
func (g *Group) Interrupt(msg naplet.Message) {
	switch msg.Control {
	case naplet.ControlTerminate:
		g.Kill()
		return
	case naplet.ControlSuspend:
		g.Suspend()
		return
	case naplet.ControlResume:
		g.Resume()
		return
	}
	g.interruptMu.Lock()
	h := g.onInterrupt
	if h == nil {
		// No handler yet: hold the interrupt for SetInterruptHandler (the
		// control message raced the naplet's landing).
		if len(g.pendingIntr) < maxPendingInterrupts {
			g.pendingIntr = append(g.pendingIntr, msg)
		}
		g.interruptMu.Unlock()
		return
	}
	g.interruptMu.Unlock()
	g.dispatchInterrupt(h, msg)
}

// dispatchInterrupt runs the handler in a confined goroutine with panic
// trapping.
func (g *Group) dispatchInterrupt(h func(naplet.Message), msg naplet.Message) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.monitor.met.Load().trapped()
			}
		}()
		h(msg)
	}()
}

// Scheduler is a priority-ordered counting semaphore: it admits at most
// capacity concurrent naplet executions and wakes the highest-priority
// waiter first, in arrival order within a priority ("it schedules the
// execution of the naplets according to resource management policies",
// §5.2).
type Scheduler struct {
	mu       sync.Mutex
	capacity int
	running  int
	waiters  waiterHeap
	order    uint64
}

// NewScheduler builds a priority scheduler with the given slot count;
// capacity ≤ 0 means unlimited.
func NewScheduler(capacity int) *Scheduler {
	return &Scheduler{capacity: capacity}
}

type waiter struct {
	priority int
	order    uint64 // FIFO within a priority
	ready    chan struct{}
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].order < h[j].order
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any     { old := *h; n := len(old); w := old[n-1]; *h = old[:n-1]; return w }

// remove drops a waiter by identity (context cancellation while queued).
func (h *waiterHeap) remove(w *waiter) {
	for i, x := range *h {
		if x == w {
			heap.Remove(h, i)
			return
		}
	}
}

// Acquire obtains an execution slot, blocking by priority order.
func (s *Scheduler) Acquire(ctx context.Context, priority int) error {
	if s.capacity <= 0 {
		return ctx.Err()
	}
	s.mu.Lock()
	if s.running < s.capacity && s.waiters.Len() == 0 {
		s.running++
		s.mu.Unlock()
		return nil
	}
	w := &waiter{priority: priority, order: s.order, ready: make(chan struct{})}
	s.order++
	heap.Push(&s.waiters, w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		// Either we raced a grant (ready closed) or we must dequeue.
		select {
		case <-w.ready:
			// Slot was granted concurrently; give it back.
			s.release()
		default:
			s.waiters.remove(w)
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns an execution slot and wakes the best waiter.
func (s *Scheduler) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release()
}

// release must run with s.mu held.
func (s *Scheduler) release() {
	if s.capacity <= 0 {
		return
	}
	if s.waiters.Len() > 0 {
		w := heap.Pop(&s.waiters).(*waiter)
		close(w.ready) // slot transfers to the waiter; running unchanged
		return
	}
	if s.running > 0 {
		s.running--
	}
}
