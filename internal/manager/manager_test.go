package manager

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
)

var t0 = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)

func newMgr() *Manager {
	return New("s1", func() time.Time { return t0 })
}

func TestLaunchStatusLifecycle(t *testing.T) {
	m := newMgr()
	nid := id.MustNew("u", "s1", t0)
	m.RecordLaunch(nid, nil)
	s, _, err := m.Status(nid)
	if err != nil || s != StatusLaunched {
		t.Fatalf("status = %v %v", s, err)
	}
	m.SetStatus(nid, StatusRunning)
	m.End(nid, EndKey{Dock: "s2", Len: 2}, StatusCompleted, "", nil)
	s, _, _ = m.Status(nid)
	if s != StatusCompleted {
		t.Fatalf("status = %v", s)
	}
	// Terminal status is sticky.
	m.SetStatus(nid, StatusRunning)
	if s, _, _ := m.Status(nid); s != StatusCompleted {
		t.Fatal("terminal status must not regress")
	}
}

func TestStatusUnknown(t *testing.T) {
	m := newMgr()
	if _, _, err := m.Status(id.MustNew("u", "s1", t0)); !errors.Is(err, ErrUnknown) {
		t.Fatal(err)
	}
	// SetStatus for unknown naplets is a no-op, not a panic.
	m.SetStatus(id.MustNew("u", "s1", t0), StatusRunning)
}

func TestDeliverToListener(t *testing.T) {
	m := newMgr()
	nid := id.MustNew("u", "s1", t0)
	var mu sync.Mutex
	var got []Result
	m.RecordLaunch(nid, func(r Result) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	m.Deliver(nid, []byte("hello"))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || string(got[0].Body) != "hello" {
		t.Fatalf("listener got %v", got)
	}
	if rs := m.Results(nid); len(rs) != 1 || string(rs[0].Body) != "hello" {
		t.Fatalf("results = %v", rs)
	}
}

func TestDeliverFromCloneInheritsListener(t *testing.T) {
	// §6.2: a broadcast itinerary spawns a child per server; "the spawned
	// naplets will report their results individually" to the home listener.
	m := newMgr()
	orig := id.MustNew("u", "s1", t0)
	clone, _ := orig.Clone(2)
	var mu sync.Mutex
	var got []Result
	m.RecordLaunch(orig, func(r Result) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	m.Deliver(clone, []byte("from clone"))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || !got[0].NapletID.Equal(clone) {
		t.Fatalf("clone report not routed to originator listener: %v", got)
	}
}

func TestDeliverUnknownNapletStored(t *testing.T) {
	m := newMgr()
	nid := id.MustNew("u", "s1", t0)
	m.Deliver(nid, []byte("r"))
	if rs := m.Results(nid); len(rs) != 1 {
		t.Fatalf("results = %v", rs)
	}
	if rs := m.Results(id.MustNew("x", "s1", t0)); rs != nil {
		t.Fatal("unknown naplet results must be nil")
	}
}

func TestWaitDone(t *testing.T) {
	m := newMgr()
	nid := id.MustNew("u", "s1", t0)
	m.RecordLaunch(nid, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s, err := m.WaitDone(context.Background(), nid)
		if err != nil || s != StatusCompleted {
			t.Errorf("WaitDone = %v %v", s, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	m.End(nid, EndKey{Dock: "s1", Len: 1}, StatusCompleted, "", nil)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitDone did not return")
	}

	// Unknown naplet.
	if _, err := m.WaitDone(context.Background(), id.MustNew("x", "s1", t0)); !errors.Is(err, ErrUnknown) {
		t.Fatal(err)
	}
	// Context cancellation.
	other := id.MustNew("y", "s1", t0)
	m.RecordLaunch(other, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := m.WaitDone(ctx, other); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
}

// endRecorder is a listener that keeps what it was handed.
type endRecorder struct {
	mu  sync.Mutex
	got []string
}

func (r *endRecorder) listen(res Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, res.NapletID.Key()+"="+string(res.Body))
}

func (r *endRecorder) bodies() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.got...)
}

// TestEnd covers the one write that ends a naplet: its results reach the
// listener once per end, however often the end is reported, and before
// WaitDone returns; the first terminal status wins; a clone the home has
// never heard of gets an entry with its originator's listener.
func TestEnd(t *testing.T) {
	orig := id.MustNew("u", "s1", t0)
	clone, _ := orig.Clone(2)
	atS2 := EndKey{Dock: "s2", Len: 3}
	for _, tc := range []struct {
		name       string
		ends       func(m *Manager)
		waitFor    id.NapletID
		wantStatus Status
		wantErr    string
		want       []string
	}{{
		name: "replay dropped",
		ends: func(m *Manager) {
			m.End(orig, atS2, StatusCompleted, "", [][]byte{[]byte("r")})
			m.End(orig, atS2, StatusCompleted, "", [][]byte{[]byte("r")})
		},
		waitFor: orig, wantStatus: StatusCompleted,
		want: []string{orig.Key() + "=r"},
	}, {
		name: "clone inherits the listener",
		ends: func(m *Manager) {
			m.End(clone, atS2, StatusCompleted, "", [][]byte{[]byte("branch")})
		},
		waitFor: clone, wantStatus: StatusCompleted,
		want: []string{clone.Key() + "=branch"},
	}, {
		name: "first terminal status wins",
		ends: func(m *Manager) {
			m.End(orig, EndKey{Dock: "s1", Len: 1}, StatusTrapped, "held", nil)
			m.End(orig, atS2, StatusCompleted, "", [][]byte{[]byte("live")})
		},
		waitFor: orig, wantStatus: StatusTrapped, wantErr: "held",
		want: []string{orig.Key() + "=live"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMgr()
			var rec endRecorder
			m.RecordLaunch(orig, rec.listen)
			tc.ends(m)
			st, err := m.WaitDone(context.Background(), tc.waitFor)
			if err != nil || st != tc.wantStatus {
				t.Fatalf("WaitDone = %v %v, want %v", st, err, tc.wantStatus)
			}
			if _, errText, _ := m.Status(tc.waitFor); errText != tc.wantErr {
				t.Fatalf("error text = %q, want %q", errText, tc.wantErr)
			}
			if got := rec.bodies(); !slices.Equal(got, tc.want) {
				t.Fatalf("listener got %q, want %q", got, tc.want)
			}
			if rs := m.Results(tc.waitFor); len(rs) != len(tc.want) {
				t.Fatalf("results = %v, want %d", rs, len(tc.want))
			}
		})
	}
}

// TestEndListenerRunsBeforeWaitDone: an owner woken by WaitDone finds the
// end's results already delivered, even with the listener still slow.
func TestEndListenerRunsBeforeWaitDone(t *testing.T) {
	m := newMgr()
	nid := id.MustNew("u", "s1", t0)
	var delivered atomic.Bool
	m.RecordLaunch(nid, func(Result) {
		time.Sleep(20 * time.Millisecond)
		delivered.Store(true)
	})
	go m.End(nid, EndKey{Dock: "s2", Len: 2}, StatusCompleted, "", [][]byte{[]byte("r")})
	if st, err := m.WaitDone(context.Background(), nid); err != nil || st != StatusCompleted {
		t.Fatalf("WaitDone = %v %v", st, err)
	}
	if !delivered.Load() {
		t.Fatal("WaitDone returned before the listener had the result")
	}
}

func TestVisitTraceChain(t *testing.T) {
	m := newMgr()
	nid := id.MustNew("u", "home", t0)

	if tr := m.TraceNaplet(nid); tr.Known {
		t.Fatal("unknown naplet must not be known")
	}
	m.RecordArrival(nid, "cb", "home", t0)
	tr := m.TraceNaplet(nid)
	if !tr.Known || !tr.Present {
		t.Fatalf("trace after arrival: %+v", tr)
	}
	if m.Resident() != 1 {
		t.Fatal("resident count")
	}
	if err := m.RecordDeparture(nid, "s2", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	tr = m.TraceNaplet(nid)
	if !tr.Known || tr.Present || tr.Dest != "s2" {
		t.Fatalf("trace after departure: %+v", tr)
	}
	if m.Resident() != 0 {
		t.Fatal("resident after departure")
	}
}

func TestRecordDepartureWithoutArrival(t *testing.T) {
	m := newMgr()
	nid := id.MustNew("u", "home", t0)
	if err := m.RecordDeparture(nid, "s2", t0); !errors.Is(err, ErrUnknown) {
		t.Fatal(err)
	}
}

func TestFootprints(t *testing.T) {
	m := newMgr()
	a := id.MustNew("a", "h", t0)
	b := id.MustNew("b", "h", t0)
	m.RecordArrival(a, "cbA", "home", t0)
	m.RecordArrival(b, "cbB", "s9", t0.Add(time.Second))
	m.RecordDeparture(a, "s2", t0.Add(2*time.Second))
	m.RecordEnd(b, t0.Add(3*time.Second))

	fps := m.Footprints()
	if len(fps) != 2 {
		t.Fatalf("footprints = %v", fps)
	}
	if fps[0].Codebase != "cbA" || fps[0].Dest != "s2" || fps[0].LeftAt.IsZero() {
		t.Fatalf("fp[0] = %+v", fps[0])
	}
	if fps[1].Source != "s9" || fps[1].Dest != "" || fps[1].LeftAt.IsZero() {
		t.Fatalf("fp[1] = %+v", fps[1])
	}
}

func TestRevisitCreatesSecondFootprint(t *testing.T) {
	m := newMgr()
	nid := id.MustNew("u", "h", t0)
	m.RecordArrival(nid, "cb", "home", t0)
	m.RecordDeparture(nid, "s2", t0.Add(time.Second))
	m.RecordArrival(nid, "cb", "s2", t0.Add(5*time.Second))
	fps := m.Footprints()
	if len(fps) != 2 {
		t.Fatalf("revisit must add a footprint: %v", fps)
	}
	if !m.TraceNaplet(nid).Present {
		t.Fatal("trace must show present after revisit")
	}
	// Departure closes the newest open footprint, not the old one.
	m.RecordDeparture(nid, "s3", t0.Add(6*time.Second))
	fps = m.Footprints()
	if fps[1].Dest != "s3" || fps[0].Dest != "s2" {
		t.Fatalf("wrong footprint closed: %+v", fps)
	}
}

func TestHomeTrack(t *testing.T) {
	m := newMgr()
	nid := id.MustNew("u", "s1", t0)
	if _, ok := m.HomeLocate(nid); ok {
		t.Fatal("empty home track")
	}
	m.HomeRecord(nid, "s5", true, 3, t0.Add(time.Second))
	if server, ok := m.HomeLocate(nid); !ok || server != "s5" {
		t.Fatalf("HomeLocate = %q %v", server, ok)
	}
	// A stale report must not regress, even from a dock whose clock runs
	// an hour ahead: the log's sequence orders reports, not the clocks.
	m.HomeRecord(nid, "s2", true, 1, t0.Add(time.Hour))
	if server, _ := m.HomeLocate(nid); server != "s5" {
		t.Fatalf("stale home record applied: %q", server)
	}
	m.HomeRecord(nid, "s7", true, 5, t0.Add(-time.Hour))
	if server, _ := m.HomeLocate(nid); server != "s7" {
		t.Fatalf("newer home record ignored: %q", server)
	}
	// A restore orders by the same rule.
	m.RestoreHome([]HomeEvent{{ID: nid.Key(), Server: "s6", Arrival: true, Seq: 4, At: t0.Add(time.Hour)}})
	if server, _ := m.HomeLocate(nid); server != "s7" {
		t.Fatalf("an older restored record won: %q", server)
	}
	if evs := m.HomeSnapshot(); len(evs) != 1 || evs[0].Seq != 5 || evs[0].Server != "s7" {
		t.Fatalf("home snapshot = %+v", evs)
	}
}

// TestDepartures lists the naplets that left alive, with where they went
// and their arrival's sequence there; ended and present ones are not.
func TestDepartures(t *testing.T) {
	m := newMgr()
	gone := id.MustNew("u", "h", t0)
	ended := id.MustNew("u", "h", t0.Add(time.Second))
	here := id.MustNew("u", "h", t0.Add(2*time.Second))
	for _, nid := range []id.NapletID{gone, ended, here} {
		m.RecordArrival(nid, "cb", "home", t0)
	}
	if err := m.Depart(gone, "s2", 5, t0); err != nil {
		t.Fatal(err)
	}
	m.RecordEnd(ended, t0)
	deps := m.Departures()
	if len(deps) != 1 || !deps[0].NapletID.Equal(gone) || deps[0].Dest != "s2" || deps[0].Seq != 5 {
		t.Fatalf("departures = %+v", deps)
	}
}

func TestStatusStringAndTerminal(t *testing.T) {
	names := map[Status]string{
		StatusLaunched: "launched", StatusRunning: "running",
		StatusSuspended: "suspended", StatusInTransit: "in-transit",
		StatusCompleted: "completed", StatusTerminated: "terminated",
		StatusTrapped: "trapped",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
	if Status(99).String() != "Status(99)" {
		t.Fatal("unknown status")
	}
	if !StatusCompleted.Terminal() || !StatusTerminated.Terminal() || !StatusTrapped.Terminal() {
		t.Fatal("terminal statuses")
	}
	if StatusRunning.Terminal() || StatusLaunched.Terminal() {
		t.Fatal("non-terminal statuses")
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := newMgr()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nid := id.MustNew("u", "h", t0.Add(time.Duration(i)*time.Second))
			m.RecordLaunch(nid, nil)
			m.RecordArrival(nid, "cb", "home", t0)
			m.Deliver(nid, []byte("r"))
			m.End(nid, EndKey{Dock: "s2", Len: 2}, StatusCompleted, "", [][]byte{[]byte("end")})
			m.TraceNaplet(nid)
			m.RecordDeparture(nid, "s2", t0)
			m.HomeRecord(nid, "s2", true, 1, t0)
			m.HomeLocate(nid)
			m.Footprints()
		}(i)
	}
	wg.Wait()
	if len(m.Footprints()) != 8 {
		t.Fatal("concurrent records lost")
	}
}
