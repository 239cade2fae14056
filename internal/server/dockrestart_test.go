package server

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/dock"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/registry"
)

// gateAgent blocks mid-visit at one server until the test opens its gate,
// signalling arrival first. It stages the "server crashes while a naplet is
// visiting" scenario: the crash image is taken while the agent is parked.
type gateAgent struct {
	at      string
	gate    chan struct{}
	arrived chan struct{}
}

func (a gateAgent) OnStart(ctx *naplet.Context) error {
	var tour []string
	ctx.State().Load("tour", &tour)
	tour = append(tour, ctx.Server)
	if err := ctx.State().SetPrivate("tour", tour); err != nil {
		return err
	}
	if ctx.Server == a.at {
		select {
		case a.arrived <- struct{}{}:
		default:
		}
		select {
		case <-a.gate:
		case <-ctx.Cancel.Done():
			return ctx.Cancel.Err()
		}
	}
	return nil
}

func (a gateAgent) OnDestroy(ctx *naplet.Context) {
	var tour []string
	ctx.State().Load("tour", &tour)
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctx.Listener.Report(rctx, []byte(strings.Join(tour, ",")))
}

// crashImage snapshots the dock file while the server is still running —
// the moral equivalent of the disk surviving a power cut. Close() runs the
// orderly trap/cleanup path, which erases dock entries; a real crash would
// not, so the test restores the pre-crash bytes afterwards.
func crashImage(t *testing.T, st *dock.Store) []byte {
	t.Helper()
	data, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatalf("crash image: %v", err)
	}
	return data
}

func restoreImage(t *testing.T, st *dock.Store, data []byte) {
	t.Helper()
	if err := os.WriteFile(st.Path(), data, 0o644); err != nil {
		t.Fatalf("restore image: %v", err)
	}
}

// TestDockRestartResumesVisit crashes a server while a naplet is mid-visit
// and restarts it from the dock snapshot: the naplet re-runs the pending
// visit and the tour still completes exactly once at home.
func TestDockRestartResumesVisit(t *testing.T) {
	dir := t.TempDir()
	st, err := dock.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := newSpace(t, spaceOpts{mutate: func(name string, cfg *Config) {
		if name == "s1" {
			cfg.Dock = st
		}
	}}, "home", "s1")

	gate := make(chan struct{})
	arrived := make(chan struct{}, 1)
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.Gate",
		New:  func() naplet.Behavior { return gateAgent{at: "s1", gate: gate, arrived: arrived} },
	})

	reports := make(chan string, 4)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Gate",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
		Listener: func(r manager.Result) { reports <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("naplet never reached s1")
	}

	// The landing was committed to the dock before it was acknowledged, so
	// the image taken now holds the visiting naplet. A crashed server sends
	// nothing, but Close kills the visit and reports it trapped, and the
	// home keeps the first terminal status it hears: cut s1 off while it
	// closes, so the trap stays where a crash would have left it.
	img := crashImage(t, st)
	sp.net.Partition("s1", "home", true)
	if err := sp.servers["s1"].Close(); err != nil {
		t.Fatal(err)
	}
	sp.net.Partition("s1", "home", false)
	restoreImage(t, st, img)

	// Reopen the gate so the replayed visit runs through, then boot a
	// replacement server on the same address and dock directory.
	close(gate)
	st2, err := dock.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1b, err := New(Config{
		Name:     "s1",
		Fabric:   sp.net,
		Registry: sp.reg,
		Dock:     st2,
	})
	if err != nil {
		t.Fatalf("restart s1: %v", err)
	}
	t.Cleanup(func() { s1b.Close() })

	// The restarted visit completes the tour and reports it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stt, _, serr := sp.servers["home"].Status(nid)
		if serr == nil && stt == manager.StatusCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status = %v, want completed after restart", stt)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case got := <-reports:
		if got != "s1" {
			t.Fatalf("tour after restart = %q, want %q", got, "s1")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no report after restart")
	}
}

// TestDockRestartKeepsHeldMail crashes a server holding undeliverable mail
// and asserts the restart restores it — exactly once, no loss and no
// duplication.
func TestDockRestartKeepsHeldMail(t *testing.T) {
	dir := t.TempDir()
	st, err := dock.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := newSpace(t, spaceOpts{mutate: func(name string, cfg *Config) {
		if name == "s1" {
			cfg.Dock = st
		}
	}}, "home", "s1")

	// Post to a naplet believed to be at s1 but absent: s1 parks the
	// message, and the KindPost handler commits the dock before confirming.
	rid := id.MustNew("rx", "s1", time.Now())
	sender := naplet.NewRecord(id.MustNew("tx", "home", time.Now()),
		cred.Credential{}, "test.Collector", "home", nil)
	sender.Book.Add(rid, "s1")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sp.servers["home"].Messenger().Post(ctx, sender, rid, "survivor", []byte("survivor")); err != nil {
		t.Fatalf("post: %v", err)
	}
	if n := len(sp.servers["s1"].Messenger().MailSnapshot()[rid.Key()]); n != 1 {
		t.Fatalf("held before crash = %d, want 1", n)
	}

	img := crashImage(t, st)
	if err := sp.servers["s1"].Close(); err != nil {
		t.Fatal(err)
	}
	restoreImage(t, st, img)

	st2, err := dock.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1b, err := New(Config{
		Name:     "s1",
		Fabric:   sp.net,
		Registry: sp.reg,
		Dock:     st2,
	})
	if err != nil {
		t.Fatalf("restart s1: %v", err)
	}
	t.Cleanup(func() { s1b.Close() })

	if n := len(s1b.Messenger().MailSnapshot()[rid.Key()]); n != 1 {
		t.Fatalf("held after restart = %d, want exactly 1", n)
	}
	for key, msgs := range s1b.Messenger().HeldSnapshot() {
		for _, m := range msgs {
			if m.Subject != "survivor" {
				t.Fatalf("unexpected held message %q for %s", m.Subject, key)
			}
		}
	}
}
