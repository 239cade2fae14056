package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/messenger"
	"repro/internal/naplet"
	"repro/internal/registry"
	"repro/internal/wire"
)

// freeMover takes whatever mail reaches it at each stop for two
// milliseconds, then moves on; at its last stop it waits for the rest. It
// reports "count:sum" of the message numbers it received.
type freeMover struct{ expect int }

func (m *freeMover) OnStart(ctx *naplet.Context) error {
	var count, sum int
	ctx.State().Load("count", &count) // absent on the first visit
	ctx.State().Load("sum", &sum)
	take := func(msg naplet.Message) {
		n, _ := strconv.Atoi(msg.Subject)
		count++
		sum += n
	}
	last := ctx.Itinerary().Done()
	dwell := time.After(2 * time.Millisecond)
stop:
	for !last || count < m.expect {
		if msg, ok := ctx.Messenger.TryReceive(); ok {
			take(msg)
			continue
		}
		if last {
			msg, err := ctx.Messenger.Receive(ctx.Cancel)
			if err != nil {
				return err
			}
			take(msg)
			continue
		}
		select {
		case <-dwell:
			break stop
		case <-time.After(100 * time.Microsecond):
		}
	}
	if err := ctx.State().SetPrivate("count", count); err != nil {
		return err
	}
	if err := ctx.State().SetPrivate("sum", sum); err != nil {
		return err
	}
	if !last {
		return nil
	}
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return ctx.Listener.Report(rctx, []byte(fmt.Sprintf("%d:%d", count, sum)))
}

// TestFreeRunningChaseExactlyOnce: a mover tours eight docks, none twice,
// while the home dock posts to it all along, never waiting to hear where
// the mover is. Mail meets the mover resident,
// leaving (leftovers), in flight (held at the next dock until it lands) and
// gone (forwarded along the trace); every message is received exactly once,
// and no dock is left holding mail.
func TestFreeRunningChaseExactlyOnce(t *testing.T) {
	const (
		rounds = 8
		posts  = 200
		// pace spreads one round's posts over about the mover's tour.
		pace = 100 * time.Microsecond
	)
	docks := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"}
	sp := newSpace(t, spaceOpts{mode: locator.ModeForward}, append([]string{"home"}, docks...)...)
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.FreeMover",
		New:  func() naplet.Behavior { return &freeMover{expect: posts} },
	})
	home := sp.servers["home"]
	wantSum := posts * (posts + 1) / 2
	for round := 0; round < rounds; round++ {
		reports := make(chan string, 1)
		mover, err := home.Launch(context.Background(), LaunchOptions{
			Owner:    "czxu",
			Codebase: "test.FreeMover",
			Pattern:  itinerary.SeqVisits(docks, ""),
			Listener: func(r manager.Result) { reports <- string(r.Body) },
		})
		if err != nil {
			t.Fatal(err)
		}
		sender := naplet.NewRecord(id.MustNew("tx"+strconv.Itoa(round), "home", time.Now()),
			cred.Credential{}, "test.Collector", "home", nil)
		sender.Book.Add(mover, "home")
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		for i := 1; i <= posts; i++ {
			if err := home.Messenger().Post(ctx, sender, mover, strconv.Itoa(i), nil); err != nil {
				cancel()
				t.Fatalf("round %d: post %d: %v", round, i, err)
			}
			time.Sleep(pace)
		}
		cancel()
		waitDone(t, home, mover, manager.StatusCompleted)
		select {
		case got := <-reports:
			if want := fmt.Sprintf("%d:%d", posts, wantSum); got != want {
				t.Fatalf("round %d: mover received %s (count:sum), want %s", round, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: no report", round)
		}
	}
	for _, name := range docks {
		srv := sp.servers[name]
		waitResidents(t, srv, 0)
		if held := srv.Messenger().HeldSnapshot(); len(held) != 0 {
			t.Fatalf("%s still holds mail: %v", name, held)
		}
	}
	var forwarded int64
	for _, srv := range sp.servers {
		forwarded += srv.Messenger().Stats().Forwarded
	}
	if forwarded == 0 {
		t.Fatal("no post had to chase the mover: the rounds did not overlap its tour")
	}
	if held := home.Messenger().HeldSnapshot(); len(held) != 0 {
		t.Fatalf("home still holds mail: %v", held)
	}
}

// TestPostRacingCleanupIsNotHeld: a post racing the end of a naplet's life
// cycle here is mail left in its slot or ErrNapletGone — cleanup records
// the end on the visit trace before the slot goes — and never mail held
// for a naplet that will not come back.
func TestPostRacingCleanupIsNotHeld(t *testing.T) {
	const iterations = 20000
	s := newSpace(t, spaceOpts{mode: locator.ModeForward}, "s1").servers["s1"]
	held := 0
	for i := 0; i < iterations; i++ {
		nid := id.MustNew("n"+strconv.Itoa(i), "s1", time.Now())
		rec := naplet.NewRecord(nid, cred.Credential{NapletID: nid}, "test.Collector", "s1", nil)
		s.mgr.RecordArrival(nid, rec.Codebase, "s0", time.Now())
		s.msgr.CreateMailbox(nid)
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.cleanup(rec)
		}()
		msg := naplet.Message{ID: "s0/m" + strconv.Itoa(i), To: nid, Class: naplet.UserMessage}
		_, err := s.msgr.HandlePost("s0", wire.BinaryFrame(wire.KindPost, "s0", "s1", &messenger.PostBody{Msg: msg}))
		<-done
		if err != nil && !errors.Is(err, messenger.ErrNapletGone) {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if s.msgr.HeldCount(nid) != 0 {
			held++
		}
	}
	if held > 0 {
		t.Fatalf("%d of %d posts racing a naplet's end were held for it", held, iterations)
	}
}
