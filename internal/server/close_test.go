package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/itinerary"
)

// TestNoVisitStartsAfterClose races launches and the transfers of their
// tours against Close: once a server's Close has returned, no visit starts
// there — no launch, no landing — and Launch on it fails with ErrClosed.
func TestNoVisitStartsAfterClose(t *testing.T) {
	names := []string{"home", "s1"}
	for round := 0; round < 8; round++ {
		sp := newSpace(t, spaceOpts{}, names...)
		closed := make(map[string]*atomic.Bool)
		late := make(chan Event, 64)
		for _, name := range names {
			flag := new(atomic.Bool)
			closed[name] = flag
			sp.servers[name].SetEventSink(func(e Event) {
				if (e.Kind == EventLaunch || e.Kind == EventArrival) && flag.Load() {
					select {
					case late <- e:
					default:
					}
				}
			})
		}
		home := sp.servers["home"]
		launch := func() error {
			_, err := home.Launch(context.Background(), LaunchOptions{
				Owner:    "czxu",
				Codebase: "test.Collector",
				Pattern:  itinerary.SeqVisits([]string{"s1", "home", "s1"}, ""),
			})
			return err
		}

		stop := make(chan struct{})
		var launchers sync.WaitGroup
		for i := 0; i < 4; i++ {
			launchers.Add(1)
			go func() {
				defer launchers.Done()
				for {
					select {
					case <-stop:
						return
					default:
						launch()
					}
				}
			}()
		}
		time.Sleep(time.Duration(1+round%4) * time.Millisecond)
		var closers sync.WaitGroup
		for _, name := range names {
			closers.Add(1)
			go func() {
				defer closers.Done()
				sp.servers[name].Close()
				closed[name].Store(true)
			}()
		}
		closers.Wait()
		time.Sleep(5 * time.Millisecond) // launches keep racing the closed servers
		close(stop)
		launchers.Wait()

		select {
		case e := <-late:
			t.Fatalf("round %d: %s of %s at %s after Close returned", round, e.Kind, e.Naplet, e.To)
		default:
		}
		if err := launch(); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: Launch on a closed server: err = %v, want ErrClosed", round, err)
		}
	}
}
