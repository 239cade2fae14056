package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/registry"
	"repro/internal/state"
	"repro/internal/stats"
)

// pingController rests at home and answers each arrival announcement of
// a touring target with "go", "rounds" times.
type pingController struct{}

func (pingController) OnStart(ctx *naplet.Context) error {
	var rounds int
	if err := ctx.State().Load("rounds", &rounds); err != nil {
		return err
	}
	for i := 0; i < rounds; i++ {
		msg, err := ctx.Messenger.Receive(ctx.Cancel)
		if err != nil {
			return err
		}
		// The announcement names the target's dock: the book entry a
		// forward-mode post starts its chase from.
		ctx.AddressBook().Add(msg.From, string(msg.Body))
		if err := ctx.Messenger.Post(ctx.Cancel, msg.From, "go", nil); err != nil {
			return err
		}
	}
	return nil
}

// pingTarget announces its arrival at each stop to the controller named by
// its "controller" state and waits for "go" before it moves on. It
// announces only once the dock it came from has let it go (a "depart"
// event on departed): the release tells its correspondents where it went,
// and an announcement that overtook that notice would find the controller
// locating a dock it has left.
type pingTarget struct{ departed <-chan struct{} }

func (p pingTarget) OnStart(ctx *naplet.Context) error {
	select {
	case <-p.departed:
	case <-ctx.Cancel.Done():
		return ctx.Cancel.Err()
	}
	var key string
	if err := ctx.State().Load("controller", &key); err != nil {
		return err
	}
	ctrl, err := id.Parse(key)
	if err != nil {
		return err
	}
	// A naplet talks only to peers in its address book (§2.1).
	ctx.AddressBook().Add(ctrl, ctrl.Host())
	if err := ctx.Messenger.Post(ctx.Cancel, ctrl, "arrived", []byte(ctx.Server)); err != nil {
		return err
	}
	_, err = ctx.Messenger.Receive(ctx.Cancel)
	return err
}

// TestLocationModes is §4.1's trade-off (E5 in EXPERIMENTS.md): a target
// tours 8 docks and exchanges a ping-pong with a controller at home at
// every stop, so every round locates a naplet that has just moved. A
// directory pays two lookups a round and a registration per hop; with the
// locator's cache (the only end-to-end use of Config.LocatorTTL) each stop
// looks the controller up and the home the target only once, as every
// departure pushes the target's next dock into the home's cache. Home
// mode pays one query of the home a round, by the stop locating the
// controller; the home answers its own lookups, and no stop asks twice, so
// the cache saves nothing. Forward mode looks nothing up and, the
// announcements keeping the books current, forwards nothing either.
// Lookups and queries are exact, the frames are ordered forward < home <
// directory, and directory mode's 132 is exact too.
func TestLocationModes(t *testing.T) {
	const hops = 8
	modes := []struct {
		name             string
		mode             locator.Mode
		ttl              time.Duration
		lookups, queries int64
		frames           int64 // 0: pinned only by the ordering
	}{
		{"directory", locator.ModeDirectory, 0, 16, 0, 132},
		{"directory+cache", locator.ModeDirectory, time.Minute, 9, 0, 0},
		{"home", locator.ModeHome, 0, 0, 8, 0},
		{"home+cache", locator.ModeHome, time.Minute, 0, 8, 0},
		{"forward", locator.ModeForward, 0, 0, 0, 0},
	}
	stops := make([]string, hops)
	for i := range stops {
		stops[i] = fmt.Sprintf("s%d", i)
	}
	frames := make(map[string]int64)
	table := stats.NewTable("mode", "frames", "bytes", "forwarded", "dir lookups", "home queries")
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			counter := newKindCounter()
			sp := newSpace(t, spaceOpts{
				mode:      m.mode,
				directory: m.mode == locator.ModeDirectory,
				mutate: func(_ string, cfg *Config) {
					counter.inner, cfg.Fabric = cfg.Fabric, counter
					cfg.LocatorTTL = m.ttl
				},
			}, append([]string{"home"}, stops...)...)
			departed := make(chan struct{}, hops)
			for _, srv := range sp.servers {
				srv.SetEventSink(func(ev Event) {
					if ev.Kind == "depart" { // only the target leaves a dock
						departed <- struct{}{}
					}
				})
			}
			sp.reg.MustRegister(&registry.Codebase{Name: "test.PingController", New: func() naplet.Behavior { return pingController{} }})
			sp.reg.MustRegister(&registry.Codebase{Name: "test.PingTarget", New: func() naplet.Behavior { return pingTarget{departed} }})
			home := sp.servers["home"]
			ctrl, err := home.Launch(context.Background(), LaunchOptions{
				Owner:     "ctrl",
				Codebase:  "test.PingController",
				Pattern:   itinerary.SeqVisits([]string{"home"}, ""),
				InitState: func(s *state.State) error { return s.SetPrivate("rounds", hops) },
			})
			if err != nil {
				t.Fatal(err)
			}
			target, err := home.Launch(context.Background(), LaunchOptions{
				Owner:     "tgt",
				Codebase:  "test.PingTarget",
				Pattern:   itinerary.SeqVisits(stops, ""),
				InitState: func(s *state.State) error { return s.SetPrivate("controller", ctrl.Key()) },
			})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, home, target, manager.StatusCompleted)
			waitDone(t, home, ctrl, manager.StatusCompleted)
			// Neither naplet sends again; the target's end report and the
			// controller's last post may still be on their way back.
			counter.idle()

			var fwd, lookups, queries int64
			for _, srv := range sp.servers {
				fwd += srv.Messenger().Stats().Forwarded
				ls := srv.Locator().Stats()
				lookups += ls.Directory
				queries += ls.HomeQuery
			}
			total := sp.net.TotalStats()
			frames[m.name] = total.FramesSent
			table.AddRow(m.name, total.FramesSent, total.BytesSent, fwd, lookups, queries)
			if lookups != m.lookups || queries != m.queries || fwd != 0 {
				t.Errorf("%d directory lookups, %d home queries, %d forwarded; want %d, %d, 0",
					lookups, queries, fwd, m.lookups, m.queries)
			}
			if m.frames != 0 && total.FramesSent != m.frames {
				t.Errorf("%d frames, want %d", total.FramesSent, m.frames)
			}
		})
	}
	t.Logf("%d hops, one ping-pong per stop:\n%s", hops, table)
	if !(frames["forward"] < frames["home"] && frames["home"] < frames["directory"]) {
		t.Fatalf("frames forward %d, home %d, directory %d: want forward < home < directory",
			frames["forward"], frames["home"], frames["directory"])
	}
}
