package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestBroadcasterDeliversInOrder(t *testing.T) {
	b := NewBroadcaster(BroadcasterConfig{Buf: 16})
	id := b.Subscribe(0, DropSlow)
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: EventSpan, Hop: i})
	}
	evs, dropped, err := b.Poll(id, 0)
	if err != nil || dropped != 0 {
		t.Fatalf("poll: %v (dropped %d)", err, dropped)
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Hop != i || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d = hop %d seq %d", i, ev.Hop, ev.Seq)
		}
	}
	// Drained: next poll returns nothing.
	if evs, _, _ := b.Poll(id, 0); len(evs) != 0 {
		t.Fatalf("second poll returned %d events", len(evs))
	}
}

func TestBroadcasterPollMax(t *testing.T) {
	b := NewBroadcaster(BroadcasterConfig{Buf: 16})
	id := b.Subscribe(0, DropSlow)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Hop: i})
	}
	evs, _, err := b.Poll(id, 3)
	if err != nil || len(evs) != 3 || evs[0].Hop != 0 {
		t.Fatalf("poll(3) = %d events, err %v", len(evs), err)
	}
	evs, _, _ = b.Poll(id, 0)
	if len(evs) != 7 || evs[0].Hop != 3 {
		t.Fatalf("rest = %d events starting at hop %d", len(evs), evs[0].Hop)
	}
}

func TestBroadcasterDropsSlowSubscriber(t *testing.T) {
	b := NewBroadcaster(BroadcasterConfig{Buf: 4, Policy: DropSlow})
	slow := b.Subscribe(0, DropSlow)
	fast := b.Subscribe(0, DropSlow)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Hop: i})
		if i%2 == 1 {
			if _, _, err := b.Poll(fast, 0); err != nil {
				t.Fatalf("fast poll: %v", err)
			}
		}
	}
	// The slow subscriber overflowed its 4-slot ring and was dropped:
	// exactly one ErrSlowSubscriber, then the handle is gone.
	if _, _, err := b.Poll(slow, 0); !errors.Is(err, ErrSlowSubscriber) {
		t.Fatalf("slow poll err = %v, want ErrSlowSubscriber", err)
	}
	if _, _, err := b.Poll(slow, 0); !errors.Is(err, ErrUnknownSubscriber) {
		t.Fatalf("second slow poll err = %v, want ErrUnknownSubscriber", err)
	}
	// The fast subscriber is unaffected.
	if _, _, err := b.Poll(fast, 0); err != nil {
		t.Fatalf("fast poll after drop: %v", err)
	}
	if b.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", b.Subscribers())
	}
}

func TestBroadcasterDownSamplesSlowSubscriber(t *testing.T) {
	b := NewBroadcaster(BroadcasterConfig{Buf: 4})
	id := b.Subscribe(4, DownSample)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Hop: i})
	}
	evs, dropped, err := b.Poll(id, 0)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	// The ring keeps the newest 4; the oldest 6 were overwritten.
	if dropped != 6 || len(evs) != 4 {
		t.Fatalf("got %d events, %d dropped; want 4 and 6", len(evs), dropped)
	}
	if evs[0].Hop != 6 || evs[3].Hop != 9 {
		t.Fatalf("window = hops %d..%d, want 6..9", evs[0].Hop, evs[3].Hop)
	}
	// Still subscribed.
	b.Publish(Event{Hop: 10})
	if evs, _, err := b.Poll(id, 0); err != nil || len(evs) != 1 {
		t.Fatalf("after downsample: %d events, err %v", len(evs), err)
	}
}

func TestBroadcasterReap(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := NewBroadcaster(BroadcasterConfig{Buf: 4, Clock: clock})
	stale := b.Subscribe(0, DropSlow)
	fresh := b.Subscribe(0, DropSlow)
	now = now.Add(30 * time.Second)
	if _, _, err := b.Poll(fresh, 0); err != nil {
		t.Fatal(err)
	}
	now = now.Add(40 * time.Second)
	if n := b.Reap(time.Minute); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if _, _, err := b.Poll(stale, 0); !errors.Is(err, ErrUnknownSubscriber) {
		t.Fatalf("stale poll err = %v", err)
	}
	if _, _, err := b.Poll(fresh, 0); err != nil {
		t.Fatalf("fresh poll err = %v", err)
	}
}

func TestBroadcasterSubscribeClampsBuf(t *testing.T) {
	b := NewBroadcaster(BroadcasterConfig{Buf: 8})
	id := b.Subscribe(1<<20, DownSample)
	for i := 0; i < 40; i++ {
		b.Publish(Event{Hop: i})
	}
	evs, dropped, _ := b.Poll(id, 0)
	if len(evs) != 32 || dropped != 8 {
		t.Fatalf("clamped ring held %d (dropped %d), want 32 and 8", len(evs), dropped)
	}
}

func TestBroadcasterConcurrentPublishPoll(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBroadcaster(BroadcasterConfig{Buf: 64, Telemetry: reg})
	published := reg.Counter("naplet_fleet_events_published_total", "")
	const publishers, perPub = 8, 200
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = b.Subscribe(0, DownSample)
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				b.Publish(Event{Node: fmt.Sprintf("n%d", p), Hop: i})
			}
		}(p)
	}
	done := make(chan struct{})
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for {
				evs, _, err := b.Poll(id, 0)
				if err != nil {
					t.Errorf("poll %s: %v", id, err)
					return
				}
				var last uint64
				for _, ev := range evs {
					if ev.Seq <= last && last != 0 {
						t.Errorf("out-of-order seq %d after %d", ev.Seq, last)
					}
					last = ev.Seq
				}
				select {
				case <-done:
					if len(evs) == 0 {
						return
					}
				default:
				}
			}
		}(id)
	}
	// Publishers are done once the published counter has every event;
	// then let the pollers drain and exit.
	for published.Value() < publishers*perPub {
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	if want := int64(publishers * perPub); published.Value() != want {
		t.Fatalf("published = %d, want %d", published.Value(), want)
	}
}
