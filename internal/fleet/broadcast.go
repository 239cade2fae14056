package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ErrSlowSubscriber is returned by Poll after a subscription was dropped
// for falling behind its ring under the DropSlow policy.
var ErrSlowSubscriber = errors.New("fleet: subscriber dropped (too slow)")

// ErrUnknownSubscriber is returned by Poll for a handle the broadcaster
// does not hold (never created, reaped, or already collected after a
// drop).
var ErrUnknownSubscriber = errors.New("fleet: unknown subscriber")

// DropPolicy says what the broadcaster does to a subscriber whose ring
// overflows. Either way, ingest never blocks.
type DropPolicy int

const (
	// DropSlow closes the subscription on overflow: the subscriber's
	// next poll reports ErrSlowSubscriber and the handle dies.
	DropSlow DropPolicy = iota
	// DownSample keeps the subscription and overwrites its oldest
	// buffered events, counting the losses.
	DownSample
)

// String names the policy for docs and telemetry.
func (p DropPolicy) String() string {
	if p == DownSample {
		return "downsample"
	}
	return "drop"
}

// BroadcasterConfig parameterises a Broadcaster.
type BroadcasterConfig struct {
	// Buf is the default per-subscriber ring capacity (default 1024);
	// a subscriber may ask for up to 4*Buf.
	Buf int
	// Policy is the overflow policy (default DropSlow).
	Policy DropPolicy
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// Telemetry, when set, exports publish/drop counters and the
	// subscriber gauge.
	Telemetry *telemetry.Registry
}

// Broadcaster fans events out to subscribers over bounded per-subscriber
// rings. Publish is O(subscribers) and never blocks: a subscriber that
// cannot keep up overflows its own ring and is dropped or down-sampled —
// it cannot stall ingest or the other subscribers.
type Broadcaster struct {
	cfg BroadcasterConfig

	mu     sync.Mutex
	seq    uint64
	nextID uint64
	subs   map[string]*subscriber

	published   *telemetry.Counter
	droppedEvs  *telemetry.Counter
	droppedSubs *telemetry.Counter
}

// subscriber is one bounded ring plus its drop bookkeeping.
type subscriber struct {
	ring     []Event
	head     int // index of the oldest buffered event
	n        int // buffered count
	policy   DropPolicy
	dropped  uint64
	closed   bool
	lastPoll time.Time
}

// NewBroadcaster builds a broadcaster (zero config takes defaults).
func NewBroadcaster(cfg BroadcasterConfig) *Broadcaster {
	if cfg.Buf <= 0 {
		cfg.Buf = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	b := &Broadcaster{cfg: cfg, subs: make(map[string]*subscriber)}
	if reg := cfg.Telemetry; reg != nil {
		b.published = reg.Counter("naplet_fleet_events_published_total",
			"events published to the fleet broadcaster")
		b.droppedEvs = reg.Counter("naplet_fleet_events_dropped_total",
			"events lost to down-sampling slow subscribers")
		b.droppedSubs = reg.Counter("naplet_fleet_subscribers_dropped_total",
			"subscriptions closed for falling behind their ring")
		reg.GaugeFunc("naplet_fleet_subscribers", "live event subscriptions",
			func() float64 { return float64(b.Subscribers()) })
	}
	return b
}

// Publish stamps the event with the next sequence number and offers it
// to every live subscriber. Returns the assigned sequence.
func (b *Broadcaster) Publish(ev Event) uint64 {
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	for _, s := range b.subs {
		if s.closed {
			continue
		}
		if s.n == len(s.ring) {
			switch s.policy {
			case DropSlow:
				// Free the ring now; the handle survives until the
				// subscriber polls and learns it was dropped.
				s.closed = true
				s.ring, s.head, s.n = nil, 0, 0
				if b.droppedSubs != nil {
					b.droppedSubs.Inc()
				}
				continue
			case DownSample:
				s.head = (s.head + 1) % len(s.ring)
				s.n--
				s.dropped++
				if b.droppedEvs != nil {
					b.droppedEvs.Inc()
				}
			}
		}
		s.ring[(s.head+s.n)%len(s.ring)] = ev
		s.n++
	}
	b.mu.Unlock()
	if b.published != nil {
		b.published.Inc()
	}
	return ev.Seq
}

// Subscribe creates a subscription with a ring of buf events (0 takes
// the default, larger requests are clamped) under the given policy,
// returning its handle.
func (b *Broadcaster) Subscribe(buf int, policy DropPolicy) string {
	if buf <= 0 {
		buf = b.cfg.Buf
	}
	if buf > 4*b.cfg.Buf {
		buf = 4 * b.cfg.Buf
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := fmt.Sprintf("sub-%d", b.nextID)
	b.subs[id] = &subscriber{
		ring:     make([]Event, buf),
		policy:   policy,
		lastPoll: b.cfg.Clock(),
	}
	return id
}

// Poll drains up to max buffered events (0 = all), oldest first, along
// with the events dropped so far. A subscription closed for slowness
// reports ErrSlowSubscriber exactly once; later polls see
// ErrUnknownSubscriber.
func (b *Broadcaster) Poll(id string, max int) ([]Event, uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.subs[id]
	if !ok {
		return nil, 0, ErrUnknownSubscriber
	}
	if s.closed {
		delete(b.subs, id)
		return nil, s.dropped, ErrSlowSubscriber
	}
	s.lastPoll = b.cfg.Clock()
	n := s.n
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil, s.dropped, nil
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	s.head = (s.head + n) % len(s.ring)
	s.n -= n
	return out, s.dropped, nil
}

// Reap removes subscriptions not polled for at least idle, returning how
// many died — the garbage collection for watchers that went away without
// unsubscribing.
func (b *Broadcaster) Reap(idle time.Duration) int {
	now := b.cfg.Clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for id, s := range b.subs {
		if now.Sub(s.lastPoll) >= idle {
			delete(b.subs, id)
			n++
		}
	}
	return n
}

// Subscribers reports the live subscription count.
func (b *Broadcaster) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
