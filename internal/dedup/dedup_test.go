package dedup

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1000, 0)} }
func window(max int, ttl time.Duration) (*Window, *fakeClock) {
	c := newFakeClock()
	return NewWindow(max, ttl, c.Now), c
}

func TestSeenAfterMark(t *testing.T) {
	w, _ := window(8, time.Minute)
	if w.Seen("a") {
		t.Fatal("unmarked id reported seen")
	}
	w.Mark("a")
	if !w.Seen("a") {
		t.Fatal("marked id not seen")
	}
	if w.Seen("b") {
		t.Fatal("unrelated id reported seen")
	}
}

func TestTTLExpiry(t *testing.T) {
	cases := []struct {
		name    string
		age     time.Duration
		wantHit bool
	}{
		{"fresh", time.Second, true},
		{"at-ttl", time.Minute, true},
		{"just-expired", time.Minute + time.Nanosecond, false},
		{"long-expired", time.Hour, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, clk := window(8, time.Minute)
			w.Mark("a")
			clk.advance(tc.age)
			if got := w.Seen("a"); got != tc.wantHit {
				t.Fatalf("Seen after %v = %v, want %v", tc.age, got, tc.wantHit)
			}
		})
	}
}

func TestRemarkRefreshesTTL(t *testing.T) {
	w, clk := window(8, time.Minute)
	w.Mark("a")
	clk.advance(45 * time.Second)
	w.Mark("a") // refresh
	clk.advance(45 * time.Second)
	if !w.Seen("a") {
		t.Fatal("re-mark must refresh the entry's TTL")
	}
}

func TestCapacityEvictsOldest(t *testing.T) {
	w, _ := window(3, time.Hour)
	for i := 0; i < 3; i++ {
		w.Mark(fmt.Sprintf("id%d", i))
	}
	w.Mark("id3") // evicts id0
	if w.Seen("id0") {
		t.Fatal("oldest entry must be evicted at capacity")
	}
	for i := 1; i <= 3; i++ {
		if !w.Seen(fmt.Sprintf("id%d", i)) {
			t.Fatalf("id%d evicted prematurely", i)
		}
	}
	if got := w.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

func TestExpiredEvictedBeforeCapacity(t *testing.T) {
	// Expired entries are reclaimed first: marking a new id when the window
	// is full of stale entries must not drop a live one.
	w, clk := window(3, time.Minute)
	w.Mark("stale1")
	w.Mark("stale2")
	clk.advance(2 * time.Minute)
	w.Mark("live1")
	w.Mark("live2") // would hit the cap without expiry-first eviction
	if !w.Seen("live1") || !w.Seen("live2") {
		t.Fatal("live entries evicted while stale ones were reclaimable")
	}
}

func TestZeroValuesUseDefaults(t *testing.T) {
	w := NewWindow(0, 0, nil)
	w.Mark("a")
	if !w.Seen("a") {
		t.Fatal("default-configured window must work")
	}
}
