package netsim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

type echoBody struct {
	Text string
	Pad  []byte
}

func echoHandler(from string, f wire.Frame) (wire.Frame, error) {
	var body echoBody
	if err := f.Body(&body); err != nil {
		return wire.Frame{}, err
	}
	body.Text = "echo:" + body.Text
	return wire.NewFrame(f.Kind, f.To, f.From, &body)
}

// newPair attaches two echo nodes "a" and "b" on a fresh network.
func newPair(t *testing.T, cfg Config) (*Network, transport.Node, transport.Node) {
	t.Helper()
	net := New(cfg)
	a, err := net.Attach("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach("b", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	return net, a, b
}

func TestCallRoundTrip(t *testing.T) {
	_, a, b := newPair(t, Config{})
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "hi"})
	reply, err := a.Call(context.Background(), b.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	var body echoBody
	reply.Body(&body)
	if body.Text != "echo:hi" {
		t.Fatalf("reply = %q", body.Text)
	}
	if reply.From != "b" || reply.To != "a" {
		t.Fatalf("reply addressing: %s -> %s", reply.From, reply.To)
	}
}

func TestTrafficAccounting(t *testing.T) {
	net, a, b := newPair(t, Config{})
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "hi", Pad: make([]byte, 1000)})
	wantReq := req.EncodedSize()
	if _, err := a.Call(context.Background(), b.Addr(), req); err != nil {
		t.Fatal(err)
	}

	as := net.HostStats("a")
	bs := net.HostStats("b")
	if as.FramesSent != 1 || as.FramesRecv != 1 {
		t.Fatalf("a frames: %+v", as)
	}
	if bs.FramesSent != 1 || bs.FramesRecv != 1 {
		t.Fatalf("b frames: %+v", bs)
	}
	// Sent bytes from a must be at least the padded request size. Frame
	// headers (From/To/Seq) are filled by the fabric so the on-wire size can
	// exceed the preview, never undercut it meaningfully.
	if as.BytesSent < int64(wantReq)-64 {
		t.Fatalf("a sent %d bytes, request preview %d", as.BytesSent, wantReq)
	}
	if bs.BytesRecv != as.BytesSent {
		t.Fatalf("conservation: a sent %d, b recv %d", as.BytesSent, bs.BytesRecv)
	}
	if as.BytesRecv != bs.BytesSent {
		t.Fatalf("conservation: b sent %d, a recv %d", bs.BytesSent, as.BytesRecv)
	}
	total := net.TotalStats()
	if total.FramesSent != 2 {
		t.Fatalf("total frames sent = %d", total.FramesSent)
	}
}

func TestModeledDelayAccumulates(t *testing.T) {
	// TimeScale 0: no real sleeping, but modeled delay must still accrue.
	net, a, b := newPair(t, Config{DefaultLink: WAN})
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "x"})
	start := time.Now()
	if _, err := a.Call(context.Background(), b.Addr(), req); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Millisecond {
		t.Fatalf("TimeScale=0 must not sleep, took %v", elapsed)
	}
	as := net.HostStats("a")
	if as.ModeledDelay < WAN.Latency {
		t.Fatalf("modeled delay %v < link latency %v", as.ModeledDelay, WAN.Latency)
	}
}

func TestTimeScaleSleeps(t *testing.T) {
	// 10ms modeled latency at scale 10 → ~1ms per direction of real sleep.
	cfg := Config{DefaultLink: Link{Latency: 10 * time.Millisecond}, TimeScale: 10}
	_, a, b := newPair(t, cfg)
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	start := time.Now()
	if _, err := a.Call(context.Background(), b.Addr(), req); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 1500*time.Microsecond {
		t.Fatalf("expected ≥ ~2ms of scaled sleep, got %v", elapsed)
	}
}

func TestTransitIncludesBandwidth(t *testing.T) {
	l := Link{Latency: time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	d := l.Transit(1e6)
	if d < time.Second || d > time.Second+2*time.Millisecond {
		t.Fatalf("1MB over 1MB/s = %v, want ~1s+latency", d)
	}
	inf := Link{Latency: time.Millisecond}
	if inf.Transit(1e9) != time.Millisecond {
		t.Fatal("zero bandwidth must mean infinite rate")
	}
}

func TestLossDeterministicTimeout(t *testing.T) {
	cfg := Config{DefaultLink: Link{Loss: 1.0}, CallTimeout: time.Millisecond}
	net, a, b := newPair(t, cfg)
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	_, err := a.Call(context.Background(), b.Addr(), req)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if net.HostStats("a").Dropped != 1 {
		t.Fatalf("dropped count: %+v", net.HostStats("a"))
	}
	if net.HostStats("b").FramesRecv != 0 {
		t.Fatal("lost frame must not be delivered")
	}
}

func TestLossSeedReproducible(t *testing.T) {
	run := func(seed int64) int {
		cfg := Config{DefaultLink: Link{Loss: 0.5}, Seed: seed, CallTimeout: time.Nanosecond}
		net := New(cfg)
		a, _ := net.Attach("a", echoHandler)
		net.Attach("b", echoHandler)
		lost := 0
		for i := 0; i < 50; i++ {
			req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
			if _, err := a.Call(context.Background(), "b", req); err != nil {
				lost++
			}
		}
		return lost
	}
	if run(7) != run(7) {
		t.Fatal("same seed must reproduce the same loss pattern")
	}
}

func TestPartition(t *testing.T) {
	net, a, b := newPair(t, Config{})
	net.Partition("a", "b", true)
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	if _, err := a.Call(context.Background(), "b", req); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", err)
	}
	if _, err := b.Call(context.Background(), "a", req); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partition must be bidirectional, got %v", err)
	}
	net.Partition("a", "b", false)
	if _, err := a.Call(context.Background(), "b", req); err != nil {
		t.Fatalf("healed partition: %v", err)
	}
}

func TestLinkOverride(t *testing.T) {
	net, a, b := newPair(t, Config{DefaultLink: LAN})
	net.SetLink("a", "b", WAN)
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	if _, err := a.Call(context.Background(), b.Addr(), req); err != nil {
		t.Fatal(err)
	}
	if d := net.HostStats("a").ModeledDelay; d < WAN.Latency {
		t.Fatalf("override not applied: modeled %v", d)
	}
}

func TestUnknownAndClosedPeers(t *testing.T) {
	net, a, _ := newPair(t, Config{})
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	if _, err := a.Call(context.Background(), "ghost", req); !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
	c, _ := net.Attach("c", echoHandler)
	c.Close()
	if _, err := a.Call(context.Background(), "c", req); !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("closed peer: %v", err)
	}
	if _, err := c.Call(context.Background(), "a", req); !errors.Is(err, transport.ErrNodeClosed) {
		t.Fatalf("closed self: %v", err)
	}
}

func TestDuplicateAttach(t *testing.T) {
	net := New(Config{})
	if _, err := net.Attach("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("a", echoHandler); !errors.Is(err, transport.ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
}

func TestHandlerErrorAndPanic(t *testing.T) {
	net := New(Config{})
	net.Attach("bad", func(from string, f wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, fmt.Errorf("refused")
	})
	net.Attach("boom", func(from string, f wire.Frame) (wire.Frame, error) {
		panic("naplet bug")
	})
	a, _ := net.Attach("a", echoHandler)
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})

	_, err := a.Call(context.Background(), "bad", req)
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("handler error: %v", err)
	}
	_, err = a.Call(context.Background(), "boom", req)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("handler panic: %v", err)
	}
}

func TestLoopbackLink(t *testing.T) {
	net := New(Config{DefaultLink: WAN})
	a, _ := net.Attach("a", echoHandler)
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	if _, err := a.Call(context.Background(), "a", req); err != nil {
		t.Fatal(err)
	}
	// Self-calls use the loopback link, far below WAN latency.
	if d := net.HostStats("a").ModeledDelay; d >= WAN.Latency {
		t.Fatalf("loopback modeled delay too high: %v", d)
	}
}

func TestResetStats(t *testing.T) {
	net, a, b := newPair(t, Config{})
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	a.Call(context.Background(), b.Addr(), req)
	net.ResetStats()
	if s := net.TotalStats(); s.FramesSent != 0 || s.BytesSent != 0 {
		t.Fatalf("stats after reset: %+v", s)
	}
}

func TestContextCancellation(t *testing.T) {
	cfg := Config{DefaultLink: Link{Latency: time.Hour}, TimeScale: 1}
	_, a, b := newPair(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	start := time.Now()
	_, err := a.Call(ctx, b.Addr(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation must be prompt")
	}
}

func TestConcurrentCalls(t *testing.T) {
	net := New(Config{})
	for i := 0; i < 8; i++ {
		net.Attach(fmt.Sprintf("s%d", i), echoHandler)
	}
	a, _ := net.Attach("a", echoHandler)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: fmt.Sprint(i)})
			reply, err := a.Call(context.Background(), fmt.Sprintf("s%d", i%8), req)
			if err != nil {
				t.Error(err)
				return
			}
			var body echoBody
			reply.Body(&body)
			if body.Text != "echo:"+fmt.Sprint(i) {
				t.Errorf("cross-talk: %q", body.Text)
			}
		}(i)
	}
	wg.Wait()
	if got := net.HostStats("a").FramesSent; got != 64 {
		t.Fatalf("frames sent = %d", got)
	}
}
