package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

func TestPartitionCutMidCallFailsReplyLeg(t *testing.T) {
	// The partition is cut while the handler runs: the request leg already
	// got through, so the side effect happened, but the reply leg must
	// fail. This is the organic form of the lost-acknowledgement fault the
	// retry/dedup machinery exists for.
	net := New(Config{})
	handled := 0
	_, err := net.Attach("b", func(from string, f wire.Frame) (wire.Frame, error) {
		handled++
		if handled == 1 {
			net.Partition("a", "b", true)
		}
		return wire.NewFrame(f.Kind, f.To, f.From, &echoBody{Text: "done"})
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.Attach("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	_, err = a.Call(context.Background(), "b", req)
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned on the reply leg, got %v", err)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times; the request leg should have delivered", handled)
	}

	// The caller's retry after the heal completes normally.
	net.Partition("a", "b", false)
	if _, err := a.Call(context.Background(), "b", req); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	if handled != 2 {
		t.Fatalf("handler ran %d times after retry, want 2", handled)
	}
}

func TestContextCancelInsideLossTimeout(t *testing.T) {
	// A lost frame parks the caller in the modeled CallTimeout sleep; the
	// caller's context must still be able to interrupt it promptly.
	cfg := Config{DefaultLink: Link{Loss: 1.0}, CallTimeout: time.Hour, TimeScale: 1}
	_, a, b := newPair(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	start := time.Now()
	_, err := a.Call(ctx, b.Addr(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from inside the loss sleep, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation inside the loss timeout must be prompt")
	}
}

func TestLossRateMetering(t *testing.T) {
	// Every lost frame must be charged to the sender: sent and dropped
	// counters agree, and nothing reaches the receiver.
	cfg := Config{DefaultLink: Link{Loss: 1.0}, CallTimeout: time.Nanosecond}
	net, a, b := newPair(t, cfg)
	const calls = 20
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	for i := 0; i < calls; i++ {
		if _, err := a.Call(context.Background(), b.Addr(), req); !errors.Is(err, ErrTimeout) {
			t.Fatalf("call %d: want ErrTimeout, got %v", i, err)
		}
	}
	as, bs := net.HostStats("a"), net.HostStats("b")
	if as.FramesSent != calls || as.Dropped != calls {
		t.Fatalf("sender metering: sent=%d dropped=%d, want %d/%d", as.FramesSent, as.Dropped, calls, calls)
	}
	if bs.FramesRecv != 0 || bs.FramesSent != 0 {
		t.Fatalf("receiver saw traffic across a fully lossy link: %+v", bs)
	}
	// A partially lossy seeded link drops a reproducible strict subset.
	seeded := New(Config{DefaultLink: Link{Loss: 0.5}, Seed: 11, CallTimeout: time.Nanosecond})
	sa, _ := seeded.Attach("a", echoHandler)
	seeded.Attach("b", echoHandler)
	for i := 0; i < 40; i++ {
		f, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
		sa.Call(context.Background(), "b", f)
	}
	st := seeded.TotalStats()
	if st.Dropped == 0 || st.Dropped == st.FramesSent {
		t.Fatalf("seeded 0.5 loss dropped %d of %d frames", st.Dropped, st.FramesSent)
	}
}

// TestLossyLinkEndsAtTheCallersBudget: at a TimeScale that sleeps, a frame
// lost on the link costs the caller what is left of its budget — one the
// frame carries, with no context deadline — not the network's CallTimeout;
// at TimeScale 0 a spent budget ends the call before delivery.
func TestLossyLinkEndsAtTheCallersBudget(t *testing.T) {
	const budget = 50 * time.Millisecond
	net := New(Config{DefaultLink: Link{Loss: 1}, TimeScale: 1, CallTimeout: 10 * time.Second})
	if _, err := net.Attach("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	a, err := net.Attach("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = transport.CallWithin(context.Background(), a, "b", wire.Frame{Kind: wire.KindPost}, budget)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call over a lossy link: %v, want context.DeadlineExceeded", err)
	}
	if elapsed < budget || elapsed > 20*budget {
		t.Fatalf("call over a lossy link took %v, want its budget %v", elapsed, budget)
	}

	// Where nothing sleeps, a spent budget still ends the call undelivered.
	instant := New(Config{})
	delivered := false
	if _, err := instant.Attach("b", func(from string, f wire.Frame) (wire.Frame, error) {
		delivered = true
		return echoHandler(from, f)
	}); err != nil {
		t.Fatal(err)
	}
	if a, err = instant.Attach("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err = transport.CallWithin(context.Background(), a, "b", wire.Frame{Kind: wire.KindPost}, 0); !errors.Is(err, context.DeadlineExceeded) || delivered {
		t.Fatalf("call with a spent budget: %v (delivered %v), want context.DeadlineExceeded before delivery", err, delivered)
	}
}
