package transport

import (
	"context"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestLateReplyNeverReachesAnotherCall is the reply-slot pool's safety
// net. Calls on one mux carry a token and a seeded service time; the
// handler sleeps that long and echoes the token. Calls with timeouts as
// tight as the service times give up while their replies race in, and are
// interleaved with calls that wait. A slot handed back to the pool while a
// late reply could still land in it would give a later call someone
// else's token.
func TestLateReplyNeverReachesAnotherCall(t *testing.T) {
	const (
		seed    = 39
		callers = 8
		calls   = 60
	)
	fab := NewTCPFabric()
	reg := telemetry.NewRegistry()
	fab.Instrument(reg)
	server, err := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		time.Sleep(time.Duration(binary.BigEndian.Uint64(f.Payload[8:])))
		return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From, Payload: append([]byte(nil), f.Payload[:8]...)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := fab.Attach("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var ok, timedOut atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		rng := rand.New(rand.NewPCG(seed, uint64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				token := uint64(c)<<32 | uint64(i)
				service := time.Duration(rng.Int64N(int64(2 * time.Millisecond)))
				payload := binary.BigEndian.AppendUint64(nil, token)
				payload = binary.BigEndian.AppendUint64(payload, uint64(service))
				timeout := 5 * time.Second
				tight := i%2 == 0
				if tight {
					timeout = time.Duration(rng.Int64N(int64(2 * time.Millisecond)))
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				reply, err := client.Call(ctx, server.Addr(), wire.Frame{Kind: wire.KindPost, Payload: payload})
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
					if len(reply.Payload) != 8 || binary.BigEndian.Uint64(reply.Payload) != token {
						t.Errorf("call %#x got the reply of %x", token, reply.Payload)
					}
				case tight:
					timedOut.Add(1)
				default:
					t.Errorf("call %#x with a %v timeout: %v", token, timeout, err)
				}
			}
		}()
	}
	wg.Wait()

	lateReplies := reg.Counter("naplet_transport_late_replies_total", "")
	deadline := time.Now().Add(2 * time.Second)
	for lateReplies.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("%d calls answered, %d gave up, %d late replies", ok.Load(), timedOut.Load(), lateReplies.Value())
	if lateReplies.Value() == 0 {
		t.Fatal("no reply arrived late: the test never raced a reply against a give-up")
	}
}

// TestServeWorkersBoundedAndReentrant pins the inbound connection's
// workers: no more than MaxPipelinedPerConn handlers run at once however
// many requests are queued behind them, a handler may call back into its
// caller over the same two connections, and Close leaves no worker behind.
func TestServeWorkersBoundedAndReentrant(t *testing.T) {
	start := runtime.NumGoroutine()
	fab := NewTCPFabric()

	const blocked = 2 * maxPipelinedPerConn
	var running, peak atomic.Int64
	entered := make(chan struct{}, blocked)
	barrier := make(chan struct{})
	var a, b Node
	handler := func(from string, f wire.Frame) (wire.Frame, error) {
		switch f.Kind {
		case "test.block":
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			entered <- struct{}{}
			<-barrier
			running.Add(-1)
		case "test.bounce":
			// A bounce with hops left calls the peer it came from, which
			// bounces it back: A calls B, B calls A, A calls B.
			if hops := f.Payload[0]; hops > 0 {
				self, peer := a, b
				if f.To == b.Addr() {
					self, peer = b, a
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if _, err := self.Call(ctx, peer.Addr(), wire.Frame{Kind: "test.bounce", Payload: []byte{hops - 1}}); err != nil {
					return wire.Frame{}, err
				}
			}
		}
		return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From}, nil
	}
	var err error
	if a, err = fab.Attach("127.0.0.1:0", handler); err != nil {
		t.Fatal(err)
	}
	if b, err = fab.Attach("127.0.0.1:0", handler); err != nil {
		t.Fatal(err)
	}

	t.Run("bounded", func(t *testing.T) {
		var calls sync.WaitGroup
		for i := 0; i < blocked; i++ {
			calls.Add(1)
			go func() {
				defer calls.Done()
				if _, err := a.Call(context.Background(), b.Addr(), wire.Frame{Kind: "test.block"}); err != nil {
					t.Errorf("blocked call: %v", err)
				}
			}()
		}
		for i := 0; i < maxPipelinedPerConn; i++ {
			<-entered
		}
		time.Sleep(50 * time.Millisecond) // room for a 65th handler to start, if one could
		if n := running.Load(); n != maxPipelinedPerConn {
			t.Errorf("%d handlers running on one connection, want %d", n, maxPipelinedPerConn)
		}
		close(barrier)
		calls.Wait()
		if p := peak.Load(); p > maxPipelinedPerConn {
			t.Errorf("peak of %d handlers on one connection, bound %d", p, maxPipelinedPerConn)
		}
	})

	t.Run("reentrant", func(t *testing.T) {
		done := make(chan error, 1)
		go func() {
			_, err := a.Call(context.Background(), b.Addr(), wire.Frame{Kind: "test.bounce", Payload: []byte{2}})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a call back into the caller deadlocked")
		}
		for _, n := range []Node{a, b} {
			tn := tcp(n)
			tn.muxMu.Lock()
			muxes := len(tn.muxes)
			tn.muxMu.Unlock()
			if muxes != 1 {
				t.Errorf("%s holds %d outbound connections, want 1", n.Addr(), muxes)
			}
		}
	})

	a.Close()
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after Close, %d before the nodes were attached", n, start)
	}
}
