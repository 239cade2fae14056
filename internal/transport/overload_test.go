// Overload-resilience transport tests: deadline propagation in the frame
// header, pre-dispatch shedding, typed error transit, the stalled-writer
// cancellation escape hatch, and late-reply accounting.
package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestTCPBudgetPropagation: a caller deadline rides the frame's Seq high
// bits to the server, which sees both the receipt stamp and the budget.
func TestTCPBudgetPropagation(t *testing.T) {
	fab := NewTCPFabric()
	seen := make(chan wire.Frame, 1)
	server, err := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		seen <- f
		return echoHandler(from, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "hi"})
	if _, err := client.Call(ctx, server.Addr(), req); err != nil {
		t.Fatal(err)
	}
	got := <-seen
	budget, ok := got.Budget()
	if !ok {
		t.Fatal("server must see the propagated budget")
	}
	if budget <= 0 || budget > 5*time.Second {
		t.Fatalf("budget = %v, want (0, 5s]", budget)
	}
	if got.ReceivedAt.IsZero() {
		t.Fatal("fabric must stamp ReceivedAt")
	}
	if got.BareSeq() == 0 {
		t.Fatal("sequence number lost in packing")
	}

	// Without a deadline, no budget is packed.
	req2, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "hi"})
	if _, err := client.Call(context.Background(), server.Addr(), req2); err != nil {
		t.Fatal(err)
	}
	got = <-seen
	if _, ok := got.Budget(); ok {
		t.Fatal("deadline-free call must not carry a budget")
	}
}

// TestTCPDeadlineShedBeforeDispatch: a request whose budget expires while
// queued behind the pipeline semaphore is shed with ErrDeadlinePast —
// counted in telemetry — instead of reaching the handler.
func TestTCPDeadlineShedBeforeDispatch(t *testing.T) {
	fab := NewTCPFabric()
	reg := telemetry.NewRegistry()
	fab.Instrument(reg)
	block := make(chan struct{})
	var handled int64
	handledCh := make(chan uint64, maxPipelinedPerConn+1)
	server, err := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		<-block
		handledCh <- f.BareSeq()
		return echoHandler(from, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// A raw connection gives exact control over Seq and write order.
	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, _ := wire.Marshal(&echoBody{Text: "x"})
	// Fill every pipeline slot with requests that block in the handler.
	for i := 1; i <= maxPipelinedPerConn; i++ {
		f := wire.Frame{Kind: wire.KindPost, From: "raw", To: server.Addr(), Payload: payload}
		f.Seq = wire.PackBudget(uint64(i), 10*time.Second)
		if err := wire.WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	// The straggler is read and stamped immediately but waits for a slot;
	// its 50ms budget runs out in that queue.
	late := wire.Frame{Kind: wire.KindPost, From: "raw", To: server.Addr(), Payload: payload}
	late.Seq = wire.PackBudget(uint64(maxPipelinedPerConn+1), 50*time.Millisecond)
	if err := wire.WriteFrame(conn, late); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	close(block)

	var shedReply *wire.Frame
	for i := 0; i <= maxPipelinedPerConn; i++ {
		reply, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if reply.BareSeq() == uint64(maxPipelinedPerConn+1) {
			r := reply
			shedReply = &r
		} else {
			handled++
		}
	}
	if shedReply == nil {
		t.Fatal("no reply for the budget-expired request")
	}
	werr := IsErrorReply(wire.KindPost, *shedReply)
	if !errors.Is(werr, overload.ErrDeadlinePast) {
		t.Fatalf("shed reply error = %v, want ErrDeadlinePast", werr)
	}
	if !Refused(werr) {
		t.Fatal("a pre-dispatch shed is a provable refusal")
	}
	if handled != maxPipelinedPerConn {
		t.Fatalf("handled %d of %d admitted requests", handled, maxPipelinedPerConn)
	}
	// The handler never saw the shed request.
	close(handledCh)
	for seq := range handledCh {
		if seq == uint64(maxPipelinedPerConn+1) {
			t.Fatal("shed request reached the handler")
		}
	}
	if got := reg.Counter("naplet_transport_deadline_shed_total",
		"inbound requests shed because the propagated budget had expired before dispatch").Value(); got != 1 {
		t.Fatalf("deadline_shed counter = %d, want 1", got)
	}
}

// TestTCPOverloadErrorTransit: a handler error wrapping ErrOverloaded
// crosses the hop as a typed code and re-hydrates into the same sentinel
// — retryable, Refused, and NOT an authoritative *wire.Error verdict.
func TestTCPOverloadErrorTransit(t *testing.T) {
	fab := NewTCPFabric()
	server, err := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, overload.ErrOverloaded
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()

	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "x"})
	_, err = client.Call(context.Background(), server.Addr(), req)
	if !errors.Is(err, overload.ErrOverloaded) {
		t.Fatalf("call error = %v, want ErrOverloaded across the hop", err)
	}
	if !Refused(err) {
		t.Fatal("overload shed must count as a provable refusal")
	}
	var werr *wire.Error
	if errors.As(err, &werr) {
		t.Fatal("re-hydrated overload error must not read as an authoritative wire.Error")
	}
	if !overload.Liveness(err) {
		t.Fatal("an overload reply proves the peer alive")
	}
}

// TestErrorReplyCodes pins the handler-error code mapping both ways.
func TestErrorReplyCodes(t *testing.T) {
	req := wire.Frame{Kind: wire.KindPost, From: "a", To: "b"}
	cases := []struct {
		err      error
		code     string
		sentinel error
	}{
		{overload.ErrOverloaded, overload.CodeOverloaded, overload.ErrOverloaded},
		{overload.ErrDeadlinePast, overload.CodeDeadlinePast, overload.ErrDeadlinePast},
		{errors.New("boom"), "handler", nil},
	}
	for _, tc := range cases {
		reply := ErrorReply(req, tc.err)
		var werr wire.Error
		if err := werr.Decode(reply.Payload); err != nil {
			t.Fatal(err)
		}
		if werr.Code != tc.code {
			t.Fatalf("code for %v = %q, want %q", tc.err, werr.Code, tc.code)
		}
		back := IsErrorReply(wire.KindPost, reply)
		if tc.sentinel != nil {
			if !errors.Is(back, tc.sentinel) {
				t.Fatalf("rehydrated %v, want %v", back, tc.sentinel)
			}
		} else {
			var w *wire.Error
			if !errors.As(back, &w) {
				t.Fatalf("plain handler error should surface as *wire.Error, got %T", back)
			}
		}
	}
}

// TestTCPCancelAbortsStalledWrite is the stalled-writer regression: a
// canceled context with no deadline must interrupt a WriteFrame blocked
// on a peer that accepted the connection but never reads.
func TestTCPCancelAbortsStalledWrite(t *testing.T) {
	// A listener that accepts and then ignores the connection: the
	// client's socket buffers fill and WriteFrame blocks.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// A tiny receive buffer keeps the kernel from absorbing the
			// frame on the peer's behalf.
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetReadBuffer(4096)
			}
			defer conn.Close()
			<-stop
		}
	}()

	fab := NewTCPFabric()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()

	// The largest legal frame body cannot fit the stalled peer's buffers:
	// without the ctx watcher this write blocks forever. Allocating it takes
	// over 10 ms on a busy box, so it is made — and the clock read — before
	// the canceller's 100 ms start to run.
	req := wire.Frame{Kind: wire.KindPost, Payload: make([]byte, wire.MaxFrameSize-64)}
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := client.Call(ctx, ln.Addr().String(), req)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled write should fail once canceled")
		}
		// The write must have genuinely blocked until the cancellation —
		// an instant failure would mean the test exercised nothing.
		if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
			t.Fatalf("call returned after %v; the write never stalled", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Call still blocked on a stalled peer after 5s")
	}
}

// TestTCPLateReplyCounted is the seq-leak regression: a reply arriving
// after its caller withdrew (ctx expiry raced the reply) is dropped and
// counted, and the pending map carries no leaked entry.
func TestTCPLateReplyCounted(t *testing.T) {
	fab := NewTCPFabric()
	reg := telemetry.NewRegistry()
	fab.Instrument(reg)
	server, err := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		time.Sleep(150 * time.Millisecond)
		return echoHandler(from, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "slow"})
	if _, err := client.Call(ctx, server.Addr(), req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call should time out, got %v", err)
	}

	lateReplies := reg.Counter("naplet_transport_late_replies_total",
		"replies that arrived after their caller timed out or canceled")
	deadline := time.Now().Add(2 * time.Second)
	for lateReplies.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := lateReplies.Value(); got != 1 {
		t.Fatalf("late_replies counter = %d, want 1", got)
	}

	// No correlation entry leaked: the shared mux's pending map is empty.
	tn := client.(*tcpNode)
	tn.muxMu.Lock()
	mc := tn.muxes[server.Addr()]
	tn.muxMu.Unlock()
	if mc == nil {
		t.Fatal("mux should still be alive after a late reply")
	}
	mc.mu.Lock()
	n := len(mc.pending)
	mc.mu.Unlock()
	if n != 0 {
		t.Fatalf("pending map leaked %d entries", n)
	}

	// The connection is still healthy for the next call.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	req2, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "again"})
	if _, err := client.Call(ctx2, server.Addr(), req2); err != nil {
		t.Fatalf("call after late reply: %v", err)
	}
}
