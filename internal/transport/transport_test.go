package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

type echoBody struct {
	Text string
}

func echoHandler(from string, f wire.Frame) (wire.Frame, error) {
	var body echoBody
	if err := f.Body(&body); err != nil {
		return wire.Frame{}, err
	}
	body.Text = "echo:" + body.Text
	return wire.NewFrame(f.Kind, f.To, f.From, &body)
}

func TestTCPCallRoundTrip(t *testing.T) {
	fab := NewTCPFabric()
	server, err := fab.Attach("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := fab.Attach("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "hi"})
	reply, err := client.Call(context.Background(), server.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	var body echoBody
	if err := reply.Body(&body); err != nil {
		t.Fatal(err)
	}
	if body.Text != "echo:hi" {
		t.Fatalf("reply = %q", body.Text)
	}
	if reply.Seq != 1 {
		t.Fatalf("seq = %d", reply.Seq)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	fab := NewTCPFabric()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	_, err := client.Call(ctx, "127.0.0.1:1", req)
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

func TestTCPClosedNode(t *testing.T) {
	fab := NewTCPFabric()
	node, _ := fab.Attach("127.0.0.1:0", echoHandler)
	addr := node.Addr()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{})
	if _, err := node.Call(context.Background(), addr, req); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("want ErrNodeClosed, got %v", err)
	}
	// Address is reusable after close.
	n2, err := fab.Attach(addr, echoHandler)
	if err != nil {
		t.Fatalf("reattach after close: %v", err)
	}
	n2.Close()
}

func TestTCPConcurrentCalls(t *testing.T) {
	fab := NewTCPFabric()
	server, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer server.Close()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: fmt.Sprint(i)})
			reply, err := client.Call(context.Background(), server.Addr(), req)
			if err != nil {
				errs <- err
				return
			}
			var body echoBody
			reply.Body(&body)
			if body.Text != "echo:"+fmt.Sprint(i) {
				errs <- fmt.Errorf("cross-talk: %q for %d", body.Text, i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// tcp returns the TCP link under a node the fabric attached.
func tcp(n Node) *tcpNode { return n.(*Endpoint).link.(*tcpNode) }

func TestIsErrorReplyNonError(t *testing.T) {
	reply, _ := wire.NewFrame(wire.KindPostConfirm, "a", "b", &echoBody{})
	if err := decodeErrorReply(wire.KindPost, reply); err != nil {
		t.Fatalf("non-error reply misdetected: %v", err)
	}
}

func TestTCPConnReuse(t *testing.T) {
	fab := NewTCPFabric()
	server, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer server.Close()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()
	cn := tcp(client)

	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "a"})
	for i := 0; i < 5; i++ {
		if _, err := client.Call(context.Background(), server.Addr(), req); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential calls share one multiplexed connection.
	cn.muxMu.Lock()
	muxes := len(cn.muxes)
	cn.muxMu.Unlock()
	if muxes != 1 {
		t.Fatalf("shared conns = %d, want 1", muxes)
	}
}

func TestTCPStaleConnRetries(t *testing.T) {
	fab := NewTCPFabric()
	server, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer server.Close()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()
	cn := tcp(client)

	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "x"})
	if _, err := client.Call(context.Background(), server.Addr(), req); err != nil {
		t.Fatal(err)
	}
	// Sabotage the shared connection: close the socket locally so the next
	// write or read fails and the call must retry on a fresh dial.
	cn.muxMu.Lock()
	for _, mc := range cn.muxes {
		mc.conn.Close()
	}
	cn.muxMu.Unlock()

	reply, err := client.Call(context.Background(), server.Addr(), req)
	if err != nil {
		t.Fatalf("stale-conn retry failed: %v", err)
	}
	var body echoBody
	reply.Body(&body)
	if body.Text != "echo:x" {
		t.Fatalf("reply = %q", body.Text)
	}
}

func TestTCPCallsShareOneConn(t *testing.T) {
	fab := NewTCPFabric()
	server, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer server.Close()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()
	cn := tcp(client)

	// Many concurrent calls must multiplex over a single connection.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "c"})
			if _, err := client.Call(context.Background(), server.Addr(), req); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cn.muxMu.Lock()
	muxes := len(cn.muxes)
	cn.muxMu.Unlock()
	if muxes != 1 {
		t.Fatalf("shared conns = %d, want 1", muxes)
	}
}

func TestTCPPipelinedSlowRequestDoesNotBlock(t *testing.T) {
	// A slow handler must not stall other requests pipelined behind it on
	// the same connection: replies may return out of request order.
	block := make(chan struct{})
	fab := NewTCPFabric()
	server, _ := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		var body echoBody
		if err := f.Body(&body); err != nil {
			return wire.Frame{}, err
		}
		if body.Text == "slow" {
			<-block
		}
		return wire.NewFrame(f.Kind, f.To, f.From, &body)
	})
	defer server.Close()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()

	slowDone := make(chan error, 1)
	go func() {
		req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "slow"})
		_, err := client.Call(context.Background(), server.Addr(), req)
		slowDone <- err
	}()

	// The fast call completes while the slow one is still parked.
	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "fast"})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Call(ctx, server.Addr(), req); err != nil {
		t.Fatalf("fast call blocked behind slow one: %v", err)
	}
	close(block)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

func TestTCPCallTimeoutLeavesConnUsable(t *testing.T) {
	// A caller that gives up must not poison the shared connection for
	// later calls; its late reply is dropped by the mux reader.
	block := make(chan struct{})
	fab := NewTCPFabric()
	server, _ := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		var body echoBody
		if err := f.Body(&body); err != nil {
			return wire.Frame{}, err
		}
		if body.Text == "hang" {
			<-block
		}
		return wire.NewFrame(f.Kind, f.To, f.From, &body)
	})
	defer server.Close()
	client, _ := fab.Attach("127.0.0.1:0", echoHandler)
	defer client.Close()

	hang, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "hang"})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.Call(ctx, server.Addr(), hang); err == nil {
		t.Fatal("hung call did not time out")
	}
	close(block)

	req, _ := wire.NewFrame(wire.KindPost, "", "", &echoBody{Text: "after"})
	reply, err := client.Call(context.Background(), server.Addr(), req)
	if err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	var body echoBody
	reply.Body(&body)
	if body.Text != "after" {
		t.Fatalf("reply = %q", body.Text)
	}
}

// BenchmarkTCPRoundTrip is one small request and its reply over loopback,
// on a bare fabric and on an instrumented one. The two are comparable only
// as sub-benchmarks of one run: the difference is what metering costs the
// frame path, and timings cut hours apart on a shared box do not show it.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, tc := range []struct {
		name string
		reg  *telemetry.Registry
	}{{"bare", nil}, {"instrumented", telemetry.NewRegistry()}} {
		b.Run(tc.name, func(b *testing.B) {
			fab := NewTCPFabric()
			if tc.reg != nil {
				fab.Instrument(tc.reg)
			}
			srv, err := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
				return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From, Payload: []byte{1}}, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cli, err := fab.Attach("127.0.0.1:0", func(string, wire.Frame) (wire.Frame, error) {
				return wire.Frame{}, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			req := wire.Frame{Kind: wire.KindPost, Payload: []byte{7}}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Call(ctx, srv.Addr(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
