package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestSilentPeerEndsAtTheFrameBudget: a call that carries its deadline
// only in the frame — context.Background and a CallWithin budget — ends at
// that budget with context.DeadlineExceeded when the peer never answers,
// on a mux earlier calls left open, and its request is sent once: a call
// whose time is up earns no stale-connection retry. Before it, calls on
// the same mux give up on their own frame budgets as their replies race
// in, interleaved with calls that are answered, so the reply slots and
// their timers have been armed, fired, stopped and pooled: a tick left in
// a pooled timer would end a later call early, and a slot given back too
// soon would hand it someone else's reply.
func TestSilentPeerEndsAtTheFrameBudget(t *testing.T) {
	const (
		seed    = 42
		callers = 4
		calls   = 40
		budget  = 150 * time.Millisecond
	)
	fab := NewTCPFabric()
	var silent atomic.Int32
	release := make(chan struct{})
	server, err := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		if f.Kind == "test.silent" {
			silent.Add(1)
			<-release
			return wire.Frame{}, errors.New("released")
		}
		time.Sleep(time.Duration(binary.BigEndian.Uint64(f.Payload[8:])))
		return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From, Payload: append([]byte(nil), f.Payload[:8]...)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	defer close(release) // before Close, which waits for the silent handler
	client, err := fab.Attach("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

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
				timeout, tight := 5*time.Second, i%2 == 0
				if tight {
					timeout = time.Duration(rng.Int64N(int64(2 * time.Millisecond)))
				}
				reply, err := CallWithin(context.Background(), client, server.Addr(), wire.Frame{Kind: wire.KindPost, Payload: payload}, timeout)
				switch {
				case err == nil:
					if len(reply.Payload) != 8 || binary.BigEndian.Uint64(reply.Payload) != token {
						t.Errorf("call %#x got the reply of %x", token, reply.Payload)
					}
				case tight && errors.Is(err, context.DeadlineExceeded):
				default:
					t.Errorf("call %#x with a %v budget: %v", token, timeout, err)
				}
			}
		}()
	}
	wg.Wait()

	start := time.Now()
	_, err = CallWithin(context.Background(), client, server.Addr(), wire.Frame{Kind: "test.silent"}, budget)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call to a silent peer: %v, want context.DeadlineExceeded", err)
	}
	if elapsed < budget || elapsed > 2*budget {
		t.Fatalf("call to a silent peer took %v, want its budget %v", elapsed, budget)
	}
	if n := silent.Load(); n != 1 {
		t.Fatalf("the silent handler ran %d times, want 1: a timed-out call was sent again", n)
	}
}

// TestDialHonoursTheFrameDeadline: the dial of a call whose deadline only
// the frame carries is bounded by it. A call whose budget is spent never
// dials — the listener sees no connection — and fails as refused, so the
// caller knows the request went nowhere, and as its deadline, so a caller
// that gave the call its time sees it run out; a call whose context was
// canceled fails as refused and canceled.
func TestDialHonoursTheFrameDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := NewTCPFabric().Attach("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	_, err = CallWithin(context.Background(), client, ln.Addr().String(), wire.Frame{Kind: wire.KindPost}, 0)
	if !errors.Is(err, ErrUnknownPeer) || !Refused(err) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call with a spent budget: %v, want a refused dial past its deadline", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = CallWithin(canceled, client, ln.Addr().String(), wire.Frame{Kind: wire.KindPost}, time.Second)
	if !Refused(err) || !errors.Is(err, context.Canceled) {
		t.Fatalf("call with a canceled context: %v, want a refused dial, canceled", err)
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Fatal("a call with a spent budget dialed its peer")
	}
}

// TestReplySlotTimerDrainsBeforeReuse: a reply slot's timer that fired
// while its call was taking the reply goes back to the pool stopped and
// drained, so the next call that arms it waits its own time — with the
// pre-1.23 timer semantics go.mod selects, a stopped timer keeps the tick
// it sent.
func TestReplySlotTimerDrainsBeforeReuse(t *testing.T) {
	slot := &replySlot{ch: make(chan callResult, 1)}
	slot.arm(time.Nanosecond)
	time.Sleep(5 * time.Millisecond) // the tick is sent, and nobody took it
	slot.disarm()
	select {
	case <-slot.arm(time.Hour):
		t.Fatal("a re-armed timer delivered the tick of its previous use")
	default:
	}
	slot.disarm()
}
