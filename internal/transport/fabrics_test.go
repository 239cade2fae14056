// The request path runs the same on every fabric: one table, run over
// TCPFabric and netsim, pins what a caller sees of the serving side — the
// error reply, the recovered panic, the overload round trip, the
// pre-dispatch shed, the echoed Seq — and what the call path meters.
package transport_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rig is one fabric under test, instrumented in reg.
type rig struct {
	fab     transport.Fabric
	reg     *telemetry.Registry
	addr    func(name string) string
	unknown string // an address no node answers at
	// stall makes every later request from client to server wait longer
	// than wait before dispatch, until the returned release runs.
	stall func(t *testing.T, r *rig, client, server transport.Node, wait time.Duration) (release func())
	// parked receives, and gate holds, each kindPark call in the handler.
	parked chan struct{}
	gate   chan struct{}
}

// kindPark marks the calls a TCP stall parks in the serving handler.
const kindPark = wire.Kind("test.park")

var fabrics = []struct {
	name string
	rig  func() *rig
}{
	{"tcp", func() *rig {
		fab := transport.NewTCPFabric()
		reg := telemetry.NewRegistry()
		fab.Instrument(reg)
		return &rig{
			fab:     fab,
			reg:     reg,
			addr:    func(string) string { return "127.0.0.1:0" },
			unknown: "127.0.0.1:1",
			stall:   stallPipeline,
		}
	}},
	{"netsim", func() *rig {
		net := netsim.New(netsim.Config{})
		reg := telemetry.NewRegistry()
		net.Instrument(reg)
		return &rig{
			fab:     net,
			reg:     reg,
			addr:    func(name string) string { return name },
			unknown: "nowhere",
			// A modeled transit longer than the budget; TimeScale 0 never
			// sleeps it, so the caller's own clock does not run out.
			stall: func(t *testing.T, r *rig, client, server transport.Node, wait time.Duration) func() {
				net.SetLink(client.Addr(), server.Addr(), netsim.Link{Latency: 2 * wait})
				return func() {}
			},
		}
	}},
}

// stallPipeline fills every pipeline slot of the client's TCP connection
// with parked calls, so the next request waits for a slot after it came
// off the socket. Release lets that request wait out twice wait once the
// server has read it, then unparks the calls, which must all succeed.
func stallPipeline(t *testing.T, r *rig, client, server transport.Node, wait time.Duration) func() {
	var calls sync.WaitGroup
	for i := 0; i < transport.MaxPipelinedPerConn; i++ {
		calls.Add(1)
		go func() {
			defer calls.Done()
			if _, err := client.Call(context.Background(), server.Addr(), wire.Frame{Kind: kindPark}); err != nil {
				t.Errorf("parked call: %v", err)
			}
		}()
	}
	for i := 0; i < transport.MaxPipelinedPerConn; i++ {
		<-r.parked
	}
	return func() {
		for counter(r.reg, "naplet_transport_frames_recv_total") <= transport.MaxPipelinedPerConn {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(2 * wait)
		close(r.gate)
		calls.Wait()
	}
}

// pair attaches a server answering with h (kindPark frames park) and a
// client.
func pair(t *testing.T, r *rig, h transport.Handler) (client, server transport.Node) {
	t.Helper()
	r.parked = make(chan struct{}, transport.MaxPipelinedPerConn)
	r.gate = make(chan struct{})
	server, err := r.fab.Attach(r.addr("server"), func(from string, f wire.Frame) (wire.Frame, error) {
		if f.Kind == kindPark {
			r.parked <- struct{}{}
			<-r.gate
			return wire.Frame{Kind: kindPark}, nil
		}
		return h(from, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	client, err = r.fab.Attach(r.addr("client"), func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, server
}

func ack(from string, f wire.Frame) (wire.Frame, error) {
	return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From}, nil
}

// budgetOnly carries a deadline, so the call packs a budget, but never
// expires: the caller waits for whatever reply the serving side sends.
type budgetOnly struct {
	context.Context
	deadline time.Time
}

func (c budgetOnly) Deadline() (time.Time, bool) { return c.deadline, true }

func counter(reg *telemetry.Registry, name string) int64 {
	return reg.Counter(name, "").Value()
}

func TestRequestPathOnEveryFabric(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"handler error arrives as *wire.Error", func(t *testing.T, r *rig) {
			client, server := pair(t, r, func(string, wire.Frame) (wire.Frame, error) {
				return wire.Frame{}, fmt.Errorf("LANDING denied")
			})
			_, err := client.Call(context.Background(), server.Addr(), wire.Frame{Kind: wire.KindLandingRequest})
			if err == nil || !strings.Contains(err.Error(), "LANDING denied") {
				t.Fatalf("want handler error, got %v", err)
			}
			var werr *wire.Error
			if !errors.As(err, &werr) {
				t.Fatalf("want *wire.Error, got %T", err)
			}
		}},
		{"handler panic is recovered", func(t *testing.T, r *rig) {
			client, server := pair(t, r, func(string, wire.Frame) (wire.Frame, error) {
				panic("agent misbehaved")
			})
			for i := 0; i < 2; i++ { // the server still serves after a panic
				_, err := client.Call(context.Background(), server.Addr(), wire.Frame{Kind: wire.KindPost})
				if err == nil || !strings.Contains(err.Error(), transport.ErrHandlerPanic.Error()) {
					t.Fatalf("call %d: want panic error, got %v", i, err)
				}
			}
		}},
		{"overload round trip keeps its sentinel", func(t *testing.T, r *rig) {
			client, server := pair(t, r, func(string, wire.Frame) (wire.Frame, error) {
				return wire.Frame{}, overload.ErrOverloaded
			})
			_, err := client.Call(context.Background(), server.Addr(), wire.Frame{Kind: wire.KindPost})
			if !errors.Is(err, overload.ErrOverloaded) {
				t.Fatalf("call error = %v, want ErrOverloaded across the hop", err)
			}
			if !transport.Refused(err) {
				t.Fatal("overload shed must count as a provable refusal")
			}
			var werr *wire.Error
			if errors.As(err, &werr) {
				t.Fatal("re-hydrated overload error must not read as an authoritative wire.Error")
			}
			if !overload.Liveness(err) {
				t.Fatal("an overload reply proves the peer alive")
			}
		}},
		{"spent budget is shed before dispatch", func(t *testing.T, r *rig) {
			var handled atomic.Int32
			client, server := pair(t, r, func(from string, f wire.Frame) (wire.Frame, error) {
				handled.Add(1)
				return ack(from, f)
			})
			const budget = 20 * time.Millisecond
			release := r.stall(t, r, client, server, budget)
			done := make(chan error, 1)
			go func() {
				ctx := budgetOnly{context.Background(), time.Now().Add(budget)}
				_, err := client.Call(ctx, server.Addr(), wire.Frame{Kind: wire.KindPost})
				done <- err
			}()
			release()
			err := <-done
			if !errors.Is(err, overload.ErrDeadlinePast) {
				t.Fatalf("shed reply error = %v, want ErrDeadlinePast", err)
			}
			if !transport.Refused(err) {
				t.Fatal("a pre-dispatch shed is a provable refusal")
			}
			if handled.Load() != 0 {
				t.Fatal("shed request reached the handler")
			}
			if got := counter(r.reg, "naplet_transport_deadline_shed_total"); got != 1 {
				t.Fatalf("deadline_shed counter = %d, want 1", got)
			}
		}},
		{"Seq is echoed", func(t *testing.T, r *rig) {
			seen := make(chan uint64, 1)
			client, server := pair(t, r, func(from string, f wire.Frame) (wire.Frame, error) {
				seen <- f.Seq
				return ack(from, f)
			})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			reply, err := client.Call(ctx, server.Addr(), wire.Frame{Kind: wire.KindPost})
			if err != nil {
				t.Fatal(err)
			}
			if seq := <-seen; reply.Seq != seq {
				t.Fatalf("reply Seq %#x, request Seq %#x", reply.Seq, seq)
			}
			if reply.BareSeq() != 1 {
				t.Fatalf("bare seq = %d, want 1", reply.BareSeq())
			}
		}},
		{"unknown peer is a metered call error", func(t *testing.T, r *rig) {
			client, _ := pair(t, r, ack)
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			_, err := client.Call(ctx, r.unknown, wire.Frame{Kind: wire.KindPost})
			if !errors.Is(err, transport.ErrUnknownPeer) {
				t.Fatalf("want ErrUnknownPeer, got %v", err)
			}
			if got := counter(r.reg, "naplet_transport_call_errors_total"); got != 1 {
				t.Fatalf("call_errors counter = %d, want 1", got)
			}
		}},
	}
	for _, fab := range fabrics {
		for _, row := range rows {
			t.Run(fab.name+"/"+row.name, func(t *testing.T) { row.run(t, fab.rig()) })
		}
	}
}
