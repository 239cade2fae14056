package navigator

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestNewTransferIDTextAndCost: server/bootnonce/counter, as fmt wrote it,
// for the one string it returns.
func TestNewTransferIDTextAndCost(t *testing.T) {
	nav := New(Config{}, "naplet://a.example:4100", nil, nil, nil, nil, registry.NewCache(), nil) // mints IDs, makes no call
	nav.tidSeq.Store(41)
	if got, want := nav.NewTransferID(), "naplet://a.example:4100/"+nav.bootID+"/42"; got != want {
		t.Fatalf("NewTransferID() = %q, want %q", got, want)
	}
	nav.tidSeq.Store(1<<63 - 1)
	if got, want := nav.NewTransferID(), "naplet://a.example:4100/"+nav.bootID+"/9223372036854775808"; got != want {
		t.Fatalf("NewTransferID() = %q, want %q", got, want)
	}
	var tid string
	if n := testing.AllocsPerRun(100, func() { tid = nav.NewTransferID() }); n > 1 && !raceEnabled {
		t.Errorf("NewTransferID: %v allocs (%q), want 1", n, tid)
	}
}

// TestAttemptEndsWithinTwiceTheCallTimeout: an attempt makes up to three
// calls — landing request, transfer, transfer again with the code — each
// under the call timeout, and still ends within twice that however the
// destination spreads its stalling: the last call gets what is left.
func TestAttemptEndsWithinTwiceTheCallTimeout(t *testing.T) {
	t.Parallel()
	const callTimeout = 400 * time.Millisecond
	fab := transport.NewTCPFabric()
	release := make(chan struct{})
	var transfers atomic.Int32
	dest, err := fab.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		switch {
		case f.Kind == wire.KindLandingRequest:
			time.Sleep(callTimeout * 3 / 4)
			return wire.BinaryFrame(wire.KindLandingReply, f.To, f.From, &LandingReplyBody{Granted: true}), nil
		case transfers.Add(1) == 1:
			time.Sleep(callTimeout * 3 / 4)
			return wire.BinaryFrame(wire.KindTransferAck, f.To, f.From, &TransferAckBody{NeedCode: true}), nil
		default:
			<-release
			return wire.Frame{}, errors.New("released")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dest.Close()
	defer close(release) // before Close, which waits for the stalled handler
	node, err := fab.Attach("127.0.0.1:0", func(string, wire.Frame) (wire.Frame, error) { return wire.Frame{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	orig := New(Config{CodeDelivery: Push, CallTimeout: callTimeout}, node.Addr(), node, nil,
		manager.New(node.Addr(), time.Now), newRegistry(t), registry.NewCache(), nil)

	start := time.Now()
	_, err = orig.Dispatch(context.Background(), record(t, nil, "a"), dest.Addr(), orig.NewTransferID(), transport.Backoff{}, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTransferUnresolved) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dispatch against a stalling destination: %v, want an unresolved transfer that timed out", err)
	}
	// 3/4 + 3/4 + the 1/2 left; a third call under its own full timeout
	// would end at 5/2.
	if elapsed < callTimeout*7/4 || elapsed > callTimeout*9/4 {
		t.Fatalf("the attempt took %v, want about %v", elapsed, 2*callTimeout)
	}
}
