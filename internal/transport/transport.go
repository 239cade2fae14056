// Package transport abstracts the network under the naplet protocols.
//
// Every inter-server interaction in the system — landing negotiation, naplet
// transfer, directory registration, locator queries, post-office messages,
// service invocations — is a request/reply exchange of wire.Frames between
// named nodes. This file holds that exchange once, the call path
// (Endpoint.Call) and the serve path (Serve). Fabrics only move frames: a
// fabric's Link carries a stamped request to its peer, has Serve answer it
// there, and carries the reply back. Two fabrics implement it:
//
//   - netsim.Network: an in-process simulated network with configurable
//     per-link latency, bandwidth and loss, which meters every byte. All
//     tests and experiments run on it.
//   - TCPFabric (tcp.go): real TCP sockets, used by cmd/napletd for
//     multi-process deployments.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/overload"
	"repro/internal/wire"
)

// Handler processes one inbound frame and returns the reply frame. Handlers
// must be safe for concurrent use; the fabric may deliver frames from many
// peers at once. Returning an error produces a transport-level failure at
// the caller; protocol-level errors should travel inside reply payloads.
//
// The request frame's Payload may alias a per-connection read buffer that
// the fabric reuses after the handler returns: handlers that retain the
// payload beyond the call must copy it. Decoding it with Frame.Body (the
// universal pattern) always copies.
type Handler func(from string, f wire.Frame) (wire.Frame, error)

// Node is one attached endpoint of a fabric.
type Node interface {
	// Addr returns the node's own address (server name).
	Addr() string
	// Call sends a frame to the named peer and waits for its reply.
	Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error)
	// Close detaches the node. Calls after Close fail.
	Close() error
}

// Fabric attaches nodes to a network.
type Fabric interface {
	// Attach registers a handler under the given address and returns the
	// node. Attaching an address twice is an error.
	Attach(addr string, h Handler) (Node, error)
}

// Errors shared by fabric implementations.
var (
	ErrNodeClosed   = errors.New("transport: node closed")
	ErrUnknownPeer  = errors.New("transport: unknown peer")
	ErrDuplicate    = errors.New("transport: address already attached")
	ErrHandlerPanic = errors.New("transport: handler panicked")
)

// ErrRefused marks call failures where the request was refused before
// delivery — the connection (or the local node, or the fabric) rejected
// the call without the remote handler ever running. Fabrics wrap their
// pre-delivery refusals with it so protocol layers can tell a failure
// with provably no remote side effect from an ambiguous one (a timeout
// or a lost frame, where the request may have executed). Exactly-once
// decisions — a migration's failover, for one — hinge on that
// distinction.
var ErrRefused = errors.New("transport: undelivered")

// Refused reports whether err proves the request never reached the
// peer's handler. Absence of ErrRefused is not proof of delivery: it
// means the outcome is unknown. Overload and deadline sheds count:
// both are raised before the request is dispatched to any component,
// so a shed request provably had no remote side effect.
func Refused(err error) bool {
	return errors.Is(err, ErrRefused) ||
		errors.Is(err, ErrNodeClosed) ||
		errors.Is(err, ErrUnknownPeer) ||
		errors.Is(err, overload.ErrOverloaded) ||
		errors.Is(err, overload.ErrDeadlinePast)
}

// Link is what a fabric supplies for one attached node.
type Link interface {
	// Move carries a stamped request to the peer f.To, has Serve answer
	// it there, and carries the reply back. An error means the request
	// or its reply did not make it. deadline is the call's (CallDeadline;
	// zero for none): every wait of the move ends by it, whether or not
	// ctx carries it.
	Move(ctx context.Context, deadline time.Time, f wire.Frame) (wire.Frame, error)
	// Close detaches the node from the fabric; it runs once.
	Close() error
}

// Endpoint is a fabric's Node, the calling side over its Link. met is the
// fabric's, read per call so instrumenting after Attach takes effect.
type Endpoint struct {
	addr   string
	link   Link
	met    *atomic.Pointer[Metrics]
	closed atomic.Bool
	seq    atomic.Uint64
}

// NewEndpoint returns the node at addr whose calls move over link.
func NewEndpoint(addr string, link Link, met *atomic.Pointer[Metrics]) *Endpoint {
	return &Endpoint{addr: addr, link: link, met: met}
}

// Addr implements Node.
func (e *Endpoint) Addr() string { return e.addr }

// Call implements Node: it stamps the request with the caller's remaining
// budget (see wire.PackBudget), so the serving side can shed work whose
// caller will have given up, moves it, meters the exchange, and returns an
// error reply as its error. The budget is what is left of CallDeadline.
func (e *Endpoint) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	if e.closed.Load() {
		return wire.Frame{}, ErrNodeClosed
	}
	deadline, bounded := CallDeadline(ctx, &f)
	f.From = e.addr
	f.To = to
	f.Seq = e.seq.Add(1)
	if bounded {
		f.Seq = wire.PackBudget(f.Seq, time.Until(deadline))
	}

	met := e.met.Load()
	var start time.Time
	if met != nil {
		start = time.Now()
	}
	reply, err := e.link.Move(ctx, deadline, f)
	if err != nil {
		met.CallError()
		return wire.Frame{}, err
	}
	if met != nil {
		met.Sent(&f)
		met.Recv(&reply)
		met.ObserveCall(f.Kind, time.Since(start))
	}
	return reply, decodeErrorReply(f.Kind, reply)
}

// CallWithin is n.Call bounded by timeout. Only a ctx that can be canceled
// gets a context with the timeout: for one that cannot — Done is nil, as
// for context.Background — the deadline rides the frame instead, as the
// budget the request carries anyway, counted from f.ReceivedAt, and
// nothing is built. Every wait on the call path honours it (CallDeadline).
func CallWithin(ctx context.Context, n Node, to string, f wire.Frame, timeout time.Duration) (wire.Frame, error) {
	if ctx.Done() != nil {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		return n.Call(ctx, to, f)
	}
	deadline := time.Now().Add(timeout)
	// The budget is whole milliseconds, and at least one even when the
	// time is up: the base makes budget and base add up to the deadline.
	f.Seq = wire.PackBudget(0, max(timeout, 1))
	budget, _ := f.Budget()
	f.ReceivedAt = deadline.Add(-budget)
	return n.Call(ctx, to, f)
}

// CallDeadline is the one deadline a call honours: ctx's if it has one,
// otherwise the frame's, which CallWithin set. A call without either is
// bounded by nothing but ctx's cancellation.
func CallDeadline(ctx context.Context, f *wire.Frame) (time.Time, bool) {
	if deadline, ok := ctx.Deadline(); ok {
		return deadline, true
	}
	return f.Deadline()
}

// Close implements Node. Calls after Close fail with ErrNodeClosed.
func (e *Endpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	return e.link.Close()
}

// Serve answers one received request with h and returns the reply, Seq
// echoed. waited is how long the request waited before dispatch, as the
// fabric measures it: one that waited its whole propagated budget has
// nobody waiting for its answer and is shed with overload.ErrDeadlinePast
// (counted in met). A handler error or panic becomes an error reply.
func Serve(h Handler, req wire.Frame, waited time.Duration, met *Metrics) wire.Frame {
	var reply wire.Frame
	if budget, ok := req.Budget(); ok && waited >= budget {
		met.DeadlineShed()
		reply = errorReply(req, fmt.Errorf(
			"%w: %v budget exhausted before dispatch", overload.ErrDeadlinePast, budget))
	} else if r, err := safeHandle(h, req); err != nil {
		reply = errorReply(req, err)
	} else {
		reply = r
	}
	reply.Seq = req.Seq
	return reply
}

func safeHandle(h Handler, req wire.Frame) (reply wire.Frame, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrHandlerPanic, r)
		}
	}()
	return h(req.From, req)
}

// errorReply encodes a handler error into a reply frame so the caller sees
// it as a typed wire.Error. Overload semantics survive the hop: errors
// wrapping overload.ErrOverloaded or overload.ErrDeadlinePast get their
// dedicated codes, which decodeErrorReply re-hydrates into the same
// sentinels on the caller's side.
func errorReply(req wire.Frame, err error) wire.Frame {
	code := overload.CodeFor(err)
	if code == "" {
		code = "handler"
	}
	return wire.BinaryFrame(wire.Kind(string(req.Kind)+".error"), req.To, req.From,
		&wire.Error{Code: code, Message: err.Error()})
}

// decodeErrorReply reports whether a reply frame carries a handler error,
// and decodes it if so.
func decodeErrorReply(req wire.Kind, reply wire.Frame) error {
	if reply.Kind != wire.Kind(string(req)+".error") {
		return nil
	}
	var werr wire.Error
	if err := werr.Decode(reply.Payload); err != nil {
		return fmt.Errorf("transport: undecodable error reply: %w", err)
	}
	if sentinel := overload.FromCode(werr.Code); sentinel != nil {
		// Surface the typed sentinel (not the bare *wire.Error) so
		// errors.Is(err, overload.ErrOverloaded) works across the hop
		// and retry loops treat the shed as transient, not as an
		// authoritative protocol verdict.
		return fmt.Errorf("%w: %s", sentinel, werr.Message)
	}
	return &werr
}
