// Package transport abstracts the network under the naplet protocols.
//
// Every inter-server interaction in the system — landing negotiation, naplet
// transfer, directory registration, locator queries, post-office messages,
// service invocations — is a request/reply exchange of wire.Frames between
// named nodes. Two fabrics implement the abstraction:
//
//   - netsim.Network: an in-process simulated network with configurable
//     per-link latency, bandwidth and loss, which meters every byte. All
//     tests and experiments run on it.
//   - TCPFabric (this package): real TCP sockets, used by cmd/napletd for
//     multi-process deployments.
package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/overload"
	"repro/internal/telemetry"
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

// TCPFabric implements Fabric over real TCP sockets. Addresses are
// host:port strings. Calls to the same peer share one multiplexed
// connection: requests are written back-to-back tagged with sequence
// numbers, a single reader goroutine correlates replies by Seq, and the
// server handles pipelined requests concurrently — so N in-flight calls
// cost one connection and no per-call handshake.
type TCPFabric struct {
	mu    sync.Mutex
	nodes map[string]*tcpNode
	met   atomic.Pointer[Metrics]
}

// NewTCPFabric returns an empty TCP fabric.
func NewTCPFabric() *TCPFabric {
	return &TCPFabric{nodes: make(map[string]*tcpNode)}
}

// Instrument registers the fabric's traffic counters and per-kind call
// latency histograms in reg. Frames exchanged from then on are metered;
// call it before serving traffic for complete counts.
func (f *TCPFabric) Instrument(reg *telemetry.Registry) {
	f.met.Store(NewMetrics(reg))
}

// metrics returns the fabric's metrics, nil when uninstrumented.
func (f *TCPFabric) metrics() *Metrics { return f.met.Load() }

// Attach listens on addr and serves inbound frames with h. If addr has port
// 0 the system picks a free port; use the returned node's Addr for the
// actual address.
func (f *TCPFabric) Attach(addr string, h Handler) (Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &tcpNode{
		fabric:  f,
		addr:    ln.Addr().String(),
		ln:      ln,
		handler: h,
		muxes:   make(map[string]*muxConn),
		inbound: make(map[net.Conn]struct{}),
	}
	f.mu.Lock()
	if _, dup := f.nodes[n.addr]; dup {
		f.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, n.addr)
	}
	f.nodes[n.addr] = n
	f.mu.Unlock()
	go n.serve()
	return n, nil
}

// maxPipelinedPerConn bounds the requests a server handles concurrently on
// one inbound connection; further frames queue in the socket until a slot
// frees (natural backpressure).
const maxPipelinedPerConn = 64

type tcpNode struct {
	fabric  *TCPFabric
	addr    string
	ln      net.Listener
	handler Handler
	closed  atomic.Bool
	wg      sync.WaitGroup

	muxMu sync.Mutex
	muxes map[string]*muxConn

	inboundMu sync.Mutex
	inbound   map[net.Conn]struct{}

	seq atomic.Uint64
}

// callResult is one correlated reply (or the connection failure that ended
// the exchange).
type callResult struct {
	frame wire.Frame
	err   error
}

// muxConn is one shared, multiplexed connection to a peer. Many Calls
// write frames through it concurrently (serialized by writeMu, correlated
// by Seq); a single reader goroutine fans replies back out to the pending
// callers. Any read or write error fails the whole connection: every
// pending call errors and the next Call dials afresh.
type muxConn struct {
	node *tcpNode
	to   string
	conn net.Conn

	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]chan callResult
	closed  bool
	err     error
}

// isClosed reports whether the mux has failed.
func (mc *muxConn) isClosed() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.closed
}

// getMux returns the live shared connection to the peer, dialing one if
// needed. reused reports whether the mux pre-existed this call (a stale
// pre-existing connection justifies one retry).
func (n *tcpNode) getMux(ctx context.Context, to string) (*muxConn, bool, error) {
	n.muxMu.Lock()
	if mc := n.muxes[to]; mc != nil && !mc.isClosed() {
		n.muxMu.Unlock()
		return mc, true, nil
	}
	n.muxMu.Unlock()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, false, fmt.Errorf("%w: dial %s: %v", ErrUnknownPeer, to, err)
	}

	mc := &muxConn{
		node:    n,
		to:      to,
		conn:    conn,
		pending: make(map[uint64]chan callResult),
	}
	n.muxMu.Lock()
	if cur := n.muxes[to]; cur != nil && !cur.isClosed() {
		// Lost a dial race; use the winner.
		n.muxMu.Unlock()
		conn.Close()
		return cur, true, nil
	}
	n.muxes[to] = mc
	n.muxMu.Unlock()
	go mc.readLoop()
	return mc, false, nil
}

// readLoop is the mux's single reader: it correlates every inbound reply
// to its pending caller by sequence number.
func (mc *muxConn) readLoop() {
	for {
		reply, err := wire.ReadFrame(mc.conn)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("transport: %s closed connection", mc.to)
			} else {
				err = fmt.Errorf("transport: read reply from %s: %w", mc.to, err)
			}
			mc.fail(err)
			return
		}
		mc.mu.Lock()
		ch := mc.pending[reply.Seq]
		delete(mc.pending, reply.Seq)
		mc.mu.Unlock()
		if ch != nil {
			ch <- callResult{frame: reply}
		} else {
			// A reply nobody waits for: its caller timed out or was
			// canceled and withdrew the correlation entry. The frame is
			// dropped — the connection stays healthy for the other
			// in-flight calls — but the drop is counted, because a
			// steady late-reply rate means callers' budgets are tighter
			// than the peer's service time.
			mc.node.fabric.metrics().LateReply()
		}
	}
}

// fail closes the mux: the connection is unregistered, closed, and every
// pending call receives err.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.closed {
		mc.mu.Unlock()
		return
	}
	mc.closed = true
	mc.err = err
	pending := mc.pending
	mc.pending = nil
	mc.mu.Unlock()

	mc.node.muxMu.Lock()
	if mc.node.muxes[mc.to] == mc {
		delete(mc.node.muxes, mc.to)
	}
	mc.node.muxMu.Unlock()
	mc.conn.Close()
	for _, ch := range pending {
		ch <- callResult{err: err}
	}
}

// roundTrip sends one frame on the mux and waits for its correlated reply.
func (mc *muxConn) roundTrip(ctx context.Context, f wire.Frame) (wire.Frame, error) {
	ch := make(chan callResult, 1)
	mc.mu.Lock()
	if mc.closed {
		err := mc.err
		mc.mu.Unlock()
		return wire.Frame{}, err
	}
	mc.pending[f.Seq] = ch
	mc.mu.Unlock()

	mc.writeMu.Lock()
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		mc.conn.SetWriteDeadline(deadline)
	} else {
		mc.conn.SetWriteDeadline(time.Time{})
	}
	// A cancelable but deadline-free context needs its own escape hatch:
	// with no write deadline armed, a stalled peer (full socket buffers,
	// reader wedged) would block WriteFrame forever and cancellation
	// could never interrupt it. Watch ctx.Done for the duration of the
	// write and yank the deadline into the past to abort it. The
	// done-handshake makes the watcher quiesce before the deadline is
	// reset — still under writeMu — so a poisoned deadline can never
	// leak into the next caller's write.
	var stop, watcherDone chan struct{}
	if !hasDeadline && ctx.Done() != nil {
		stop = make(chan struct{})
		watcherDone = make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-ctx.Done():
				mc.conn.SetWriteDeadline(time.Now())
			case <-stop:
			}
		}()
	}
	err := wire.WriteFrame(mc.conn, f)
	if stop != nil {
		close(stop)
		<-watcherDone
		mc.conn.SetWriteDeadline(time.Time{})
	}
	mc.writeMu.Unlock()
	if err != nil {
		mc.fail(fmt.Errorf("transport: write to %s: %w", mc.to, err))
		// fail delivered the write error (or an earlier one) to ch.
	}

	select {
	case res := <-ch:
		return res.frame, res.err
	case <-ctx.Done():
		mc.mu.Lock()
		delete(mc.pending, f.Seq)
		mc.mu.Unlock()
		return wire.Frame{}, fmt.Errorf("transport: call %s: %w", mc.to, ctx.Err())
	}
}

// drainMuxes fails every shared outbound connection.
func (n *tcpNode) drainMuxes() {
	n.muxMu.Lock()
	muxes := make([]*muxConn, 0, len(n.muxes))
	for _, mc := range n.muxes {
		muxes = append(muxes, mc)
	}
	n.muxMu.Unlock()
	for _, mc := range muxes {
		mc.fail(ErrNodeClosed)
	}
}

func (n *tcpNode) Addr() string { return n.addr }

func (n *tcpNode) serve() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.inboundMu.Lock()
		n.inbound[conn] = struct{}{}
		n.inboundMu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				conn.Close()
				n.inboundMu.Lock()
				delete(n.inbound, conn)
				n.inboundMu.Unlock()
			}()
			n.serveConn(conn)
		}()
	}
}

// closeInbound force-closes connections peers are keeping alive in their
// pools, so Close does not wait on idle keep-alives.
func (n *tcpNode) closeInbound() {
	n.inboundMu.Lock()
	defer n.inboundMu.Unlock()
	for c := range n.inbound {
		c.Close()
	}
}

// readBufPool recycles per-request read buffers across connections and
// requests, so steady-state serving reads without allocating even though
// requests on one connection are handled concurrently.
var readBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// serveConn handles a pipelined request/reply stream: the read loop pulls
// frames off the socket as fast as they arrive and hands each to its own
// handler goroutine, so a slow request does not stall the ones queued
// behind it. Replies are written as handlers finish — possibly out of
// request order — and the client's mux reorders by Seq. A semaphore bounds
// per-connection concurrency; each request reads into a pooled buffer that
// returns to the pool only after its handler finishes and the reply is
// written, which preserves the Handler payload-aliasing contract.
func (n *tcpNode) serveConn(conn net.Conn) {
	var (
		writeMu sync.Mutex
		handled sync.WaitGroup
		sem     = make(chan struct{}, maxPipelinedPerConn)
	)
	defer handled.Wait()
	for {
		bufp := readBufPool.Get().(*[]byte)
		req, grown, err := wire.ReadFrameReuse(conn, *bufp)
		if err != nil {
			readBufPool.Put(bufp)
			return // EOF or broken peer
		}
		*bufp = grown
		req.ReceivedAt = time.Now()
		met := n.fabric.metrics()
		met.Recv(&req)
		sem <- struct{}{}
		handled.Add(1)
		go func() {
			defer func() {
				readBufPool.Put(bufp)
				<-sem
				handled.Done()
			}()
			var reply wire.Frame
			if req.BudgetExpired(time.Now()) {
				// The caller's propagated budget ran out while the frame
				// sat in the socket or the pipeline semaphore: nobody is
				// waiting for this answer, so shed it instead of burning
				// handler time on it.
				met.DeadlineShed()
				budget, _ := req.Budget()
				reply = ErrorReply(req, fmt.Errorf(
					"%w: %v budget exhausted before dispatch", overload.ErrDeadlinePast, budget))
			} else if r, herr := n.safeHandle(req); herr != nil {
				reply = ErrorReply(req, herr)
			} else {
				reply = r
			}
			reply.Seq = req.Seq
			writeMu.Lock()
			err = wire.WriteFrame(conn, reply)
			writeMu.Unlock()
			if err == nil {
				met.Sent(&reply)
			}
		}()
	}
}

func (n *tcpNode) safeHandle(req wire.Frame) (reply wire.Frame, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrHandlerPanic, r)
		}
	}()
	return n.handler(req.From, req)
}

// ErrorReply encodes a handler error into a reply frame so the caller sees
// it as a typed wire.Error. Both fabrics (TCP and netsim) use it. Overload
// semantics survive the hop: errors wrapping overload.ErrOverloaded or
// overload.ErrDeadlinePast get their dedicated codes, which IsErrorReply
// re-hydrates into the same sentinels on the caller's side.
func ErrorReply(req wire.Frame, err error) wire.Frame {
	code := overload.CodeFor(err)
	if code == "" {
		code = "handler"
	}
	return wire.BinaryFrame(wire.Kind(string(req.Kind)+".error"), req.To, req.From,
		&wire.Error{Code: code, Message: err.Error()})
}

// IsErrorReply reports whether a reply frame carries a handler error, and
// decodes it if so.
func IsErrorReply(req wire.Kind, reply wire.Frame) error {
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

func (n *tcpNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	if n.closed.Load() {
		return wire.Frame{}, ErrNodeClosed
	}
	f.From = n.addr
	f.To = to
	f.Seq = n.seq.Add(1)
	if deadline, ok := ctx.Deadline(); ok {
		// Propagate the caller's remaining budget in the Seq high bits
		// (see wire.PackBudget) so the server can shed work whose
		// caller will have given up by the time an answer could arrive.
		f.Seq = wire.PackBudget(f.Seq, time.Until(deadline))
	}

	met := n.fabric.metrics()
	start := time.Time{}
	if met != nil {
		start = time.Now()
	}
	reply, reused, err := n.exchange(ctx, to, f)
	if err != nil && reused && ctx.Err() == nil {
		// The shared connection had gone stale (peer closed it while
		// idle); one retry dials a fresh one.
		reply, _, err = n.exchange(ctx, to, f)
	}
	if err != nil {
		met.CallError()
		return wire.Frame{}, err
	}
	if met != nil {
		met.Sent(&f)
		met.Recv(&reply)
		met.ObserveCall(f.Kind, time.Since(start))
	}
	if werr := IsErrorReply(f.Kind, reply); werr != nil {
		return reply, werr
	}
	return reply, nil
}

// exchange performs one request/reply over the peer's shared mux.
func (n *tcpNode) exchange(ctx context.Context, to string, f wire.Frame) (wire.Frame, bool, error) {
	mc, reused, err := n.getMux(ctx, to)
	if err != nil {
		return wire.Frame{}, reused, err
	}
	reply, err := mc.roundTrip(ctx, f)
	return reply, reused, err
}

func (n *tcpNode) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	n.fabric.mu.Lock()
	delete(n.fabric.nodes, n.addr)
	n.fabric.mu.Unlock()
	n.drainMuxes()
	err := n.ln.Close()
	n.closeInbound()
	n.wg.Wait()
	return err
}
