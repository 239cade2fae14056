package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TCPFabric implements Fabric over real TCP sockets. Addresses are
// host:port strings. Calls to the same peer share one multiplexed
// connection: requests are written back-to-back tagged with sequence
// numbers, a single reader goroutine correlates replies by Seq, and the
// server hands pipelined requests to the connection's workers, which
// handle them concurrently — so N in-flight calls cost one connection and
// no per-call handshake. A warm call allocates no hand-off of its own:
// reply slots are pooled, workers outlive their requests, and each
// connection's wire.Reader reuses the peer's names. An address already in
// use fails Attach in the listen.
type TCPFabric struct {
	met atomic.Pointer[Metrics]
}

// NewTCPFabric returns an empty TCP fabric.
func NewTCPFabric() *TCPFabric { return &TCPFabric{} }

// Instrument registers the fabric's traffic counters and per-kind call
// latency histograms in reg. Frames exchanged from then on are metered;
// call it before serving traffic for complete counts.
func (f *TCPFabric) Instrument(reg *telemetry.Registry) {
	f.met.Store(NewMetrics(reg))
}

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
		ln:      ln,
		handler: h,
		muxes:   make(map[string]*muxConn),
		inbound: make(map[net.Conn]struct{}),
	}
	go n.serve()
	return NewEndpoint(ln.Addr().String(), n, &f.met), nil
}

// maxPipelinedPerConn bounds the requests a server handles concurrently on
// one inbound connection — the workers it runs for it; further frames queue
// in the socket until a worker frees (natural backpressure).
const maxPipelinedPerConn = 64

type tcpNode struct {
	fabric  *TCPFabric
	ln      net.Listener
	handler Handler
	wg      sync.WaitGroup

	muxMu sync.Mutex
	muxes map[string]*muxConn

	inboundMu sync.Mutex
	inbound   map[net.Conn]struct{}
}

// callResult is one correlated reply (or the connection failure that ended
// the exchange).
type callResult struct {
	frame wire.Frame
	err   error
}

// replySlot is what a call waits on: the one-slot channel its reply comes
// in, and the timer that ends the wait at a deadline only the frame carries
// (CallWithin). Both are recycled with the slot.
type replySlot struct {
	ch    chan callResult
	timer *time.Timer
}

// arm starts the slot's timer for d and returns its channel.
func (s *replySlot) arm(d time.Duration) <-chan time.Time {
	if s.timer == nil {
		s.timer = time.NewTimer(d)
	} else {
		s.timer.Reset(d)
	}
	return s.timer.C
}

// disarm stops the timer and drains a tick it already sent, so the next
// call that arms it waits the whole of its own time: with the pre-1.23
// timer semantics go.mod selects, a stopped timer keeps a sent tick.
func (s *replySlot) disarm() {
	if s.timer != nil && !s.timer.Stop() {
		select {
		case <-s.timer.C:
		default:
		}
	}
}

// replySlots recycles reply slots. A slot goes back only once nothing can
// send to it any more: after its reply was received, or after a call that
// gave up took it out of pending itself. A slot readLoop or fail took out
// of pending may still be sent to, so a call that gives up on one leaves
// it to the GC and a stale reply never reaches a later call.
var replySlots = sync.Pool{New: func() any { return &replySlot{ch: make(chan callResult, 1)} }}

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
func (n *tcpNode) getMux(ctx context.Context, deadline time.Time, to string) (*muxConn, bool, error) {
	n.muxMu.Lock()
	if mc := n.muxes[to]; mc != nil && !mc.isClosed() {
		n.muxMu.Unlock()
		return mc, true, nil
	}
	n.muxMu.Unlock()

	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		// A dial that never connected delivered nothing, whatever ended it;
		// one the call's own time or context cut short ends as that too.
		switch {
		case ctx.Err() != nil:
			return nil, false, fmt.Errorf("%w: dial %s: %w", ErrUnknownPeer, to, ctx.Err())
		case !deadline.IsZero() && !time.Now().Before(deadline):
			return nil, false, fmt.Errorf("%w: dial %s: %w", ErrUnknownPeer, to, context.DeadlineExceeded)
		}
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
	rd := wire.NewReader(mc.conn)
	for {
		// A nil scratch: the reply's payload goes to its caller to keep.
		reply, _, err := rd.Next(nil)
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
			mc.node.fabric.met.Load().LateReply()
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

// roundTrip sends one frame on the mux and waits for its correlated reply,
// until ctx ends or deadline (zero for none) passes.
func (mc *muxConn) roundTrip(ctx context.Context, deadline time.Time, f wire.Frame) (wire.Frame, error) {
	slot := replySlots.Get().(*replySlot)
	mc.mu.Lock()
	if mc.closed {
		err := mc.err
		mc.mu.Unlock()
		replySlots.Put(slot)
		return wire.Frame{}, err
	}
	mc.pending[f.Seq] = slot.ch
	mc.mu.Unlock()

	mc.writeMu.Lock()
	mc.conn.SetWriteDeadline(deadline)
	// A cancelable but deadline-free call needs its own escape hatch:
	// with no write deadline armed, a stalled peer (full socket buffers,
	// reader wedged) would block WriteFrame forever and cancellation
	// could never interrupt it. Watch ctx.Done for the duration of the
	// write and yank the deadline into the past to abort it. The
	// done-handshake makes the watcher quiesce before the deadline is
	// reset — still under writeMu — so a poisoned deadline can never
	// leak into the next caller's write. Hop and post calls carry a
	// deadline, so the watcher stays off their path.
	var stop, watcherDone chan struct{}
	if deadline.IsZero() && ctx.Done() != nil {
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
	n, err := wire.WriteFrame(mc.conn, f)
	if stop != nil {
		close(stop)
		<-watcherDone
		mc.conn.SetWriteDeadline(time.Time{})
	}
	mc.writeMu.Unlock()
	switch {
	case err == nil:
	case n == 0 && errors.Is(err, os.ErrDeadlineExceeded):
		// The call's time ran out before a byte of its frame left: the
		// stream is intact for the calls sharing it, and this one ends at
		// its deadline below.
	default:
		mc.fail(fmt.Errorf("transport: write to %s: %w", mc.to, err))
		// fail delivered the write error (or an earlier one) to the slot.
	}

	// A deadline ctx carries ends the wait through ctx.Done; one only the
	// frame carries, through the slot's timer.
	var expired <-chan time.Time
	if _, own := ctx.Deadline(); !own && !deadline.IsZero() {
		expired = slot.arm(time.Until(deadline))
	}
	var cause error
	select {
	case res := <-slot.ch:
		slot.disarm()
		replySlots.Put(slot)
		return res.frame, res.err
	case <-ctx.Done():
		cause = ctx.Err()
	case <-expired:
		cause = context.DeadlineExceeded
	}
	slot.disarm()
	mc.mu.Lock()
	withdrawn := mc.pending[f.Seq] == slot.ch
	if withdrawn {
		delete(mc.pending, f.Seq)
	}
	mc.mu.Unlock()
	if withdrawn {
		replySlots.Put(slot)
	}
	return wire.Frame{}, fmt.Errorf("transport: call %s: %w", mc.to, cause)
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

// request is one frame read off an inbound connection, with the pooled
// buffer its payload aliases.
type request struct {
	frame wire.Frame
	buf   *[]byte
}

// serveConn handles a pipelined request/reply stream: the read loop pulls
// frames off the socket as fast as they arrive and hands each to an idle
// worker of the connection, so a slow request does not stall the ones
// queued behind it. A new worker starts only when none is idle, up to
// maxPipelinedPerConn; past that the read loop waits for one to free, and
// further frames queue in the socket. Workers live as long as the
// connection, so a warm request starts no goroutine. Replies are written
// as handlers finish — possibly out of request order — and the client's
// mux reorders by Seq. Each request reads into a pooled buffer that
// returns to the pool only after its handler finishes and the reply is
// written, which preserves the Handler payload-aliasing contract.
func (n *tcpNode) serveConn(conn net.Conn) {
	var (
		writeMu sync.Mutex
		workers sync.WaitGroup
		started int
		work    = make(chan request)
	)
	defer func() {
		close(work)
		workers.Wait()
	}()
	rd := wire.NewReader(conn)
	for {
		bufp := readBufPool.Get().(*[]byte)
		frame, grown, err := rd.Next(*bufp)
		if err != nil {
			readBufPool.Put(bufp)
			return // EOF or broken peer
		}
		*bufp = grown
		frame.ReceivedAt = time.Now()
		n.fabric.met.Load().Recv(&frame)
		req := request{frame: frame, buf: bufp}
		select {
		case work <- req: // an idle worker took it
		default:
			if started == maxPipelinedPerConn {
				work <- req // every worker is busy: wait for one
				continue
			}
			started++
			workers.Add(1)
			go func(first request) {
				defer workers.Done()
				n.handle(conn, &writeMu, first)
				for req := range work {
					n.handle(conn, &writeMu, req)
				}
			}(req)
		}
	}
}

// handle answers one request on conn and writes the reply under writeMu.
func (n *tcpNode) handle(conn net.Conn, writeMu *sync.Mutex, req request) {
	defer readBufPool.Put(req.buf)
	met := n.fabric.met.Load()
	// The wait Serve weighs against the budget is the frame's time in the
	// pipeline — waiting for a worker — since it came off the socket.
	reply := Serve(n.handler, req.frame, time.Since(req.frame.ReceivedAt), met)
	writeMu.Lock()
	_, err := wire.WriteFrame(conn, reply)
	writeMu.Unlock()
	if err == nil {
		met.Sent(&reply)
	}
}

// Move implements Link over the peer's shared mux. A mux that had gone
// stale (the peer closed it while idle) earns one retry on a fresh dial;
// a call whose time is up does not, for its request may have run.
func (n *tcpNode) Move(ctx context.Context, deadline time.Time, f wire.Frame) (wire.Frame, error) {
	for retried := false; ; retried = true {
		mc, reused, err := n.getMux(ctx, deadline, f.To)
		if err != nil {
			return wire.Frame{}, err
		}
		reply, err := mc.roundTrip(ctx, deadline, f)
		if err == nil || !reused || retried || ctx.Err() != nil ||
			!deadline.IsZero() && !time.Now().Before(deadline) {
			return reply, err
		}
	}
}

// Close implements Link.
func (n *tcpNode) Close() error {
	n.drainMuxes()
	err := n.ln.Close()
	n.closeInbound()
	n.wg.Wait()
	return err
}
