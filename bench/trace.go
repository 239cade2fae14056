package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// span is one traced interval. Times are nanoseconds since the trace began.
// A request span is a root; a call's parent is the request whose interval
// contains it; a handler's parent is the call with the same (from, to, kind)
// that contains it. A span nothing contains is a root of its own.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"` // request, call or handler
	Kind   string `json:"kind,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	// BytesOut and BytesIn are the encoded request and reply sizes of a call.
	BytesOut int   `json:"bytes_out,omitempty"`
	BytesIn  int   `json:"bytes_in,omitempty"`
	Start    int64 `json:"start_ns"`
	End      int64 `json:"end_ns"`
	// Self is the span's duration minus the part its children cover.
	Self int64  `json:"self_ns"`
	Err  string `json:"err,omitempty"`
}

// maxTraceFileSpans caps the spans written to a trace file (the earliest
// ones); the metrics are computed from every span recorded.
const maxTraceFileSpans = 100000

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) contains(o *span) bool { return s.Start <= o.Start && o.End <= s.End }

// tracer records the traced window from the benchmark's own files: spans
// from the fabric decorator and the driver, nav-log events from every dock's
// event sink, hop spans from every dock's hop tracer, and the frames the
// ledger replays. Everything stays in memory until the window ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// on gates recording: the warm-up before the traced window and the
	// teardown after it leave no spans.
	on atomic.Bool

	mu       sync.Mutex
	idle     *sync.Cond
	inflight int
	spans    []span
	events   []server.Event
	hops     []telemetry.HopSpan

	// The largest frame of any kind, the largest naplet transfer and the
	// largest post seen: the ledger's inputs.
	largest, transfer, post wire.Frame
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.idle = sync.NewCond(&t.mu)
	return t
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	s.ID = t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// quiesce blocks until no traced call is in flight.
func (t *tracer) quiesce() {
	t.mu.Lock()
	for t.inflight > 0 {
		t.idle.Wait()
	}
	t.mu.Unlock()
}

// keep remembers f when it is the largest of its class seen so far.
func (t *tracer) keep(f *wire.Frame) {
	if !t.on.Load() {
		return
	}
	size := f.EncodedSize()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, slot := range []*wire.Frame{&t.largest, t.slotFor(f.Kind)} {
		if slot != nil && size > slot.EncodedSize() {
			*slot = *f
			slot.Payload = append([]byte(nil), f.Payload...)
		}
	}
}

func (t *tracer) slotFor(k wire.Kind) *wire.Frame {
	switch k {
	case wire.KindNapletTransfer:
		return &t.transfer
	case wire.KindPost:
		return &t.post
	}
	return nil
}

// wrap is the fabric decorator (the fault.Injector.Fabric pattern): every
// node attached through it records a span per outbound Call and a span
// around its handler.
func (t *tracer) wrap(inner transport.Fabric) transport.Fabric {
	return &tracedFabric{t: t, inner: inner}
}

type tracedFabric struct {
	t     *tracer
	inner transport.Fabric
}

// Attach implements transport.Fabric.
func (f *tracedFabric) Attach(addr string, h transport.Handler) (transport.Node, error) {
	t := f.t
	n, err := f.inner.Attach(addr, func(from string, fr wire.Frame) (wire.Frame, error) {
		start := time.Now()
		reply, err := h(from, fr)
		t.record(span{Name: "handler", Kind: kindName(fr.Kind), From: from, To: fr.To,
			Start: t.since(start), End: t.since(time.Now()), Err: errText(err)})
		return reply, err
	})
	if err != nil {
		return nil, err
	}
	return &tracedNode{t: t, inner: n}, nil
}

type tracedNode struct {
	t     *tracer
	inner transport.Node
}

func (n *tracedNode) Addr() string { return n.inner.Addr() }
func (n *tracedNode) Close() error { return n.inner.Close() }

// Call implements transport.Node, recording the call's span.
func (n *tracedNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	t := n.t
	f.From, f.To = n.inner.Addr(), to
	t.keep(&f)
	t.mu.Lock()
	t.inflight++
	t.mu.Unlock()
	start := time.Now()
	reply, err := n.inner.Call(ctx, to, f)
	end := time.Now()
	if err == nil {
		t.keep(&reply)
	}
	t.record(span{Name: "call", Kind: kindName(f.Kind), From: f.From, To: to,
		BytesOut: f.EncodedSize(), BytesIn: reply.EncodedSize(),
		Start: t.since(start), End: t.since(end), Err: errText(err)})
	t.mu.Lock()
	if t.inflight--; t.inflight == 0 {
		t.idle.Broadcast()
	}
	t.mu.Unlock()
	return reply, err
}

// kindNames caches the printed form of frame kinds, so that naming a span
// does not allocate.
var kindNames sync.Map // wire.Kind -> string

func kindName(k wire.Kind) string {
	if name, ok := kindNames.Load(k); ok {
		return name.(string)
	}
	name := fmt.Sprint(k)
	kindNames.Store(k, name)
	return name
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// attach subscribes to every dock's nav-log events and hop spans.
func (t *tracer) attach(fl *fleet) {
	for _, s := range fl.servers() {
		s.SetEventSink(func(e server.Event) {
			if t.on.Load() {
				t.mu.Lock()
				t.events = append(t.events, e)
				t.mu.Unlock()
			}
		})
		s.Tracer().SetSink(func(h telemetry.HopSpan) {
			if t.on.Load() {
				t.mu.Lock()
				t.hops = append(t.hops, h)
				t.mu.Unlock()
			}
		})
	}
}

// root opens a request's root span. The returned func closes it once the
// naplet's life cycle has ended at home (when nid is known) and no traced
// call is in flight, so the trailing status reports of a request fall inside
// its own span and not the next request's.
func (t *tracer) root() func(home *server.Server, nid id.NapletID) {
	start := time.Now()
	return func(home *server.Server, nid id.NapletID) {
		if !nid.IsZero() {
			ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
			_, _ = home.WaitDone(ctx, nid)
			cancel()
		}
		t.quiesce()
		t.record(span{Name: "request", Start: t.since(start), End: t.since(time.Now())})
	}
}

// link assigns parents and self times. Requests come from a single client,
// so they do not overlap and a binary search finds the one containing a call.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	var roots []*span
	calls := map[string][]*span{} // (from, to, kind) -> calls by start
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.dur()
		switch s.Name {
		case "request":
			roots = append(roots, s)
		case "call":
			key := s.From + "|" + s.To + "|" + s.Kind
			calls[key] = append(calls[key], s)
		}
	}
	// covered[root] accumulates the union of its calls' intervals.
	type cover struct{ until, total int64 }
	covered := map[int64]*cover{}
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "call":
			j := sort.Search(len(roots), func(j int) bool { return roots[j].Start > s.Start }) - 1
			if j < 0 || !roots[j].contains(s) {
				continue
			}
			r := roots[j]
			s.Parent = r.ID
			c := covered[r.ID]
			if c == nil {
				c = &cover{until: r.Start}
				covered[r.ID] = c
			}
			if s.End > c.until {
				c.total += s.End - max(s.Start, c.until)
				c.until = s.End
			}
		case "handler":
			cs := calls[s.From+"|"+s.To+"|"+s.Kind]
			// The latest call starting at or before the handler that
			// still contains it is the tightest fit.
			for j := sort.Search(len(cs), func(j int) bool { return cs[j].Start > s.Start }) - 1; j >= 0; j-- {
				if cs[j].contains(s) && cs[j].Self == cs[j].dur() {
					s.Parent = cs[j].ID
					cs[j].Self -= s.dur()
					break
				}
			}
		}
	}
	for _, r := range roots {
		if c := covered[r.ID]; c != nil {
			r.Self -= c.total
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans[:min(len(t.spans), maxTraceFileSpans)] {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mean is a running average in microseconds of nanosecond observations.
type mean struct {
	sum   float64
	count int
}

func (m *mean) add(ns int64) { m.sum += float64(ns); m.count++ }

func (m *mean) us() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count) / 1e3
}

// spanValues derives the span-based per-layer metrics for ops verified ops.
func (t *tracer) spanValues(fl *fleet, ops int) map[string]float64 {
	var landing, transfer, report, post, dirHandler, fabric mean
	calls, reports := 0, 0
	handlers := map[int64]int64{} // call id -> its handler's duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "handler" {
			continue
		}
		if s.Parent != 0 {
			handlers[s.Parent] = s.dur()
		}
		switch s.Kind {
		case kindName(wire.KindLandingRequest):
			landing.add(s.dur())
		case kindName(wire.KindNapletTransfer):
			transfer.add(s.dur())
		case kindName(wire.KindReport):
			report.add(s.dur())
		case kindName(wire.KindPost):
			post.add(s.dur())
		}
		if s.To == fl.dirAddr {
			dirHandler.add(s.dur())
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "call" {
			continue
		}
		calls++
		if s.Kind == kindName(wire.KindReport) {
			reports++
		}
		if h, ok := handlers[s.ID]; ok {
			fabric.add(s.dur() - h)
		}
	}
	perOp := func(n int) float64 {
		if ops == 0 {
			return 0
		}
		return float64(n) / float64(ops)
	}
	return map[string]float64{
		"navigator.landing_handler_us":  landing.us(),
		"navigator.transfer_handler_us": transfer.us(),
		"server.report_handler_us":      report.us(),
		"server.reports_per_op":         perOp(reports),
		"messenger.post_handler_us":     post.us(),
		"directory.handler_us":          dirHandler.us(),
		"transport.fabric_us_per_call":  fabric.us(),
		"transport.calls_per_op":        perOp(calls),
	}
}

// journeyValues derives the hop-span and nav-log metrics. server.visit_us
// is a naplet's arrival event at a dock to the start of its next dispatch
// there (or its completion, at the last stop); server.flight_us is that
// dispatch start to the arrival event at the next dock. The depart event
// itself fires after the destination's acknowledgement, so it cannot bound a
// flight.
func (t *tracer) journeyValues() map[string]float64 {
	var serialize, negotiate, xfer, visit, flight mean
	arrived := map[string]time.Time{} // naplet|server -> arrival
	for _, e := range t.events {
		if e.Kind == "arrival" {
			arrived[e.Naplet+"|"+e.To] = e.At
		}
	}
	for _, e := range t.events {
		if at, ok := arrived[e.Naplet+"|"+e.From]; ok && e.Kind == "complete" {
			visit.add(int64(e.At.Sub(at)))
		}
	}
	for _, h := range t.hops {
		if h.Outcome != telemetry.OutcomeOK {
			continue
		}
		serialize.add(int64(h.Serialize))
		negotiate.add(int64(h.Negotiation))
		xfer.add(int64(h.Transfer))
		if at, ok := arrived[h.Naplet+"|"+h.From]; ok {
			visit.add(int64(h.Start.Sub(at)))
		}
		if at, ok := arrived[h.Naplet+"|"+h.To]; ok {
			flight.add(int64(at.Sub(h.Start)))
		}
	}
	return map[string]float64{
		"navigator.serialize_us": serialize.us(),
		"navigator.negotiate_us": negotiate.us(),
		"navigator.transfer_us":  xfer.us(),
		"server.visit_us":        visit.us(),
		"server.flight_us":       flight.us(),
	}
}
