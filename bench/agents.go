package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/naplet"
	"repro/internal/registry"
)

// Codebase names of the benchmark's own agents.
const (
	tourCodebase   = "bench.Tour"
	moverCodebase  = "bench.Mover"
	senderCodebase = "bench.Sender"
)

// State keys. Values stay inside string / int / []byte / []string, the
// types any state codec has to carry.
const (
	routeKey   = "bench.route"
	payloadKey = "bench.payload"
	countKey   = "bench.count"
	sumKey     = "bench.sum"
	sessionKey = "bench.session"
)

// Chase-session shape: the mover leaves each of its 8 stops after 8
// messages, so a sender posts 64 per session.
const (
	mailPerStop    = 8
	mailPerSession = mailPerStop * tourStops
	// reportTimeout bounds an agent's report home.
	reportTimeout = 2 * time.Second
	// landedSubject marks the note a mover posts to its sender from every
	// stop after the first.
	landedSubject = "landed"
)

// mailSum is the per-message contribution to the mover's checksum.
func mailSum(body []byte) int {
	h := fnv.New32a()
	h.Write(body)
	return int(h.Sum32())
}

// tourAgent appends every dock it lands on to its route state and reports
// the route from its last stop; the harness diffs it against the plan. The
// fixed payload key rides along untouched.
type tourAgent struct{}

func (tourAgent) OnStart(ctx *naplet.Context) error {
	var route []string
	_ = ctx.State().Load(routeKey, &route) // absent at the first stop
	return ctx.State().SetPrivate(routeKey, append(route, ctx.Server))
}

func (tourAgent) OnDestroy(ctx *naplet.Context) {
	var route []string
	_ = ctx.State().Load(routeKey, &route)
	rctx, cancel := context.WithTimeout(context.Background(), reportTimeout)
	defer cancel()
	_ = ctx.Listener.Report(rctx, []byte(strings.Join(route, ",")))
}

// moverAgent is the chased party: at each stop it receives mailPerStop
// messages and moves on. Mail in flight while it migrates can be lost on the
// seed (see README.md), so it tells the sender when its mailbox is open: it
// reports "ready" to the harness from its first stop, before the sender
// exists, and posts a "landed" note to the sender, whom it knows from the
// first message, from every later stop. At the end it reports
// "count:checksum" for the exactly-once check. A Receive that does not
// return within the request deadline traps it, which fails the session
// instead of blocking it.
type moverAgent struct{}

func (moverAgent) OnStart(ctx *naplet.Context) error {
	st := ctx.State()
	var count, sum int
	_ = st.Load(countKey, &count)
	_ = st.Load(sumKey, &sum)
	if senders := ctx.AddressBook().Entries(); len(senders) == 0 {
		rctx, cancel := context.WithTimeout(ctx.Cancel, reportTimeout)
		err := ctx.Listener.Report(rctx, []byte("ready"))
		cancel()
		if err != nil {
			return err
		}
	} else {
		pctx, cancel := context.WithTimeout(ctx.Cancel, requestDeadline)
		err := ctx.Messenger.Post(pctx, senders[0].NapletID, landedSubject, nil)
		cancel()
		if err != nil {
			return err
		}
	}
	for i := 0; i < mailPerStop; i++ {
		rctx, cancel := context.WithTimeout(ctx.Cancel, requestDeadline)
		msg, err := ctx.Messenger.Receive(rctx)
		cancel()
		if err != nil {
			return err
		}
		if count == 0 {
			ctx.AddressBook().Add(msg.From, ctx.Record.Home)
		}
		count++
		sum += mailSum(msg.Body)
	}
	if err := st.SetPrivate(countKey, count); err != nil {
		return err
	}
	return st.SetPrivate(sumKey, sum)
}

func (moverAgent) OnDestroy(ctx *naplet.Context) {
	var count, sum int
	_ = ctx.State().Load(countKey, &count)
	_ = ctx.State().Load(sumKey, &sum)
	rctx, cancel := context.WithTimeout(context.Background(), reportTimeout)
	defer cancel()
	_ = ctx.Listener.Report(rctx, []byte(fmt.Sprintf("%d:%d", count, sum)))
}

// chaseSession is what a stationary sender needs from the harness: whom to
// post to and where to record each post. The sender finds it by the session
// key in its state; the struct itself never travels.
type chaseSession struct {
	target id.NapletID
	hint   string
	mail   [][]byte
	rec    *recorder
	// posted and postErrs are counted by the sender and read by the
	// client, normally after the sender's life cycle has ended.
	posted, postErrs atomic.Int32
}

// settle closes the session's books once the client knows how many messages
// were lost: messages the sender never attempted are attempted-and-failed
// ops, and confirmed posts the mover did not receive exactly once are failed
// ops on top of the post errors the sender already recorded.
func (cs *chaseSession) settle(lost int) {
	unposted := mailPerSession - int(cs.posted.Load())
	unreceived := max(lost-unposted-int(cs.postErrs.Load()), 0)
	if unposted+unreceived > 0 {
		cs.rec.add(time.Now(), 0, unposted, unposted+unreceived)
	}
}

// senderAgent posts the session's mail from the home dock, timing each post
// to its confirmation: one post is one request. The mailPerStop posts of a
// stop go back to back; before the next stop's it waits for the mover's
// "landed" note, so no post is in flight while the mover migrates.
//
// sessions hands chaseSessions (by session key) to in-process senders.
type senderAgent struct{ sessions *sync.Map }

func (a senderAgent) OnStart(ctx *naplet.Context) error {
	var key string
	if err := ctx.State().Load(sessionKey, &key); err != nil {
		return err
	}
	v, ok := a.sessions.LoadAndDelete(key)
	if !ok {
		return fmt.Errorf("bench: sender has no session %q", key)
	}
	cs := v.(*chaseSession)
	ctx.AddressBook().Add(cs.target, cs.hint)
	for i, body := range cs.mail {
		if i > 0 && i%mailPerStop == 0 {
			rctx, cancel := context.WithTimeout(ctx.Cancel, requestDeadline)
			_, err := ctx.Messenger.Receive(rctx)
			cancel()
			if err != nil {
				return err // the rest stays unposted: failed ops at settle
			}
		}
		start := time.Now()
		pctx, cancel := context.WithTimeout(ctx.Cancel, requestDeadline)
		err := ctx.Messenger.Post(pctx, cs.target, "m", body)
		cancel()
		failed := 0
		if err != nil {
			failed = 1
			cs.postErrs.Add(1)
		}
		cs.posted.Add(1)
		cs.rec.add(start, time.Since(start), 1, failed)
	}
	return nil
}

// newAgentRegistry returns a registry holding the benchmark's codebases;
// senders find their chaseSession in ss.
func newAgentRegistry(ss *sync.Map) (*registry.Registry, error) {
	reg := registry.New()
	for _, cb := range []*registry.Codebase{
		{Name: tourCodebase, New: func() naplet.Behavior { return tourAgent{} }},
		{Name: moverCodebase, New: func() naplet.Behavior { return moverAgent{} }},
		{Name: senderCodebase, New: func() naplet.Behavior { return senderAgent{sessions: ss} }},
	} {
		if err := reg.Register(cb); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
