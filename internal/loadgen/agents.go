package loadgen

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/id"
	"repro/internal/naplet"
	"repro/internal/registry"
)

// Codebase names of the load-generation agents.
const (
	TourCodebase   = "loadgen.Tour"
	MoverCodebase  = "loadgen.Mover"
	SenderCodebase = "loadgen.Sender"
)

// State keys.
const (
	visitedKey = "loadgen.visited"
	expectKey  = "loadgen.expect"
	gotKey     = "loadgen.got"
	targetKey  = "loadgen.target"
	countKey   = "loadgen.count"
	paceKey    = "loadgen.paceMs"
	hintKey    = "loadgen.hint"
)

// RegisterCodebases registers the loadgen agents in reg (idempotent per
// registry; a second registration errors and is reported).
func RegisterCodebases(reg *registry.Registry) error {
	for _, cb := range []*registry.Codebase{
		{Name: TourCodebase, New: func() naplet.Behavior { return tourAgent{} }},
		{Name: MoverCodebase, New: func() naplet.Behavior { return moverAgent{} }},
		{Name: SenderCodebase, New: func() naplet.Behavior { return senderAgent{} }},
	} {
		if err := reg.Register(cb); err != nil {
			return err
		}
	}
	return nil
}

// tourAgent appends every server it lands on to its state and reports the
// full trace on destruction. A lost hop, a double landing, or a ghost
// clone corrupts the trace — the harness diffs it against the plan.
type tourAgent struct{}

func (tourAgent) OnStart(ctx *naplet.Context) error {
	var visited []string
	ctx.State().Load(visitedKey, &visited) // absent on the first visit
	visited = append(visited, ctx.Server)
	return ctx.State().SetPrivate(visitedKey, visited)
}

// OnDestroy reports the trace. A report made here cannot fail: it goes home
// with the naplet's end, which is retried and recorded once.
func (tourAgent) OnDestroy(ctx *naplet.Context) {
	var visited []string
	ctx.State().Load(visitedKey, &visited)
	ctx.Listener.Report(context.Background(), []byte(strings.Join(visited, ",")))
}

// moverAgent drains its mailbox at every stop until it has received
// `expect` messages across the whole tour, then reports "count:subjects".
// The chase-storm invariant: every subject exactly once, however many
// forwarding hops the post office needed to catch the mover mid-flight.
type moverAgent struct{}

func (moverAgent) OnStart(ctx *naplet.Context) error {
	var expect int
	if err := ctx.State().Load(expectKey, &expect); err != nil {
		return err
	}
	var got []string
	ctx.State().Load(gotKey, &got) // absent on the first visit
	last := ctx.Itinerary().Done()
	deadline := time.After(20 * time.Millisecond)
	for {
		if last && len(got) >= expect {
			break
		}
		if msg, ok := ctx.Messenger.TryReceive(); ok {
			got = append(got, msg.Subject)
			continue
		}
		if last {
			msg, err := ctx.Messenger.Receive(ctx.Cancel)
			if err != nil {
				return err
			}
			got = append(got, msg.Subject)
			continue
		}
		select {
		case <-deadline:
			return ctx.State().SetPrivate(gotKey, got)
		case <-time.After(time.Millisecond):
		}
	}
	return ctx.State().SetPrivate(gotKey, got)
}

// OnDestroy reports what arrived; like the tour's, the report travels with
// the end and cannot fail.
func (moverAgent) OnDestroy(ctx *naplet.Context) {
	var got []string
	ctx.State().Load(gotKey, &got)
	body := fmt.Sprintf("%d:%s", len(got), strings.Join(got, ","))
	ctx.Listener.Report(context.Background(), []byte(body))
}

// senderAgent posts `count` uniquely-tagged messages at its target,
// retrying transient routing failures — the target is mid-flight by
// design, so the first attempts race its migrations.
type senderAgent struct{}

func (senderAgent) OnStart(ctx *naplet.Context) error {
	var targetStr, hint string
	var count, paceMs int
	if err := ctx.State().Load(targetKey, &targetStr); err != nil {
		return err
	}
	if err := ctx.State().Load(countKey, &count); err != nil {
		return err
	}
	ctx.State().Load(hintKey, &hint)
	ctx.State().Load(paceKey, &paceMs)
	target, err := id.Parse(targetStr)
	if err != nil {
		return err
	}
	ctx.AddressBook().Add(target, hint)
	for i := 0; i < count; i++ {
		if paceMs > 0 && i > 0 {
			select {
			case <-time.After(time.Duration(paceMs) * time.Millisecond):
			case <-ctx.Cancel.Done():
				return ctx.Cancel.Err()
			}
		}
		subject := fmt.Sprintf("m%d", i)
		for attempt := 0; ; attempt++ {
			err := ctx.Messenger.Post(ctx.Cancel, target, subject, nil)
			if err == nil {
				break
			}
			if attempt > 80 {
				return fmt.Errorf("loadgen sender: message %s undeliverable: %w", subject, err)
			}
			select {
			case <-time.After(2 * time.Millisecond):
			case <-ctx.Cancel.Done():
				return ctx.Cancel.Err()
			}
		}
	}
	return nil
}
