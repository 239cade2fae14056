// Package messenger implements the Messenger of §2.2 and the post-office
// messaging protocol of §4.2: persistent, asynchronous, location-independent
// inter-naplet communication.
//
// Each naplet has at most one mail slot per server. A slot is held while
// the naplet has not opened it — mail waits there for the landing — and
// open while the naplet is resident, when it is the naplet's mailbox.
// Posting a message resolves the target's most recent server through the
// Locator (or the sender's address book) and sends it there. The receiving
// messenger then follows the paper's three cases:
//
//  1. the naplet is running there: deliver to its open slot (user
//     messages) or cast an interrupt (system messages) and confirm to the
//     sender;
//  2. the naplet has moved on: consult the NapletManager's visit trace and
//     forward to the server the naplet left for, repeating "until the
//     message catches up" with the naplet;
//  3. the naplet has not arrived yet (it may be blocked in the network):
//     hold the message in its slot — the paper's "special mailbox" — and
//     deliver it when the naplet lands and opens the slot.
//
// The case is decided under one lock, the one a landing opens and a
// departure deletes the slot under, so a post is never parked after the
// landing took the slot's mail, nor held for a naplet that already left.
//
// Delivery confirmations flow back along the forwarding chain and carry the
// delivering server, which refreshes the sender's locator cache and address
// book.
package messenger

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dedup"
	"repro/internal/id"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PostBody is the wire body of a KindPost frame.
type PostBody struct {
	Msg naplet.Message
	// Hops counts forwarding legs already taken.
	Hops int
}

// ConfirmBody is the wire body of a KindPostConfirm frame.
type ConfirmBody struct {
	// Delivered reports the message reached the naplet's mailbox (or its
	// interrupt handler, for system messages).
	Delivered bool
	// Held reports the message was parked in the naplet's held slot
	// awaiting its arrival (case 3).
	Held bool
	// Server is where the message ended up: the delivering server or the
	// holding server. Senders refresh their caches from it.
	Server string
	// Hops is the total number of forwarding legs taken.
	Hops int
}

// Errors reported by the messenger.
var (
	ErrUnknownPeer   = errors.New("messenger: target not in address book")
	ErrHopsExceeded  = errors.New("messenger: forwarding hop limit exceeded")
	ErrNapletGone    = errors.New("messenger: naplet ended its life cycle here")
	ErrMailboxClosed = errors.New("messenger: mailbox closed")
)

// Stats is a point-in-time snapshot of messenger activity at one server.
// The counters live in the telemetry registry; Stats is the legacy view
// built by Messenger.Stats.
type Stats struct {
	Posted      int64 // messages sent from this server
	Delivered   int64 // messages delivered into local mailboxes
	Forwarded   int64 // messages forwarded to another server
	Held        int64 // messages parked in held slots
	DrainedH    int64 // held messages later delivered on arrival
	Interrupts  int64 // system messages cast as interrupts
	Reconfirmed int64 // duplicate deliveries absorbed and re-confirmed
	Retries     int64 // send/forward re-attempts on transient failures
	PushedInval int64 // migration notices pushed to correspondents
	Compressed  int64 // forwarding pointers compressed after a chase
}

// metrics holds the messenger's registered telemetry handles.
type metrics struct {
	posted      *telemetry.Counter
	delivered   *telemetry.Counter
	forwarded   *telemetry.Counter
	held        *telemetry.Counter
	drained     *telemetry.Counter
	interrupts  *telemetry.Counter
	reconfirmed *telemetry.Counter
	retries     *telemetry.Counter
	pushedInval *telemetry.Counter
	compressed  *telemetry.Counter
	confirmRTT  *telemetry.Histogram
	retryWait   *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		posted:      reg.Counter("naplet_messenger_posted_total", "messages sent from this server"),
		delivered:   reg.Counter("naplet_messenger_delivered_total", "messages delivered into local mailboxes"),
		forwarded:   reg.Counter("naplet_messenger_forwarded_total", "messages forwarded along visit traces"),
		held:        reg.Counter("naplet_messenger_held_total", "messages held for naplets that have not landed"),
		drained:     reg.Counter("naplet_messenger_drained_held_total", "held messages delivered on arrival"),
		interrupts:  reg.Counter("naplet_messenger_interrupts_total", "system messages cast as interrupts"),
		reconfirmed: reg.Counter("naplet_messenger_reconfirmed_total", "duplicate deliveries absorbed and re-confirmed"),
		retries:     reg.Counter("naplet_messenger_send_retries_total", "post/forward re-attempts on transient failures"),
		pushedInval: reg.Counter("naplet_messenger_pushed_invalidations_total", "migration notices pushed to recent correspondents"),
		compressed:  reg.Counter("naplet_messenger_compressed_traces_total", "forwarding pointers compressed after a completed chase"),
		confirmRTT: reg.Histogram("naplet_messenger_confirm_rtt_seconds",
			"post-to-confirmation round-trip time", telemetry.LatencyBuckets),
		retryWait: reg.Histogram("naplet_messenger_retry_backoff_seconds",
			"backoff sleeps between post/forward retries", telemetry.LatencyBuckets),
	}
}

// InterruptSink casts a system message onto a resident naplet; it reports
// false when the naplet has no running group here. The messenger calls it
// under the lock its delivery decisions are taken under, so it must not
// block or call back into the messenger.
type InterruptSink func(to id.NapletID, msg naplet.Message) bool

// Config parameterizes a messenger.
type Config struct {
	// SendRetries bounds re-attempts of a failed post or forward-chase
	// leg on transient network errors (default 2; negative disables
	// retries). The message ID stays stable across retries, so a retry
	// after a lost confirmation is re-confirmed by the receiver's dedup
	// window, never re-delivered.
	SendRetries int
	// RetryDelay is the initial backoff between send retries; it doubles
	// per attempt up to transport.DefaultBackoffMax (default 5ms).
	RetryDelay time.Duration
	// Telemetry receives the messenger's counters and confirm-RTT
	// histogram; nil uses a private registry.
	Telemetry *telemetry.Registry
	// RetryBudget, when non-nil, bounds send retries to a fraction of
	// first attempts (see overload.RetryBudget). Nil leaves retries
	// bounded only by SendRetries.
	RetryBudget *overload.RetryBudget
}

// Messenger is the per-server post office. It is safe for concurrent use.
type Messenger struct {
	cfg    Config
	server string
	node   transport.Node
	loc    *locator.Locator
	mgr    *manager.Manager
	clock  func() time.Time

	met *metrics

	msgSeq    atomic.Uint64
	delivered *dedup.Window // message IDs already delivered here

	mu sync.Mutex
	// slots holds each naplet's mail slot, held or open, by naplet key.
	slots     map[string]*Mailbox
	interrupt InterruptSink
}

// MaxHops bounds the forwarding chain of one post: how many visit traces
// a post may chase past the dock it was first sent to.
const MaxHops = 16

const (
	// maxCorrespondents bounds the peers a slot remembers: enough to cover
	// a naplet's active conversation partners.
	maxCorrespondents = 8
	// forwardTimeout bounds each forwarding call.
	forwardTimeout = 10 * time.Second
	// pushTimeout bounds one departure's round of PushMigration notices.
	pushTimeout = 5 * time.Second
)

// New builds the messenger of a server. node sends outbound frames; loc
// resolves targets; mgr supplies visit traces for forwarding; nil clock
// means time.Now.
func New(cfg Config, server string, node transport.Node, loc *locator.Locator, mgr *manager.Manager, clock func() time.Time) *Messenger {
	if cfg.SendRetries < 0 {
		cfg.SendRetries = 0
	} else if cfg.SendRetries == 0 {
		cfg.SendRetries = 2
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 5 * time.Millisecond
	}
	if clock == nil {
		clock = time.Now
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Messenger{
		cfg:       cfg,
		server:    server,
		node:      node,
		loc:       loc,
		mgr:       mgr,
		clock:     clock,
		met:       newMetrics(reg),
		delivered: dedup.NewWindow(dedup.DefaultMax, dedup.DefaultTTL, clock),
		slots:     make(map[string]*Mailbox),
	}
}

// SetInterruptSink installs the monitor hook that casts system messages
// onto resident naplets.
func (m *Messenger) SetInterruptSink(sink InterruptSink) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.interrupt = sink
}

// Stats snapshots the messenger's activity counters from the telemetry
// registry.
func (m *Messenger) Stats() Stats {
	return Stats{
		Posted:      m.met.posted.Value(),
		Delivered:   m.met.delivered.Value(),
		Forwarded:   m.met.forwarded.Value(),
		Held:        m.met.held.Value(),
		DrainedH:    m.met.drained.Value(),
		Interrupts:  m.met.interrupts.Value(),
		Reconfirmed: m.met.reconfirmed.Value(),
		Retries:     m.met.retries.Value(),
		PushedInval: m.met.pushedInval.Value(),
		Compressed:  m.met.compressed.Value(),
	}
}

// mintMsgID assigns a message its end-to-end identifier.
func (m *Messenger) mintMsgID() string {
	var arr [64]byte
	b := append(arr[:0], m.server...)
	b = append(b, "/m"...)
	return string(strconv.AppendUint(b, m.msgSeq.Add(1), 10))
}

// ---- Mailbox lifecycle ----

// CreateMailbox opens the arriving naplet's slot in place: the mail held in
// it becomes the naplet's mailbox (§4.2 case 3: "On receiving the naplet B,
// Sb's Messenger creates a mailbox and dumps the B's messages in the
// special mailbox to B's mailbox"). Held system messages are cast as
// interrupts, not queued: a suspend or terminate that raced the naplet's
// landing still takes effect. Opening an open slot returns it as it is.
func (m *Messenger) CreateMailbox(nid id.NapletID) *Mailbox {
	key := nid.Key()
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.slots[key]
	if !ok {
		mb = new(Mailbox)
		m.slots[key] = mb
	}
	if !mb.open {
		mb.open = true
		held := mb.take()
		for _, msg := range held {
			m.deposit(mb, msg)
		}
		m.met.drained.Add(int64(len(held)))
	}
	return mb
}

// CloseMailbox deletes a naplet's slot and returns the mail left in it and
// the servers that posted into it, so the caller can forward the mail after
// a departing naplet and tell those servers where it went (PushMigration).
// The caller records the departure or the end on the visit trace first: a
// post that comes after the slot is gone then follows the trace instead of
// being held.
func (m *Messenger) CloseMailbox(nid id.NapletID) (left []naplet.Message, peers []string) {
	key := nid.Key()
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.slots[key]
	if !ok {
		return nil, nil
	}
	delete(m.slots, key)
	return mb.close(), mb.peers
}

// ForwardLeftovers re-posts messages left in a departed naplet's mailbox
// toward its destination server. The messages keep their original IDs, so
// a leftover that races a duplicate in flight is still delivered once.
func (m *Messenger) ForwardLeftovers(ctx context.Context, dest string, msgs []naplet.Message) error {
	var firstErr error
	for _, msg := range msgs {
		if _, err := m.sendRetry(ctx, dest, PostBody{Msg: msg}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---- Sending ----

// Post sends a user message from a resident naplet to a peer. The peer
// must appear in the sender's address book ("we restrict communications
// between naplets who know their identifiers", §2.1). The sender's book and
// locator cache are refreshed from the delivery confirmation.
func (m *Messenger) Post(ctx context.Context, from *naplet.Record, to id.NapletID, subject string, body []byte) error {
	entry, known := from.Book.Lookup(to)
	if !known {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	msg := naplet.Message{
		ID:      m.mintMsgID(),
		From:    from.ID,
		To:      to,
		Class:   naplet.UserMessage,
		Subject: subject,
		Body:    append([]byte(nil), body...),
		SentAt:  m.clock(),
	}
	confirm, err := m.route(ctx, msg, entry.ServerURN)
	if err != nil {
		return err
	}
	from.Book.Update(to, confirm.Server)
	return nil
}

// SendControl sends a system message (callback, terminate, suspend,
// resume) to a naplet, typically invoked by its home manager on behalf of
// the owner. hint may be empty.
func (m *Messenger) SendControl(ctx context.Context, to id.NapletID, verb naplet.ControlVerb, hint string) error {
	msg := naplet.Message{
		ID:      m.mintMsgID(),
		To:      to,
		Class:   naplet.SystemMessage,
		Control: verb,
		SentAt:  m.clock(),
	}
	_, err := m.route(ctx, msg, hint)
	return err
}

// route resolves the target and sends the message, returning the
// confirmation.
func (m *Messenger) route(ctx context.Context, msg naplet.Message, hint string) (ConfirmBody, error) {
	server := hint
	if m.loc != nil {
		if s, err := m.loc.Locate(ctx, msg.To, hint); err == nil {
			server = s
		} else if hint == "" {
			return ConfirmBody{}, err
		}
	}
	if server == "" {
		return ConfirmBody{}, fmt.Errorf("messenger: no route to %s", msg.To)
	}
	m.met.posted.Inc()
	start := time.Now()
	confirm, err := m.sendRetry(ctx, server, PostBody{Msg: msg})
	if err != nil {
		if m.loc != nil {
			m.loc.Miss(msg.To)
		}
		return ConfirmBody{}, err
	}
	m.met.confirmRTT.ObserveDuration(time.Since(start))
	if m.loc != nil && confirm.Delivered {
		m.loc.Confirmed(msg.To, server, confirm.Server)
	}
	return confirm, nil
}

// sendRetry performs one leg of the post protocol, re-attempting transient
// failures with doubling backoff up to cfg.SendRetries times. The message
// ID is stable across attempts, so a leg that delivered but lost its
// confirmation is absorbed and re-confirmed by the receiver's dedup window
// rather than delivered twice.
func (m *Messenger) sendRetry(ctx context.Context, server string, body PostBody) (ConfirmBody, error) {
	pol := transport.Backoff{Initial: m.cfg.RetryDelay, Retries: m.cfg.SendRetries}
	var confirm ConfirmBody
	err := pol.Retry(ctx, m.cfg.RetryBudget, nil, func(delay time.Duration) {
		m.met.retries.Inc()
		m.met.retryWait.ObserveDuration(delay)
	}, func() (bool, error) {
		var err error
		confirm, err = m.send(ctx, server, body)
		if err == nil {
			return true, nil
		}
		// Protocol verdicts are authoritative; only transport-level
		// failures are worth re-attempting. An error *reply* means the
		// leg completed and the remote handler answered — retrying would
		// re-ask a settled question (and amplify exponentially along a
		// forwarding chain). Overload and deadline sheds are the
		// exception: they come back as typed sentinels, not *wire.Error,
		// precisely so this loop treats them as transient.
		var werr *wire.Error
		final := errors.As(err, &werr) ||
			errors.Is(err, ErrNapletGone) || errors.Is(err, ErrHopsExceeded) || errors.Is(err, ErrUnknownPeer)
		return final, err
	})
	return confirm, err
}

// send performs one network leg of the post protocol.
func (m *Messenger) send(ctx context.Context, server string, body PostBody) (ConfirmBody, error) {
	// A message addressed to a naplet on this very server short-circuits;
	// a chase from here runs under the caller's ctx.
	if server == m.server {
		confirm, dest, err := m.decide(m.server, body)
		if err != nil || dest == "" {
			return confirm, err
		}
		return m.forward(ctx, body, dest)
	}
	f := wire.BinaryFrame(wire.KindPost, "", "", &body)
	reply, err := m.node.Call(ctx, server, f)
	if err != nil {
		return ConfirmBody{}, err
	}
	var confirm ConfirmBody
	if err := confirm.Decode(reply.Payload); err != nil {
		return ConfirmBody{}, err
	}
	return confirm, nil
}

// ---- Receiving ----

// HandlePost is the server's KindPost frame handler. A post delivered or
// held here is answered without a context; only a chase builds one, with
// one deadline: the poster's propagated budget (if the frame carries one),
// bounded by forwardTimeout — a chase has no business outliving the caller
// waiting on it.
func (m *Messenger) HandlePost(from string, f wire.Frame) (wire.Frame, error) {
	var body PostBody
	if err := body.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	confirm, dest, err := m.decide(from, body)
	if err == nil && dest != "" {
		ctx, cancel := context.WithDeadline(context.Background(), f.DeadlineWithin(forwardTimeout))
		confirm, err = m.forward(ctx, body, dest)
		cancel()
	}
	if err != nil {
		return wire.Frame{}, err
	}
	return wire.BinaryFrame(wire.KindPostConfirm, f.To, f.From, &confirm), nil
}

// decide applies the paper's three delivery cases at this server to a post
// sent by from. The decision is taken under m.mu: the post goes into the
// naplet's slot, open or held, and decide returns its confirmation — or,
// with no slot here and a visit trace saying the naplet left, decide
// returns the server to chase it to (case 2), and the caller forwards the
// post there. A trace that ends here, or a chase past MaxHops, is an
// error. Lock order is messenger, then manager.
func (m *Messenger) decide(from string, body PostBody) (confirm ConfirmBody, dest string, err error) {
	msg := body.Msg
	m.mu.Lock()
	if msg.ID != "" && m.delivered.Seen(msg.ID) {
		// A retried post whose confirmation was lost, or a duplicated
		// frame: absorb and re-confirm it without a second delivery.
		m.mu.Unlock()
		m.met.reconfirmed.Inc()
		return ConfirmBody{Delivered: true, Server: m.server, Hops: body.Hops}, "", nil
	}
	key := msg.To.Key()
	mb, ok := m.slots[key]
	if !ok {
		if m.mgr != nil {
			// Case 2: the naplet moved on (or ended) here.
			if tr := m.mgr.TraceNaplet(msg.To); tr.Known && !tr.Present {
				m.mu.Unlock()
				if tr.Dest == "" {
					return ConfirmBody{}, "", fmt.Errorf("%w: %s", ErrNapletGone, msg.To)
				}
				if body.Hops+1 > MaxHops {
					return ConfirmBody{}, "", fmt.Errorf("%w: %d", ErrHopsExceeded, body.Hops)
				}
				return ConfirmBody{}, tr.Dest, nil
			}
		}
		// Case 3: not landed yet — hold the mail in a new slot.
		mb = new(Mailbox)
		m.slots[key] = mb
	}
	delivered := m.deposit(mb, msg)
	m.noteCorrespondent(mb, from)
	m.mu.Unlock()
	return ConfirmBody{Delivered: delivered, Held: !delivered, Server: m.server, Hops: body.Hops}, "", nil
}

// forward chases a naplet that left this server for dest along its visit
// trace (case 2), as decide found.
func (m *Messenger) forward(ctx context.Context, body PostBody, dest string) (ConfirmBody, error) {
	m.met.forwarded.Inc()
	next := PostBody{Msg: body.Msg, Hops: body.Hops + 1}
	confirm, err := m.sendRetry(ctx, dest, next)
	if err == nil && confirm.Delivered && confirm.Server != "" && confirm.Server != dest {
		// The chase ran past dest: compress this server's forwarding
		// pointer so the next message through here jumps straight to
		// where the naplet actually is.
		m.mgr.CompressTrace(body.Msg.To, confirm.Server)
		m.met.compressed.Inc()
	}
	return confirm, err
}

// deposit puts msg into its naplet's slot; m.mu held. An open slot
// delivers it — as an interrupt when it is a system message the naplet's
// monitor takes, into the mailbox otherwise — and deposit reports true. A
// held slot keeps one copy per message ID for the landing and reports
// false.
func (m *Messenger) deposit(mb *Mailbox, msg naplet.Message) bool {
	if !mb.open {
		if msg.ID != "" && mb.holds(msg.ID) {
			m.met.reconfirmed.Inc()
			return false
		}
		mb.put(msg)
		m.met.held.Inc()
		return false
	}
	m.markDelivered(msg)
	if msg.IsSystem() && m.interrupt != nil && m.interrupt(msg.To, msg) {
		m.met.interrupts.Inc()
		return true
	}
	mb.put(msg)
	m.met.delivered.Inc()
	return true
}

// noteCorrespondent remembers, in the slot a post from peer went into, that
// peer is worth telling when the naplet migrates; m.mu held. Only a dock
// whose locator caches keeps correspondents: the fleet runs one LocatorTTL,
// so a peer's cache that a notice could refresh exists only then.
func (m *Messenger) noteCorrespondent(mb *Mailbox, peer string) {
	if peer == "" || peer == m.server || m.loc == nil || !m.loc.Caches() || len(mb.peers) >= maxCorrespondents {
		return
	}
	for _, p := range mb.peers {
		if p == peer {
			return
		}
	}
	mb.peers = append(mb.peers, peer)
}

// PushMigration tells peers — the correspondents CloseMailbox returned with
// the naplet's slot — that it left this server for dest, refreshing their
// locator caches in place (the paper's "buffered naplet location
// information can be updated on migration", pushed instead of polled). Best
// effort: an unreachable peer just misses the notice and falls back to
// lookup-on-miss. The whole round is bounded by pushTimeout, each push by
// forwardTimeout; a departure with no correspondent builds no context at
// all. Returns how many peers were notified.
func (m *Messenger) PushMigration(ctx context.Context, nid id.NapletID, dest string, peers []string) int {
	if len(peers) == 0 {
		return 0
	}
	ctx, cancel := context.WithTimeout(ctx, pushTimeout)
	defer cancel()
	pushed := 0
	for _, peer := range peers {
		if peer == dest {
			continue
		}
		body := locator.InvalidateBody{NapletID: nid, Server: dest}
		f := wire.BinaryFrame(wire.KindLocatorInvalidate, m.server, peer, &body)
		cctx, cancel := context.WithTimeout(ctx, forwardTimeout)
		_, err := m.node.Call(cctx, peer, f)
		cancel()
		if err == nil {
			pushed++
		}
	}
	if pushed > 0 {
		m.met.pushedInval.Add(int64(pushed))
	}
	return pushed
}

// markDelivered records a message ID in the delivered window so later
// duplicates are re-confirmed instead of re-delivered.
func (m *Messenger) markDelivered(msg naplet.Message) {
	if msg.ID != "" {
		m.delivered.Mark(msg.ID)
	}
}

// ---- Durability and drain ----

// HeldSnapshot deep-copies the mail in held slots: mail waiting for
// naplets that have not landed here.
func (m *Messenger) HeldSnapshot() map[string][]naplet.Message { return m.mail(false) }

// MailSnapshot deep-copies the mail in every slot, held or open, for a dock
// snapshot. A crash loses in-flight receipt, but mail the naplet never took
// survives the restart and is delivered when the naplet's slot reopens.
func (m *Messenger) MailSnapshot() map[string][]naplet.Message { return m.mail(true) }

func (m *Messenger) mail(withOpen bool) map[string][]naplet.Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]naplet.Message)
	for key, mb := range m.slots {
		if mb.open && !withOpen {
			continue
		}
		if msgs := mb.snapshot(); len(msgs) > 0 {
			out[key] = msgs
		}
	}
	return out
}

// RestoreMail puts mail back into the slots: a restored dock snapshot's,
// or what a drain could not move on. Each message goes in as a post would,
// delivered into an open slot and held otherwise, where a copy already
// held is absorbed rather than doubled.
func (m *Messenger) RestoreMail(mail map[string][]naplet.Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, msgs := range mail {
		if len(msgs) == 0 {
			continue
		}
		mb, ok := m.slots[key]
		if !ok {
			mb = new(Mailbox)
			m.slots[key] = mb
		}
		for _, msg := range msgs {
			m.deposit(mb, msg)
		}
	}
}

// FlushHeld attempts onward delivery of every held message (graceful
// drain): each target is located and its mail forwarded to that server.
// Messages whose target cannot be located, or that locate back to this
// draining server, go back into their slots for the final dock snapshot.
// Returns how many messages moved.
func (m *Messenger) FlushHeld(ctx context.Context) int {
	m.mu.Lock()
	pending := make(map[string][]naplet.Message)
	for key, mb := range m.slots {
		if !mb.open {
			pending[key] = mb.close()
			delete(m.slots, key)
		}
	}
	m.mu.Unlock()

	flushed := 0
	kept := make(map[string][]naplet.Message)
	for key, msgs := range pending {
		var dest string
		if m.loc != nil {
			if s, err := m.loc.Locate(ctx, msgs[0].To, ""); err == nil && s != m.server {
				dest = s
			}
		}
		for _, msg := range msgs {
			if dest != "" {
				if _, err := m.sendRetry(ctx, dest, PostBody{Msg: msg}); err == nil {
					flushed++
					continue
				}
			}
			kept[key] = append(kept[key], msg)
		}
	}
	m.RestoreMail(kept)
	return flushed
}

// DeliveredSnapshot returns the message IDs in the delivery dedup window,
// for persistence across a restart.
func (m *Messenger) DeliveredSnapshot() []string { return m.delivered.Keys() }

// RestoreDelivered re-marks previously delivered message IDs so replays of
// pre-restart posts are re-confirmed, not enqueued twice.
func (m *Messenger) RestoreDelivered(ids []string) {
	for _, id := range ids {
		m.delivered.Mark(id)
	}
}

// ---- Mailbox ----

// Mailbox is one naplet's mail slot at a server: held until the naplet
// opens it on landing, then the naplet's message queue.
type Mailbox struct {
	// open and peers are guarded by the Messenger's mu, not by the
	// mailbox's. peers lists the servers whose posts went into the slot
	// (at most maxCorrespondents), kept only where the locator caches.
	open  bool
	peers []string

	mu   sync.Mutex
	msgs []naplet.Message
	// wake is made by the first Receive that has to wait: a naplet that
	// never waits for mail never has one.
	wake   chan struct{}
	closed bool
}

// put queues msg; a closed mailbox drops it.
func (b *Mailbox) put(msg naplet.Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.msgs = append(b.msgs, msg)
	b.signal()
}

// signal wakes a waiting Receive, if one ever waited; b.mu held.
func (b *Mailbox) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// holds reports whether a message with the given ID is queued.
func (b *Mailbox) holds(msgID string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, msg := range b.msgs {
		if msg.ID == msgID {
			return true
		}
	}
	return false
}

// take empties the queue and returns what it held.
func (b *Mailbox) take() []naplet.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	msgs := b.msgs
	b.msgs = nil
	return msgs
}

// TryReceive returns the next message without blocking.
func (b *Mailbox) TryReceive() (naplet.Message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.msgs) == 0 {
		return naplet.Message{}, false
	}
	msg := b.msgs[0]
	b.msgs = b.msgs[1:]
	return msg, true
}

// Receive blocks until a message arrives, the mailbox closes, or ctx ends.
func (b *Mailbox) Receive(ctx context.Context) (naplet.Message, error) {
	for {
		b.mu.Lock()
		if len(b.msgs) > 0 {
			msg := b.msgs[0]
			b.msgs = b.msgs[1:]
			b.mu.Unlock()
			return msg, nil
		}
		if b.closed {
			b.mu.Unlock()
			return naplet.Message{}, ErrMailboxClosed
		}
		if b.wake == nil {
			b.wake = make(chan struct{}, 1)
		}
		wake := b.wake
		b.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return naplet.Message{}, ctx.Err()
		}
	}
}

// snapshot copies the queued messages without consuming them.
func (b *Mailbox) snapshot() []naplet.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]naplet.Message(nil), b.msgs...)
}

// close marks the mailbox closed and returns undelivered messages.
func (b *Mailbox) close() []naplet.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	left := b.msgs
	b.msgs = nil
	b.signal()
	return left
}
