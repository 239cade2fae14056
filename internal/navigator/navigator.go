// Package navigator implements the Navigator of §2.2: the component that
// performs naplet launch and migration.
//
// The migration protocol follows the paper:
//
//  1. The origin Navigator consults its NapletSecurityManager for a LAUNCH
//     permission.
//  2. It contacts the destination Navigator for a LANDING permission. The
//     destination consults its own security manager (and resource
//     admission), and — modelling lazy code loading — tells the origin
//     whether it still needs the naplet's code bundle. An origin holding
//     proof that this destination recently accepted the same code skips
//     the step: the transfer below runs every one of these checks again on
//     the real record, so one round trip carries the whole migration.
//  3. The naplet record (and the code bundle, in push mode) transfers. The
//     destination decides here — replay dedup, admission, LANDING
//     permission, credential, code — and answers accepted, refused, or
//     "resend with the code" (a cold push-mode cache; nothing landed).
//  4. The destination registers the ARRIVAL event (with the directory
//     and/or the naplet's home manager) and only then starts execution:
//     "We postpone the execution of the naplet until the arrival
//     registration is acknowledged." That arrival is the hop's one
//     directory write: it supersedes the previous stop's by itself, and a
//     failed dispatch never moved the entry.
//  5. The origin receives the acknowledgement, records the departure in its
//     own visit trace, and releases the resources occupied by the naplet.
//
// In pull mode the destination fetches the code bundle from the naplet's
// home (the codebase URL's location) instead of receiving it from the
// origin, reproducing the paper's on-demand class loading topology.
package navigator

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cred"
	"repro/internal/dedup"
	"repro/internal/directory"
	"repro/internal/health"
	"repro/internal/id"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/security"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// CodeDelivery selects how code bundles reach a server that lacks them.
type CodeDelivery int

// Code delivery modes.
const (
	// Push: the origin attaches the bundle to the transfer when the
	// destination reports a cold cache (in its landing reply, or by
	// answering a code-less transfer with NeedCode).
	Push CodeDelivery = iota
	// Pull: the destination fetches the bundle from the naplet's home
	// after the transfer, before starting execution.
	Pull
)

// String returns the mode name.
func (c CodeDelivery) String() string {
	if c == Pull {
		return "pull"
	}
	return "push"
}

// LandingRequestBody asks the destination for a LANDING permission.
type LandingRequestBody struct {
	NapletID   id.NapletID
	Credential cred.Credential
	Codebase   string
	StateSize  int
	// CodeDigest is the content digest (hex SHA-256) of the codebase's
	// bundle, when the origin knows it. A destination holding any codebase
	// with the same digest serves the landing from its content-addressed
	// cache and never asks for a refetch. Empty from origins predating the
	// field.
	CodeDigest string
}

// LandingReplyBody grants or refuses landing.
type LandingReplyBody struct {
	Granted bool
	// NeedCode asks the origin to attach the code bundle (push mode).
	NeedCode bool
	Reason   string
}

// TransferBody carries the serialized naplet and optionally its code.
type TransferBody struct {
	Record []byte
	Code   []byte
	// TransferID identifies the logical migration, stable across retries,
	// so a retry after a lost acknowledgement does not land the naplet
	// twice.
	TransferID string
	// CodeDigest is the content digest of the codebase's bundle, as in
	// LandingRequestBody, set on a transfer sent without a landing request:
	// it still lands warm on a destination that holds the bytes under
	// another name. Empty after a landing request, which carried it.
	CodeDigest string
}

// TransferAckBody answers a transfer: landed, refused, or — nothing landed
// yet — resend with the code.
type TransferAckBody struct {
	Accepted bool
	Reason   string
	// NeedCode asks the origin to resend the same transfer with the code
	// bundle attached: a push-mode destination's cache is cold and the
	// transfer carried no code. Nothing landed and the transfer ID stays
	// unmarked.
	NeedCode bool
	// Denied classes a refusal as a policy decision (LANDING permission or
	// the admission veto), which the origin reports as ErrLandingDenied;
	// every other refusal is ErrRejected.
	Denied bool
}

// CodeFetchBody requests a code bundle by name (pull mode).
type CodeFetchBody struct {
	Codebase string
}

// CodeBundleBody carries a code bundle.
type CodeBundleBody struct {
	Data []byte
}

// HomeEventBody reports an arrival to the naplet's home manager (the
// distributed directory of §4.1). Docks send arrivals only; the Arrival
// flag keeps the body's wire layout.
type HomeEventBody struct {
	NapletID id.NapletID
	Server   string
	Arrival  bool
	At       time.Time
}

// Errors reported by the navigator.
var (
	ErrLandingDenied = errors.New("navigator: LANDING permission denied")
	ErrLaunchDenied  = errors.New("navigator: LAUNCH permission denied")
	ErrRejected      = errors.New("navigator: transfer rejected")
	// ErrTransferUnresolved marks a failed dispatch whose transfer frame
	// may nonetheless have been delivered and landed: the request was
	// sent but the acknowledgement never arrived (lost frame, lost
	// reply, timeout). The naplet could be alive at the destination, so
	// the origin must not reroute this copy — a failover here would fork
	// it. Recovery belongs to the owner: relaunch under a fresh identity.
	ErrTransferUnresolved = errors.New("navigator: transfer outcome unknown")
)

// Breakdown records where one dispatch spent its time, feeding the
// migration-cost experiment (E7).
type Breakdown struct {
	Serialize   time.Duration
	Negotiation time.Duration
	Transfer    time.Duration
	Total       time.Duration
	// RecordBytes and CodeBytes are the transferred sizes.
	RecordBytes int
	CodeBytes   int
}

// Stats is a point-in-time snapshot of navigator activity. The counters
// live in the telemetry registry; Stats is the legacy view built by
// Navigator.Stats.
type Stats struct {
	Dispatched  int64
	Landed      int64
	Refused     int64
	CodePushed  int64
	CodePulled  int64
	CodeServed  int64
	HomeReports int64
	// Retries counts dispatch re-attempts taken under a transport.Backoff
	// policy.
	Retries int64
	// DupTransfers counts replayed TRANSFER frames absorbed by the
	// idempotency window (re-acknowledged without landing again).
	DupTransfers int64
	// DirectTransfers counts dispatches that skipped the landing request
	// because the destination was proven warm.
	DirectTransfers int64
	// CodeReasks counts NeedCode answers received to a code-less transfer.
	CodeReasks int64
}

// metrics holds the navigator's registered telemetry handles.
type metrics struct {
	dispatched  *telemetry.Counter
	landed      *telemetry.Counter
	refused     *telemetry.Counter
	codePushed  *telemetry.Counter
	codePulled  *telemetry.Counter
	codeServed  *telemetry.Counter
	homeReports *telemetry.Counter
	retries     *telemetry.Counter
	dupTransfer *telemetry.Counter
	direct      *telemetry.Counter
	codeReasks  *telemetry.Counter
	hopLatency  *telemetry.Histogram
	backoff     *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		dispatched:  reg.Counter("naplet_navigator_dispatched_total", "naplets dispatched from this server"),
		landed:      reg.Counter("naplet_navigator_landed_total", "naplets landed at this server"),
		refused:     reg.Counter("naplet_navigator_refused_total", "landings refused (security or admission)"),
		codePushed:  reg.Counter("naplet_navigator_code_pushed_total", "code bundles attached to outbound transfers"),
		codePulled:  reg.Counter("naplet_navigator_code_pulled_total", "code bundles fetched from naplet homes"),
		codeServed:  reg.Counter("naplet_navigator_code_served_total", "code bundles served to cold caches"),
		homeReports: reg.Counter("naplet_navigator_home_reports_total", "arrival events reported to homes"),
		retries:     reg.Counter("naplet_navigator_dispatch_retries_total", "dispatch re-attempts under the backoff policy"),
		dupTransfer: reg.Counter("naplet_navigator_dup_transfers_total", "replayed TRANSFER frames absorbed by the dedup window"),
		direct:      reg.Counter("naplet_navigator_direct_transfers_total", "dispatches that skipped the landing request (destination proven warm)"),
		codeReasks:  reg.Counter("naplet_navigator_code_reasks_total", "NeedCode answers received to a code-less transfer"),
		hopLatency: reg.Histogram("naplet_navigator_hop_latency_seconds",
			"end-to-end migration (dispatch) latency", telemetry.LatencyBuckets),
		backoff: reg.Histogram("naplet_navigator_backoff_seconds",
			"backoff sleeps between dispatch retries", telemetry.LatencyBuckets),
	}
}

// LandFunc receives an accepted naplet for execution; the server's visit
// engine. It runs on its own goroutine.
type LandFunc func(rec *naplet.Record, source string)

// AdmitFunc lets the resource manager veto landings (capacity, load).
type AdmitFunc func(req LandingRequestBody) error

// Config parameterizes a navigator.
type Config struct {
	// CodeDelivery selects push or pull bundle transport.
	CodeDelivery CodeDelivery
	// Directory, when set, receives ARRIVAL registrations: a
	// single-node client or a sharded, replicated plane.
	Directory directory.Directory
	// ReportHome, when set, sends arrival events to each naplet's home
	// manager (distributed directory mode).
	ReportHome bool
	// CallTimeout bounds each protocol call (default 30s).
	CallTimeout time.Duration
	// Telemetry receives the navigator's counters and hop-latency
	// histogram; nil uses a private registry.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one HopSpan per dispatch attempt,
	// extending the paper's NavigationLog with cost and outcome detail.
	Tracer *telemetry.HopTracer
	// Health, when non-nil, receives per-peer reachability observations
	// from the dispatch path. It is the one liveness verdict a dispatch
	// consults, and only for a naplet carrying a failover policy: its
	// dispatch against a peer presumed dead fails fast with ErrPeerDead
	// instead of burning the full backoff budget.
	Health *health.Detector
	// RetryBudget, when non-nil, bounds dispatch retries to a fraction
	// of first attempts (see overload.RetryBudget). Nil — the default —
	// leaves retries bounded only by the transport.Backoff policy.
	RetryBudget *overload.RetryBudget
}

// Navigator is the per-server migration component.
type Navigator struct {
	cfg    Config
	server string
	node   transport.Node
	sec    *security.Manager
	mgr    *manager.Manager
	reg    *registry.Registry
	cache  *registry.Cache
	clock  func() time.Time

	onLand     LandFunc
	admit      AdmitFunc
	beforeLand func(nid id.NapletID)
	persist    func(rec *naplet.Record)

	tidSeq   atomic.Uint64
	bootID   string        // random per-boot nonce scoping transfer IDs
	accepted *dedup.Window // transfer IDs already landed here

	// landing single-flights concurrent HandleTransfer calls per transfer
	// ID: a retry racing a still-running first delivery must wait for it
	// to settle (and be absorbed by the window), not land a second copy.
	landingMu sync.Mutex
	landing   map[string]chan struct{}

	warm proofs // destinations this origin may send to without asking

	met *metrics
}

// New builds a navigator. sec may be nil (no permission checks); cache must
// be non-nil; nil clock means time.Now.
func New(cfg Config, server string, node transport.Node, sec *security.Manager, mgr *manager.Manager, reg *registry.Registry, cache *registry.Cache, clock func() time.Time) *Navigator {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 30 * time.Second
	}
	if clock == nil {
		clock = time.Now
	}
	treg := cfg.Telemetry
	if treg == nil {
		treg = telemetry.NewRegistry()
	}
	var nonce [4]byte
	if _, err := cryptorand.Read(nonce[:]); err != nil {
		panic(fmt.Sprintf("navigator: boot nonce: %v", err))
	}
	return &Navigator{
		cfg:      cfg,
		server:   server,
		node:     node,
		sec:      sec,
		mgr:      mgr,
		reg:      reg,
		cache:    cache,
		clock:    clock,
		bootID:   hex.EncodeToString(nonce[:]),
		met:      newMetrics(treg),
		accepted: dedup.NewWindow(dedup.DefaultMax, dedup.DefaultTTL, clock),
		landing:  make(map[string]chan struct{}),
	}
}

// NewTransferID mints an identifier for one logical migration; callers
// that retry a Dispatch reuse the same ID so the destination can
// deduplicate replayed transfers. The per-boot nonce keeps IDs minted
// after a restart distinct from the previous incarnation's: destinations
// persist their accepted-transfer window in the durable dock, so a bare
// counter restarting at 1 would make a fresh transfer look like a replay
// and be absorbed without ever landing.
func (n *Navigator) NewTransferID() string {
	var arr [64]byte
	b := append(arr[:0], n.server...)
	b = append(b, '/')
	b = append(b, n.bootID...)
	b = append(b, '/')
	return string(strconv.AppendUint(b, n.tidSeq.Add(1), 10))
}

// SetLandFunc installs the execution engine invoked for accepted naplets.
func (n *Navigator) SetLandFunc(f LandFunc) { n.onLand = f }

// SetAdmitFunc installs the resource-admission veto.
func (n *Navigator) SetAdmitFunc(f AdmitFunc) { n.admit = f }

// SetBeforeLandFunc installs a hook HandleTransfer calls with the naplet's
// ID once a transfer is known not to be a replay and before any landing
// check or state change. It may block: the server holds a returning naplet
// here until its previous stay on this dock has been released. Replays and
// landing requests never wait, so an origin still resolving a lost ack is
// always answered.
func (n *Navigator) SetBeforeLandFunc(f func(nid id.NapletID)) { n.beforeLand = f }

// SetPersistFunc installs a hook called synchronously inside HandleTransfer
// with the newly landed record, after the landing is accepted and marked
// but before the acknowledgement returns to the origin. A durable dock
// commits its snapshot here, so a naplet acknowledged as landed survives a
// crash of this server (commit-before-ack: the origin only releases its
// copy after the ack).
func (n *Navigator) SetPersistFunc(f func(rec *naplet.Record)) { n.persist = f }

// AcceptedSnapshot returns the transfer IDs currently remembered by the
// landing dedup window, for persistence across a restart.
func (n *Navigator) AcceptedSnapshot() []string { return n.accepted.Keys() }

// RestoreAccepted re-marks previously accepted transfer IDs so replays of
// pre-restart migrations are still absorbed after recovery.
func (n *Navigator) RestoreAccepted(ids []string) {
	for _, id := range ids {
		n.accepted.Mark(id)
	}
}

// Stats snapshots the navigator's activity counters from the telemetry
// registry.
func (n *Navigator) Stats() Stats {
	return Stats{
		Dispatched:      n.met.dispatched.Value(),
		Landed:          n.met.landed.Value(),
		Refused:         n.met.refused.Value(),
		CodePushed:      n.met.codePushed.Value(),
		CodePulled:      n.met.codePulled.Value(),
		CodeServed:      n.met.codeServed.Value(),
		HomeReports:     n.met.homeReports.Value(),
		Retries:         n.met.retries.Value(),
		DupTransfers:    n.met.dupTransfer.Value(),
		DirectTransfers: n.met.direct.Value(),
		CodeReasks:      n.met.codeReasks.Value(),
	}
}

// ---- Origin side ----

// Dispatch migrates a resident naplet to dest, following the paper's
// protocol. On success the origin's manager has recorded the departure and
// the directory/home have been notified; the caller releases local
// resources (mailbox, monitor group). The returned Breakdown reports the
// migration cost components.
func (n *Navigator) Dispatch(ctx context.Context, rec *naplet.Record, dest string) (Breakdown, error) {
	return n.DispatchID(ctx, rec, dest, n.NewTransferID())
}

// DispatchID is Dispatch with a caller-supplied transfer ID; retries of
// the same logical migration must reuse the ID. Every attempt records a
// hop span when a tracer is configured; successful dispatches also feed
// the hop-latency histogram.
func (n *Navigator) DispatchID(ctx context.Context, rec *naplet.Record, dest, transferID string) (Breakdown, error) {
	hop := rec.Log.Len()
	wallStart := n.clock()
	bd, err := n.dispatchID(ctx, rec, dest, transferID)
	if err == nil {
		n.met.hopLatency.ObserveDuration(bd.Total)
	} else {
		// Any failed call or refusal says this origin's picture of dest is
		// stale: the next attempt asks for landing permission first.
		n.warm.drop(dest)
	}
	if n.cfg.Tracer != nil {
		span := telemetry.HopSpan{
			Naplet:      rec.ID.Key(),
			Hop:         hop,
			From:        n.server,
			To:          dest,
			Start:       wallStart,
			Serialize:   bd.Serialize,
			Negotiation: bd.Negotiation,
			Transfer:    bd.Transfer,
			Total:       bd.Total,
			RecordBytes: bd.RecordBytes,
			CodeBytes:   bd.CodeBytes,
			Outcome:     telemetry.OutcomeOK,
		}
		if err != nil {
			span.Outcome = telemetry.OutcomeFailed
			if errors.Is(err, ErrLandingDenied) {
				span.Outcome = telemetry.OutcomeRefused
			}
			span.Err = err.Error()
			span.Total = n.clock().Sub(wallStart)
		}
		n.cfg.Tracer.Record(span)
	}
	return bd, err
}

func (n *Navigator) dispatchID(ctx context.Context, rec *naplet.Record, dest, transferID string) (Breakdown, error) {
	var bd Breakdown
	start := n.clock()

	// 1. LAUNCH permission at the origin.
	if n.sec != nil {
		if err := n.sec.CheckLaunch(&rec.Credential); err != nil {
			return bd, fmt.Errorf("%w: %v", ErrLaunchDenied, err)
		}
	}

	// Serialize early so the landing request can carry the true size.
	serStart := n.clock()
	recordBytes, err := EncodeRecord(rec)
	if err != nil {
		return bd, err
	}
	bd.Serialize = n.clock().Sub(serStart)
	bd.RecordBytes = len(recordBytes)

	// The bundle's content digest travels with whichever frame reaches the
	// destination first, so one that already holds the bytes (under any
	// codebase name) can skip the code transfer.
	transfer := TransferBody{Record: recordBytes, TransferID: transferID}
	digest := ""
	if n.reg != nil {
		digest, _ = n.reg.BundleDigest(rec.Codebase)
	}

	// 2. LANDING permission at the destination — skipped when dest is proven
	// warm for this code and still held alive: the transfer re-runs every
	// check the request would, and only a first contact needs the request's
	// other property, that losing it is never ambiguous.
	if n.warm.has(dest, digest) && n.cfg.Health.State(dest) == health.StateAlive {
		n.met.direct.Inc()
		transfer.CodeDigest = digest
	} else {
		negStart := n.clock()
		req := LandingRequestBody{
			NapletID:   rec.ID,
			Credential: rec.Credential,
			Codebase:   rec.Codebase,
			StateSize:  len(recordBytes),
			CodeDigest: digest,
		}
		reply, err := n.call(ctx, dest, wire.BinaryFrame(wire.KindLandingRequest, "", "", &req), n.callBudget(start))
		if err != nil {
			return bd, fmt.Errorf("navigator: landing request to %s: %w", dest, err)
		}
		var landing LandingReplyBody
		if err := landing.Decode(reply.Payload); err != nil {
			return bd, err
		}
		bd.Negotiation = n.clock().Sub(negStart)
		if !landing.Granted {
			return bd, fmt.Errorf("%w by %s: %s", ErrLandingDenied, dest, landing.Reason)
		}
		if landing.NeedCode && n.cfg.CodeDelivery == Push {
			if err := n.attachCode(rec, &transfer, &bd); err != nil {
				return bd, err
			}
		}
	}

	// 3. Transfer. A destination whose cache went cold since it was proven
	// (or since its landing reply) answers NeedCode without landing
	// anything; resend once under the same transfer ID with the bundle.
	trStart := n.clock()
	ack, err := n.transfer(ctx, dest, &transfer, n.callBudget(start))
	reasked := err == nil && ack.NeedCode
	if reasked {
		n.met.codeReasks.Inc()
		n.warm.drop(dest)
		if err := n.attachCode(rec, &transfer, &bd); err != nil {
			return bd, err
		}
		bd.Negotiation += n.clock().Sub(trStart)
		trStart = n.clock()
		ack, err = n.transfer(ctx, dest, &transfer, n.callBudget(start))
	}
	switch {
	case err != nil:
		return bd, err
	case ack.NeedCode:
		return bd, fmt.Errorf("%w by %s: code bundle refused", ErrRejected, dest)
	case ack.Denied:
		return bd, fmt.Errorf("%w by %s: %s", ErrLandingDenied, dest, ack.Reason)
	case !ack.Accepted:
		return bd, fmt.Errorf("%w by %s: %s", ErrRejected, dest, ack.Reason)
	}
	bd.Transfer = n.clock().Sub(trStart)

	// 5. Success: record the departure locally and release.
	now := n.clock()
	if n.mgr != nil {
		_ = n.mgr.RecordDeparture(rec.ID, dest, now)
	}
	rec.Log.RecordDeparture(n.server, now)
	n.met.dispatched.Inc()
	if !reasked {
		n.warm.add(dest, digest)
	}
	bd.Total = n.clock().Sub(start)
	return bd, nil
}

// call is one protocol round trip to dest under the given timeout.
func (n *Navigator) call(ctx context.Context, dest string, f wire.Frame, timeout time.Duration) (wire.Frame, error) {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return n.node.Call(cctx, dest, f)
}

// callBudget is the timeout of the next call of a dispatch attempt that
// began at start: the call timeout, cut short so that the attempt — which
// blocks nowhere but in its at most three calls — ends within twice that.
func (n *Navigator) callBudget(start time.Time) time.Duration {
	return min(n.cfg.CallTimeout, 2*n.cfg.CallTimeout-n.clock().Sub(start))
}

// attachCode adds the codebase's bundle to an outbound transfer.
func (n *Navigator) attachCode(rec *naplet.Record, transfer *TransferBody, bd *Breakdown) error {
	bundle, err := n.reg.Bundle(rec.Codebase)
	if err != nil {
		return err
	}
	transfer.Code = bundle
	bd.CodeBytes = len(bundle)
	n.met.codePushed.Inc()
	return nil
}

// transfer sends the transfer frame and reads the destination's answer. An
// error is either refused before delivery (transport.Refused: the naplet
// provably did not land) or ErrTransferUnresolved.
func (n *Navigator) transfer(ctx context.Context, dest string, body *TransferBody, timeout time.Duration) (TransferAckBody, error) {
	var ack TransferAckBody
	reply, err := n.call(ctx, dest, wire.BinaryFrame(wire.KindNapletTransfer, "", "", body), timeout)
	switch {
	case err == nil:
		if derr := ack.Decode(reply.Payload); derr != nil {
			// The destination replied, so the handler ran — and may have
			// landed the naplet — but the ack is unreadable.
			return ack, fmt.Errorf("%w: transfer ack from %s: %v", ErrTransferUnresolved, dest, derr)
		}
		return ack, nil
	case transport.Refused(err):
		return ack, fmt.Errorf("navigator: transfer to %s: %w", dest, err)
	default:
		// Lost somewhere past the send: the transfer may have landed.
		return ack, fmt.Errorf("%w: transfer to %s: %w", ErrTransferUnresolved, dest, err)
	}
}

// RegisterArrival reports the naplet's arrival at this server to the
// directory and/or the naplet's home manager, best effort. It is the only
// location event a dock writes: the next stop's arrival supersedes it. The
// sequence number comes from the navigation log, which travels with the
// record and so is monotone across servers. Exported so the server can
// register launch-time arrivals and clone births.
func (n *Navigator) RegisterArrival(ctx context.Context, rec *naplet.Record, at time.Time) {
	if n.cfg.Directory != nil {
		var seq uint64
		if hops := uint64(rec.Log.Len()); hops > 0 {
			seq = 2*hops - 1
		}
		cctx, cancel := context.WithTimeout(ctx, n.cfg.CallTimeout)
		_ = n.cfg.Directory.RegisterEvent(cctx, directory.Registration{
			NapletID: rec.ID, Event: directory.Arrival,
			Server: n.server, At: at, Seq: seq,
		})
		cancel()
	}
	if !n.cfg.ReportHome {
		return
	}
	if rec.Home == n.server {
		if n.mgr != nil {
			n.mgr.HomeRecord(rec.ID, n.server, true, at)
		}
		return
	}
	body := HomeEventBody{NapletID: rec.ID, Server: n.server, Arrival: true, At: at}
	_, _ = n.call(ctx, rec.Home, wire.BinaryFrame(wire.KindHomeEvent, "", "", &body), n.cfg.CallTimeout)
	n.met.homeReports.Inc()
}

// ---- Destination side ----

// HandleLandingRequest answers a KindLandingRequest frame.
func (n *Navigator) HandleLandingRequest(from string, f wire.Frame) (wire.Frame, error) {
	var req LandingRequestBody
	if err := req.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	reply := LandingReplyBody{}
	if n.sec != nil {
		if err := n.sec.CheckLanding(&req.Credential); err != nil {
			n.met.refused.Inc()
			reply.Reason = err.Error()
			return wire.BinaryFrame(wire.KindLandingReply, f.To, f.From, &reply), nil
		}
	}
	if n.admit != nil {
		if err := n.admit(req); err != nil {
			n.met.refused.Inc()
			reply.Reason = err.Error()
			return wire.BinaryFrame(wire.KindLandingReply, f.To, f.From, &reply), nil
		}
	}
	reply.Granted = true
	// The content-addressed alias: an unknown codebase name whose bundle
	// digest is already cached (fetched under another name, or before an
	// eviction-by-name) lands warm without a refetch.
	reply.NeedCode = !n.cache.Has(req.Codebase) && !n.cache.Alias(req.Codebase, req.CodeDigest)
	return wire.BinaryFrame(wire.KindLandingReply, f.To, f.From, &reply), nil
}

// HandleTransfer answers a KindNapletTransfer frame, and is the one place
// that decides a landing: a transfer may arrive without a landing request
// before it, and a request's grant is not trusted to match the transfer. In
// order: replay dedup, the before-land hook, admission veto, LANDING
// permission on the record's own credential, credential↔ID match, code loading, arrival registration
// (synchronously, before execution and before the ack), dock commit, hand
// over to the visit engine.
func (n *Navigator) HandleTransfer(from string, f wire.Frame) (wire.Frame, error) {
	// Every refusal is a typed ack, not an error frame: it proves to the
	// origin that nothing landed here, which its failover logic relies on.
	// (An error frame would be ambiguous — it is also what a handler panic
	// produces.)
	answer := func(ack TransferAckBody) (wire.Frame, error) {
		return wire.BinaryFrame(wire.KindTransferAck, f.To, f.From, &ack), nil
	}
	var transfer TransferBody
	if err := transfer.Decode(f.Payload); err != nil {
		return answer(TransferAckBody{Reason: err.Error()})
	}
	// Deduplicate replayed transfers before anything else (the record is
	// not even decoded for one): if the acknowledgement of a landing was
	// lost (or the frame itself was duplicated in flight), the same
	// transfer ID arrives again; the naplet already landed, so just
	// re-acknowledge. The window is keyed by transfer ID alone, so even a
	// stale replay arriving after a newer migration of the same naplet is
	// absorbed rather than double-landing it. Concurrent deliveries of
	// the same ID — a retry racing a first delivery whose handler is
	// still running (the window is marked only once the landing
	// succeeds) — are single-flighted: the second waits for the first to
	// settle and then reads the window, so two copies can never land.
	if transfer.TransferID != "" {
		for {
			if n.accepted.Seen(transfer.TransferID) {
				n.met.dupTransfer.Inc()
				return answer(TransferAckBody{Accepted: true})
			}
			n.landingMu.Lock()
			settled, busy := n.landing[transfer.TransferID]
			if !busy {
				n.landing[transfer.TransferID] = make(chan struct{})
				n.landingMu.Unlock()
				break
			}
			n.landingMu.Unlock()
			<-settled
		}
		defer func() {
			n.landingMu.Lock()
			close(n.landing[transfer.TransferID])
			delete(n.landing, transfer.TransferID)
			n.landingMu.Unlock()
		}()
	}
	// transfer.Record is a view of the frame's payload, which the fabric
	// may reuse once this handler returns; the decode takes one copy of
	// the record's state, book and log sections, checked but left
	// encoded, so the landed naplet keeps nothing of the frame.
	rec, err := DecodeRecord(transfer.Record)
	if err != nil {
		return answer(TransferAckBody{Reason: err.Error()})
	}
	if n.beforeLand != nil {
		n.beforeLand(rec.ID)
	}
	if n.admit != nil {
		err := n.admit(LandingRequestBody{
			NapletID:   rec.ID,
			Credential: rec.Credential,
			Codebase:   rec.Codebase,
			StateSize:  len(transfer.Record),
			CodeDigest: transfer.CodeDigest,
		})
		if err != nil {
			n.met.refused.Inc()
			return answer(TransferAckBody{Denied: true, Reason: err.Error()})
		}
	}
	if n.sec != nil {
		if err := n.sec.CheckLanding(&rec.Credential); err != nil {
			n.met.refused.Inc()
			return answer(TransferAckBody{Denied: true, Reason: err.Error()})
		}
	}
	if !rec.Credential.NapletID.Equal(rec.ID) {
		n.met.refused.Inc()
		return answer(TransferAckBody{Reason: "credential does not certify this naplet"})
	}

	// Lazy code loading. Received bundles are cached under their content
	// digest too (self-certified by hashing the received bytes), so later
	// landings of any codebase with the same content skip the transfer. A
	// name the cache does not know may still be warm by content: the alias
	// lands it without a refetch.
	if len(transfer.Code) > 0 {
		n.cache.LoadedDigest(rec.Codebase, bundleDigest(transfer.Code), len(transfer.Code))
	} else if !n.cache.Has(rec.Codebase) && !n.cache.Alias(rec.Codebase, transfer.CodeDigest) {
		if n.cfg.CodeDelivery == Push {
			// Cold, and the origin sent no code (it skipped the landing
			// request on stale proof, or the cache was evicted since the
			// reply): ask for it. Nothing has landed and the window stays
			// unmarked, so the resend under the same ID lands normally.
			return answer(TransferAckBody{NeedCode: true})
		}
		if err := n.pullCode(rec); err != nil {
			return answer(TransferAckBody{Reason: err.Error()})
		}
	}

	// Arrival bookkeeping, then registration, then execution.
	now := n.clock()
	if n.mgr != nil {
		n.mgr.RecordArrival(rec.ID, rec.Codebase, from, now)
	}
	rec.Log.RecordArrival(n.server, now)
	n.RegisterArrival(context.Background(), rec, now)
	n.met.landed.Inc()
	// Mark only after the landing fully succeeded: a transfer that failed
	// validation or code loading must stay retryable under the same ID.
	if transfer.TransferID != "" {
		n.accepted.Mark(transfer.TransferID)
	}
	// Commit durable state before the ack leaves: once the origin hears
	// "accepted" it releases its copy, so this server must be able to
	// recover the naplet from its dock after a crash.
	if n.persist != nil {
		n.persist(rec)
	}

	if n.onLand != nil {
		go n.onLand(rec, from)
	}
	return answer(TransferAckBody{Accepted: true})
}

// pullCode fetches the bundle from the naplet's home server.
func (n *Navigator) pullCode(rec *naplet.Record) error {
	body := CodeFetchBody{Codebase: rec.Codebase}
	reply, err := n.call(context.Background(), rec.Home, wire.BinaryFrame(wire.KindCodeFetch, "", "", &body), n.cfg.CallTimeout)
	if err != nil {
		return fmt.Errorf("navigator: code fetch from %s: %w", rec.Home, err)
	}
	var bundle CodeBundleBody
	if err := bundle.Decode(reply.Payload); err != nil {
		return err
	}
	n.cache.LoadedDigest(rec.Codebase, bundleDigest(bundle.Data), len(bundle.Data))
	n.met.codePulled.Inc()
	return nil
}

// HandleCodeFetch serves a code bundle to a server with a cold cache.
func (n *Navigator) HandleCodeFetch(from string, f wire.Frame) (wire.Frame, error) {
	var req CodeFetchBody
	if err := req.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	data, err := n.reg.Bundle(req.Codebase)
	if err != nil {
		return wire.Frame{}, err
	}
	n.met.codeServed.Inc()
	return wire.BinaryFrame(wire.KindCodeBundle, f.To, f.From, &CodeBundleBody{Data: data}), nil
}

// HandleHomeEvent records a remote arrival/departure report for a naplet
// homed at this server.
func (n *Navigator) HandleHomeEvent(from string, f wire.Frame) (wire.Frame, error) {
	var body HomeEventBody
	if err := body.Decode(f.Payload); err != nil {
		return wire.Frame{}, err
	}
	if n.mgr != nil {
		n.mgr.HomeRecord(body.NapletID, body.Server, body.Arrival, body.At)
	}
	return wire.Frame{Kind: wire.KindControlReply, From: f.To, To: f.From}, nil
}
