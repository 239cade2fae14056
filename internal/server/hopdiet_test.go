package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/directory"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/navigator"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/security"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// kindCounter is a fabric decorator that counts the calls its nodes send,
// by frame kind, and the bytes both frames of each call take on the wire.
type kindCounter struct {
	inner transport.Fabric
	mu    sync.Mutex
	calls map[wire.Kind]int
	bytes map[wire.Kind]int
	open  int        // calls sent and not yet returned
	idled *sync.Cond // broadcast when open falls to 0
}

func newKindCounter() *kindCounter {
	k := &kindCounter{calls: make(map[wire.Kind]int), bytes: make(map[wire.Kind]int)}
	k.idled = sync.NewCond(&k.mu)
	return k
}

// idle waits until no call is in flight. The fabric meters a frame when it
// is sent, and the reply after the handler returns: a call whose handling
// ended a naplet is still sending when its owner hears of the end. Once the
// calls in flight at that moment are back, the meters are final.
func (k *kindCounter) idle() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for k.open > 0 {
		k.idled.Wait()
	}
}

func (k *kindCounter) Attach(addr string, h transport.Handler) (transport.Node, error) {
	node, err := k.inner.Attach(addr, h)
	if err != nil {
		return nil, err
	}
	return &countingNode{Node: node, k: k}, nil
}

func (k *kindCounter) totalBytes() (n int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, b := range k.bytes {
		n += b
	}
	return n
}

// take returns the counts so far and starts over.
func (k *kindCounter) take() (calls, bytes map[wire.Kind]int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	calls, bytes = k.calls, k.bytes
	k.calls, k.bytes = make(map[wire.Kind]int), make(map[wire.Kind]int)
	return calls, bytes
}

type countingNode struct {
	transport.Node
	k *kindCounter
}

func (n *countingNode) Call(ctx context.Context, to string, f wire.Frame) (wire.Frame, error) {
	n.k.mu.Lock()
	n.k.open++
	n.k.mu.Unlock()
	reply, err := n.Node.Call(ctx, to, f)
	// The fabric stamps the request with its addresses and a Seq that the
	// reply echoes, budget and all: restamped, f is the frame it metered.
	f.From, f.To, f.Seq = n.Addr(), to, reply.Seq
	n.k.mu.Lock()
	if n.k.open--; n.k.open == 0 {
		n.k.idled.Broadcast()
	}
	n.k.calls[f.Kind]++
	if err == nil {
		n.k.bytes[f.Kind] += f.EncodedSize()
		n.k.bytes[reply.Kind] += reply.EncodedSize()
	}
	n.k.mu.Unlock()
	return reply, err
}

// TestWarmTourCallBudget pins what a hop costs on the fabric. The first
// tour of a fresh fleet asks every dock for landing permission (nobody
// holds proof of anybody); the second tour of the same route is one
// transfer per hop, plus two registrations — the launch's and the one a
// silent naplet makes on its eighth hop, a due hop — and the one report
// that ends a tour, carrying the collector's result with "completed": 11
// calls for 8 hops (18 while every landing registered before its ack).
func TestWarmTourCallBudget(t *testing.T) {
	counter := newKindCounter()
	route := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"}
	sp := newSpace(t, spaceOpts{
		mode:      locator.ModeDirectory,
		directory: true,
		mutate:    func(_ string, cfg *Config) { counter.inner = cfg.Fabric; cfg.Fabric = counter },
	}, append([]string{"home"}, route...)...)

	tour := func() (map[wire.Kind]int, []telemetry.HopSpan) {
		t.Helper()
		nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
			Owner:    "czxu",
			Codebase: "test.Collector",
			Pattern:  itinerary.SeqVisits(route, ""),
		})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
		// The owner hears of the end while the tour's last calls are
		// still returning, and each hop's origin records its span after
		// its transfer call returns: read the meters once both are in.
		counter.idle()
		var spans []telemetry.HopSpan
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			spans = spans[:0]
			for _, s := range sp.servers {
				spans = append(spans, s.Tracer().Spans(nid.Key())...)
			}
			if len(spans) >= len(route) || time.Now().After(deadline) {
				break
			}
		}
		calls, _ := counter.take()
		return calls, spans
	}
	direct := func() (n int64) {
		for _, s := range sp.servers {
			n += s.Navigator().Stats().DirectTransfers
		}
		return n
	}

	cold, spans := tour()
	if cold[wire.KindLandingRequest] != 8 || cold[wire.KindNapletTransfer] != 8 || direct() != 0 {
		t.Fatalf("first tour must take the two-step path at every dock: %v, %d direct", cold, direct())
	}
	for _, span := range spans {
		if span.Negotiation == 0 {
			t.Fatalf("a two-step hop negotiates: %+v", span)
		}
	}

	warm, spans := tour()
	want := map[wire.Kind]int{
		wire.KindNapletTransfer: 8,
		wire.KindDirRegister:    2, // the launch, and the arrival at d7: hop 8 is due
		wire.KindReport:         1, // "completed" with the collector's result
	}
	total := 0
	for _, n := range warm {
		total += n
	}
	for kind, n := range want {
		if warm[kind] != n {
			t.Errorf("warm tour sent %d %s calls, want %d", warm[kind], kind, n)
		}
	}
	if total != 11 || direct() != 8 {
		t.Fatalf("warm tour sent %d calls (%v) with %d direct transfers, want 11 and 8", total, warm, direct())
	}
	if len(spans) != 8 {
		t.Fatalf("warm tour recorded %d hop spans, want 8", len(spans))
	}
	for _, span := range spans {
		if span.Negotiation != 0 || span.Outcome != telemetry.OutcomeOK {
			t.Fatalf("a proven hop has no negotiation phase: %+v", span)
		}
	}
}

// TestWarmTourByteBudget pins what a warm hop weighs, frame kind by frame
// kind, the way TestWarmTourCallBudget pins how many frames it is: the same
// 8-hop directory-mode tour, on a frozen clock so that every timestamp and
// identifier has one size. A codec change that adds a byte to any of the
// frames a tour is made of fails here, not in the benchmark a PR
// later. The sums are also checked against what the fabric itself metered.
func TestWarmTourByteBudget(t *testing.T) {
	counter := newKindCounter()
	frozen := time.Date(2026, 1, 2, 3, 4, 5, 600700800, time.UTC)
	route := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"}
	sp := newSpace(t, spaceOpts{
		mode:      locator.ModeDirectory,
		directory: true,
		mutate: func(_ string, cfg *Config) {
			counter.inner, cfg.Fabric = cfg.Fabric, counter
			cfg.Clock = func() time.Time { return frozen }
		},
	}, append([]string{"home"}, route...)...)
	tour := func() map[wire.Kind]int {
		t.Helper()
		before := sp.net.TotalStats().BytesSent
		nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
			Owner:    "czxu",
			Codebase: "test.Collector",
			Pattern:  itinerary.SeqVisits(route, ""),
		})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
		counter.idle()
		if total, metered := counter.totalBytes(), int(sp.net.TotalStats().BytesSent-before); total != metered {
			t.Fatalf("frames add up to %d bytes, the fabric metered %d", total, metered)
		}
		_, bytes := counter.take()
		return bytes
	}
	tour() // first contact: landing requests, cold code
	warm := tour()
	want := map[wire.Kind]int{
		wire.KindNapletTransfer: 1929, // 8: a record that grows by a log entry and a visited name per hop; 1937 with record v3's itinerary presence flag
		wire.KindTransferAck:    162,  // 8 acceptances
		wire.KindDirRegister:    104,  // 2: the launch, and the arrival at d7 (463 for 9 while every landing registered)
		wire.KindDirReply:       52,   // 2 (236 for 9)
		wire.KindReport:         65,   // the end: "completed" with the collector's result
		wire.KindControlReply:   17,   // its acknowledgement
	}
	for kind, n := range want {
		if warm[kind] != n {
			t.Errorf("warm tour: %d bytes of %s, want %d", warm[kind], kind, n)
		}
	}
	if len(warm) != len(want) {
		t.Errorf("warm tour sent frames of other kinds: %v", warm)
	}
}

// TestWarmTourAllocBudget pins what a warm hop allocates, the way the two
// tests above pin its frames and bytes: the same 8-hop directory-mode tour
// on netsim, malloc count of the whole process over 200 tours, per hop —
// launch, directory service, reports and the test's own waiting included,
// so it is not the benchmark's allocs_per_op. It reads 50.6 run after run
// (61.8 while a hop's calls each built a context with its timeout, a stay
// built its scaffolding in six pieces and a mailbox its wake channel, and
// a record's credential decoded a second copy of the record's ID; 73.4
// while every landing registered with the directory before its ack,
// 80.2 while the serving side built a context per frame for the admission
// gate and a group's resume channel was made at its admission, 87.7 while
// a landing decoded the whole itinerary left and a state's first write
// decoded every key, 96.6 while a landing decoded the record's state, book
// and log, 97.0 while a tour ended in two reports home, 170.2 before the
// identifier carried its text, an attempt one context per call and the
// itinerary its shared tail); the budget is that plus 15 %. An
// allocation per map look-up, per call or per step coming back fails here,
// not in the benchmark a PR later.
func TestWarmTourAllocBudget(t *testing.T) {
	const allocBudget = 58
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	route := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"}
	sp := newSpace(t, spaceOpts{mode: locator.ModeDirectory, directory: true}, append([]string{"home"}, route...)...)
	pattern := itinerary.SeqVisits(route, "")
	tour := func() {
		t.Helper()
		nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{Owner: "czxu", Codebase: "test.Collector", Pattern: pattern})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	}
	tour() // first contact: landing requests, cold code
	tour()
	const tours = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < tours; i++ {
		tour()
	}
	runtime.ReadMemStats(&after)
	perHop := float64(after.Mallocs-before.Mallocs) / (tours * float64(len(route)))
	t.Logf("%.1f allocs per hop", perHop)
	if perHop > allocBudget {
		t.Errorf("a warm hop allocates %.1f times, budget %d", perHop, allocBudget)
	}
}

// mailSink receives mail at its one stop until a "stop" message.
type mailSink struct{}

func (mailSink) OnStart(ctx *naplet.Context) error {
	for {
		msg, err := ctx.Messenger.Receive(ctx.Cancel)
		if err != nil || msg.Subject == "stop" {
			return err
		}
	}
}

// TestWarmPostAllocBudget pins what a warm post allocates, the way
// TestWarmTourAllocBudget pins a hop: a post from the home dock to a naplet
// resident at d0, in directory mode on netsim with the overload stack on
// as the benchmark's docks run it, each under its own deadline as a
// naplet's post is — the directory lookup, the post, its admission and
// delivery into the open mailbox, the naplet's receive and the
// confirmation, both sides and the test's own loop counted. It reads 24.2
// (28.1 while the admission gate's release was a func over a sync.Once and
// a message ID was formatted by fmt.Sprintf; 26.1 and 39.1 were read with
// the stack off, the latter while the serving side built a context per
// frame for the gate and two more per post for a chase that a delivered
// post never makes); the budget is that plus 15 %. A context built again
// for a frame that is served at once, or a release that allocates, fails
// here.
func TestWarmPostAllocBudget(t *testing.T) {
	const allocBudget = 28
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sp := newSpace(t, spaceOpts{mode: locator.ModeDirectory, directory: true, mutate: func(_ string, cfg *Config) { cfg.Overload = &overload.Options{} }}, "home", "d0")
	sp.reg.MustRegister(&registry.Codebase{Name: "test.MailSink", New: func() naplet.Behavior { return mailSink{} }})
	home := sp.servers["home"]
	sink, err := home.Launch(context.Background(), LaunchOptions{
		Owner:    "sink",
		Codebase: "test.MailSink",
		Pattern:  itinerary.SeqVisits([]string{"d0"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sink registers at d0 as it first waits for mail: from then on
	// the directory names the dock whose mailbox is open.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if e, ok := sp.dir.Lookup(sink); ok && e.Server == "d0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sink never registered at d0")
		}
	}
	sender := handRecord("czxu", "test.Sender", "home")
	sender.Book.Add(sink, "d0")
	body := make([]byte, 128)
	post := func(subject string) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := home.Messenger().Post(ctx, sender, sink, subject, body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		post("m")
	}
	const posts = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < posts; i++ {
		post("m")
	}
	runtime.ReadMemStats(&after)
	post("stop")
	waitDone(t, home, sink, manager.StatusCompleted)
	if st := sp.servers["d0"].Messenger().Stats(); st.Delivered != posts+51 || st.Held != 0 || st.Forwarded != 0 {
		t.Fatalf("posts were not all delivered straight into the open mailbox: %+v", st)
	}
	if n := home.Locator().Stats().Directory; n != posts+51 {
		t.Fatalf("%d directory lookups for %d posts, want one each", n, posts+51)
	}
	perPost := float64(after.Mallocs-before.Mallocs) / posts
	t.Logf("%.1f allocs per post", perPost)
	if perPost > allocBudget {
		t.Errorf("a warm post allocates %.1f times, budget %d", perPost, allocBudget)
	}
}

var handRecords atomic.Int64

// handRecord builds a naplet record as Launch would, for tests that drive
// the navigator directly to see its typed errors.
func handRecord(owner, codebase, home string) *naplet.Record {
	// IDs resolve to the second: space the ones one test mints.
	nid := id.MustNew(owner, home, time.Now().Add(time.Duration(handRecords.Add(1))*time.Second))
	rec := naplet.NewRecord(nid, cred.Credential{NapletID: nid, Codebase: codebase}, codebase, home, itinerary.MustNew(itinerary.SeqVisits([]string{"s1"}, "")))
	rec.Log.RecordArrival(home, time.Now())
	return rec
}

// waitResidents polls until srv holds exactly n resident naplets.
func waitResidents(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Manager().Resident() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%s holds %d residents, want %d", srv.Name(), srv.Manager().Resident(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRefusalMatrixBothPaths: every way a destination says no reads the
// same whether the origin asked first (two-step) or sent the transfer
// straight to a proven dock — same typed error, a refused/failed span,
// nothing landed, nothing retried.
func TestRefusalMatrixBothPaths(t *testing.T) {
	policy := security.Policy{
		Rules: []security.Rule{
			{Principal: "owner:guest", Permissions: []security.Permission{security.PermLanding}, Effect: security.Deny},
			{Principal: "*", Permissions: []security.Permission{"*"}, Effect: security.Allow},
		},
	}
	cases := []struct {
		name    string
		arrange func(t *testing.T, sp *space) *naplet.Record
		want    error
		reason  string
	}{
		{
			name: "policy denial",
			arrange: func(t *testing.T, sp *space) *naplet.Record {
				return handRecord("guest", "test.Collector", "home")
			},
			want: navigator.ErrLandingDenied, reason: "permission denied",
		},
		{
			name: "credential does not certify the ID",
			arrange: func(t *testing.T, sp *space) *naplet.Record {
				rec := handRecord("czxu", "test.Collector", "home")
				rec.Credential.NapletID = id.MustNew("mallory", "home", time.Now())
				return rec
			},
			want: navigator.ErrRejected, reason: "does not certify",
		},
		{
			name: "draining",
			arrange: func(t *testing.T, sp *space) *naplet.Record {
				if err := sp.servers["s1"].Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				return handRecord("czxu", "test.Collector", "home")
			},
			want: navigator.ErrLandingDenied, reason: "draining",
		},
		{
			name: "at capacity",
			arrange: func(t *testing.T, sp *space) *naplet.Record {
				if _, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
					Owner: "czxu", Codebase: "test.Sleeper", Pattern: itinerary.SeqVisits([]string{"s1"}, ""),
				}); err != nil {
					t.Fatal(err)
				}
				waitResidents(t, sp.servers["s1"], 1)
				return handRecord("czxu", "test.Collector", "home")
			},
			want: navigator.ErrLandingDenied, reason: "at capacity",
		},
	}
	for _, tc := range cases {
		for _, proven := range []bool{false, true} {
			tc, proven := tc, proven
			t.Run(fmt.Sprintf("%s/proven=%v", tc.name, proven), func(t *testing.T) {
				sp := newSpace(t, spaceOpts{policy: &policy, residents: 1}, "home", "s1")
				home, s1 := sp.servers["home"], sp.servers["s1"]
				if proven {
					// An accepted dispatch is the proof; the collector ends
					// at s1 and frees the one resident slot again.
					if _, err := home.nav.Dispatch(context.Background(), handRecord("czxu", "test.Collector", "home"), "s1", home.nav.NewTransferID(), transport.Backoff{}, nil); err != nil {
						t.Fatal(err)
					}
					waitResidents(t, s1, 0)
				}
				rec := tc.arrange(t, sp)
				before, landed := home.nav.Stats(), s1.nav.Stats().Landed

				pol := transport.Backoff{Retries: 3, Initial: time.Millisecond, Max: time.Millisecond}
				_, err := home.nav.Dispatch(context.Background(), rec, "s1", home.nav.NewTransferID(), pol, nil)
				if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.reason) {
					t.Fatalf("dispatch error = %v, want %v naming %q", err, tc.want, tc.reason)
				}
				if errors.Is(err, navigator.ErrTransferUnresolved) {
					t.Fatalf("a refusal proves nothing landed, got unresolved: %v", err)
				}
				after := home.nav.Stats()
				if got := after.DirectTransfers - before.DirectTransfers; (got == 1) != proven {
					t.Fatalf("direct transfers = %d with proven=%v", got, proven)
				}
				if after.Retries != before.Retries {
					t.Fatalf("a refusal is final, yet the dispatch retried %d times", after.Retries-before.Retries)
				}
				if got := s1.nav.Stats().Landed; got != landed {
					t.Fatalf("refused naplet landed (%d -> %d)", landed, got)
				}
				spans := home.Tracer().Spans(rec.ID.Key())
				wantOutcome := telemetry.OutcomeFailed
				if tc.want == navigator.ErrLandingDenied {
					wantOutcome = telemetry.OutcomeRefused
				}
				if len(spans) != 1 || spans[0].Outcome != wantOutcome {
					t.Fatalf("spans = %+v, want one with outcome %v", spans, wantOutcome)
				}
			})
		}
	}
}

// TestLostTransferAckMailFollowsLiveCopy: when a transfer lands but its
// acknowledgement is lost, the origin holds (and then ends) its copy while
// the live one runs at the destination. The origin writes nothing to the
// directory around a transfer, so the destination's arrival stands and mail
// addressed through the directory reaches the copy that is alive — not the
// origin, where the naplet's trace has ended and late mail errors.
func TestLostTransferAckMailFollowsLiveCopy(t *testing.T) {
	inj := fault.New(fault.Config{
		Seed:  1,
		P:     fault.Probabilities{DropReply: 1},
		Kinds: func(k wire.Kind) bool { return k == wire.KindNapletTransfer },
	})
	sp := newSpace(t, spaceOpts{
		mode:      locator.ModeDirectory,
		directory: true,
		mutate:    func(_ string, cfg *Config) { cfg.Fabric = inj.Fabric(cfg.Fabric) },
	}, "home", "s1")
	home := sp.servers["home"]

	got := make(chan string, 1)
	sp.reg.MustRegister(&registry.Codebase{
		Name: "test.Receiver",
		New: func() naplet.Behavior {
			return behaviorFunc(func(ctx *naplet.Context) error {
				msg, err := ctx.Messenger.Receive(ctx.Cancel)
				if err != nil {
					return err
				}
				got <- ctx.Server + ":" + msg.Subject
				return nil
			})
		},
	})
	nid, err := home.Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Receiver",
		Pattern:  itinerary.SeqVisits([]string{"s1"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The origin copy is held: trapped, its residency at home ended.
	waitDone(t, home, nid, manager.StatusTrapped)
	if _, errText, _ := home.Status(nid); !strings.Contains(errText, "transfer outcome unknown") {
		t.Fatalf("trap = %q, want an unresolved transfer", errText)
	}

	// The live copy registers at s1 before it first waits for mail, which
	// may be after the origin gave up its copy.
	var entry directory.Entry
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		entry, err = directory.NewClient(home.Node(), "dir").Lookup(context.Background(), nid)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Server == "s1" || time.Now().After(deadline) {
			break
		}
	}
	if entry.Server != "s1" || entry.Event != directory.Arrival {
		t.Fatalf("directory entry = %+v, want the arrival at s1", entry)
	}

	sender := naplet.NewRecord(id.MustNew("tx", "home", time.Now()), cred.Credential{}, "test.Receiver", "home", nil)
	sender.Book.Add(nid, "home") // a stale hint; the directory decides
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := home.Messenger().Post(ctx, sender, nid, "wake", nil); err != nil {
		t.Fatalf("post to the live copy: %v", err)
	}
	select {
	case where := <-got:
		if where != "s1:wake" {
			t.Fatalf("message received at %q, want s1:wake", where)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the live copy never received the message")
	}
}

// TestBounceTourLandsOnAReleasedDock: the destination starts a naplet
// before its acknowledgement is back at the origin, and a proven hop is one
// round trip, so on an A→B→A bounce with a short visit the naplet is back
// at A before A has released its previous stay. The landing waits for that
// release (migrate/awaitLeave) instead of trapping on the stale admission.
func TestBounceTourLandsOnAReleasedDock(t *testing.T) {
	sp := newSpace(t, spaceOpts{}, "home", "s1")
	const laps = 150
	var route []string
	for i := 0; i < laps; i++ {
		route = append(route, "s1", "home")
	}
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits(route, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	if got := <-results; got != strings.Join(route, ",") {
		t.Fatalf("tour of %d laps reported %d stops", laps, len(strings.Split(got, ",")))
	}
	if got := sp.servers["home"].Navigator().Stats().DirectTransfers; got != laps-1 {
		t.Fatalf("home sent %d direct transfers, want %d (every lap after the first)", got, laps-1)
	}
}

// TestBounceTourSurvivesLostAck: the wait above must not close a cycle. The
// ack of home→s1 is lost, so home's migration stays open, retrying, while
// the naplet — landed and already done at s1 — is on its way back. Its
// transfer waits at home; home's retry (a landing request and a replay of
// the first transfer) is answered by s1 without waiting, resolves the lost
// ack, and only then does the naplet land at home.
func TestBounceTourSurvivesLostAck(t *testing.T) {
	var dropped atomic.Bool
	inj := fault.New(fault.Config{
		Seed: 1,
		P:    fault.Probabilities{DropReply: 1},
		Kinds: func(k wire.Kind) bool {
			return k == wire.KindNapletTransfer && dropped.CompareAndSwap(false, true)
		},
	})
	sp := newSpace(t, spaceOpts{mutate: func(_ string, cfg *Config) {
		cfg.Fabric = inj.Fabric(cfg.Fabric)
		cfg.DispatchRetries = 5
		cfg.DispatchRetryDelay = time.Millisecond
	}}, "home", "s1")
	results := make(chan string, 1)
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1", "home"}, ""),
		Listener: func(r manager.Result) { results <- string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	if got := <-results; got != "s1,home" {
		t.Fatalf("tour = %q, want s1,home", got)
	}
	if got := sp.servers["s1"].Navigator().Stats(); got.DupTransfers != 1 || got.Landed != 1 {
		t.Fatalf("s1 must land once and absorb the replay: %+v", got)
	}
}
