package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/id"
	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/server"
	"repro/internal/state"
)

// Load shape: a closed loop of two clients. Callers of a naplet space wait
// for an agent's report, so closed is the honest model, and two keeps the
// requests in flight at or under the cores of the reference box.
const (
	loadClients = 2
	// requestDeadline bounds every request (and every wait of a chase
	// agent for its peer), sessionDeadline a whole chase session; a trapped
	// tour or lost message becomes failed ops, never a hang.
	requestDeadline = 2 * time.Second
	sessionDeadline = 5 * time.Second
	// warmupOps is the fixed warm-up that belongs to set-up (200 tours'
	// worth on every workload): code caches, mux connections and pools are
	// warm before measurement.
	warmupOps = 1600
	// planCycle is how many seeded routes a plan holds; request i uses
	// route i mod planCycle.
	planCycle = 64
	owner     = "bench"
)

// workloadSpec describes one named workload.
type workloadSpec struct {
	name string
	why  string
	tcp  bool
	// opsPerReq is the unit-of-account conversion: hops per tour, visits
	// per wave, 1 for a chased message.
	opsPerReq int
	// reqPerSession is how many requests one client-loop iteration makes.
	reqPerSession int
	// A route visits stops of the fleet's pool docks; with halves, routes
	// alternate between the lower and the upper half of the pool.
	pool, stops int
	halves      bool
	build       func(fl *fleet, p *plan) (sessionFunc, error)
}

// sessionFunc runs one client-loop iteration: it issues its requests,
// verifies them and records every one in rec. n is the global request-plan
// index of the iteration.
type sessionFunc func(ctx context.Context, n int, rec *recorder)

var workloads = []workloadSpec{
	{
		name: "tour-tcp", tcp: true, opsPerReq: tourStops, reqPerSession: 1,
		pool: tourStops, stops: tourStops, build: buildTour,
		why: "8-hop tours over loopback TCP: sockets, mux and frame codec are about half the work, so transport and wire changes show here first",
	},
	{
		name: "tour-netsim", opsPerReq: tourStops, reqPerSession: 1,
		pool: tourStops, stops: tourStops, build: buildTour,
		why: "the identical tour plan on the in-memory fabric: what is left is the dock stack itself; a transport change must predict no change here",
	},
	{
		name: "chase-tcp", tcp: true, opsPerReq: 1, reqPerSession: mailPerSession,
		pool: tourStops, stops: tourStops, build: buildChase,
		why: "128 B posts following a mover from dock to dock, 8 per stop and none in flight while it migrates: tiny mail frames and a directory lookup per post, where tours only register",
	},
	{
		name: "sweep-netsim", opsPerReq: sweepStops, reqPerSession: 1,
		pool: sweepDevices, stops: sweepStops, halves: true, build: buildSweep,
		why: "the paper's MAN sweep over 16 of 32 devices: the record grows at every stop, so state-codec and record-size work shows here, not on fixed-size tours",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// plan is everything generated from the seed; the program under test sees
// only these inputs. Routes are indices, not addresses, so the same seed
// yields the same digest on every fabric.
type plan struct {
	seed    int64
	routes  [][]int  // planCycle permutations of the stops a request visits
	payload []byte   // the 256 B state key a tour carries
	mail    [][]byte // the 128 B bodies one chase session posts
}

// newPlan derives the plan workload w runs for seed.
func newPlan(w workloadSpec, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{seed: seed, payload: make([]byte, 256)}
	rng.Read(p.payload)
	for i := 0; i < mailPerSession; i++ {
		body := make([]byte, 128)
		rng.Read(body)
		p.mail = append(p.mail, body)
	}
	for i := 0; i < planCycle; i++ {
		base, span := 0, w.pool
		if w.halves {
			span = w.pool / 2
			base = (i % 2) * span
		}
		route := rng.Perm(span)[:w.stops]
		for j := range route {
			route[j] += base
		}
		p.routes = append(p.routes, route)
	}
	return p
}

// digest fingerprints the generated inputs.
func (p *plan) digest() string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(p.seed))
	h.Write(b[:])
	for _, r := range p.routes {
		for _, s := range r {
			h.Write([]byte{byte(s)})
		}
	}
	h.Write(p.payload)
	for _, m := range p.mail {
		h.Write(m)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// route resolves request n's planned stops to dock names.
func (p *plan) route(fl *fleet, n int) []string {
	idx := p.routes[n%planCycle]
	out := make([]string, len(idx))
	for i, s := range idx {
		out[i] = fl.stops[s].Name()
	}
	return out
}

// buildTour prepares the tour workloads: one request is one sequential tour
// of all eight docks in seeded order, launched at the home dock and timed to
// the final listener report.
func buildTour(fl *fleet, p *plan) (sessionFunc, error) {
	reg, err := newAgentRegistry(new(sync.Map))
	if err != nil {
		return nil, err
	}
	if err := fl.buildTourFleet(reg); err != nil {
		return nil, err
	}
	return func(ctx context.Context, n int, rec *recorder) {
		route := p.route(fl, n)
		done := rec.root()
		start := time.Now()
		rctx, cancel := context.WithTimeout(ctx, requestDeadline)
		defer cancel()
		report := make(chan []byte, 1)
		nid, err := fl.home.Launch(rctx, server.LaunchOptions{
			Owner:    owner,
			Codebase: tourCodebase,
			Pattern:  itinerary.SeqVisits(route, ""),
			InitState: func(st *state.State) error {
				return st.SetPrivate(payloadKey, p.payload)
			},
			Listener: func(r manager.Result) { report <- r.Body },
		})
		rec.launched(time.Since(start))
		failed := tourStops
		if err == nil {
			select {
			case body := <-report:
				if string(body) == strings.Join(route, ",") {
					failed = 0
				}
			case <-rctx.Done(): // trapped or lost: all its hops failed
			}
		}
		rec.add(start, time.Since(start), tourStops, failed)
		done(fl.home, nid)
	}, nil
}

// buildSweep prepares sweep-netsim: one request is one CollectSequential
// wave over sixteen devices, timed to the decoded merged report.
func buildSweep(fl *fleet, p *plan) (sessionFunc, error) {
	if err := fl.buildSweepFleet(p.seed); err != nil {
		return nil, err
	}
	oids := fl.tb.QueryOIDs(sweepVars)
	return func(ctx context.Context, n int, rec *recorder) {
		devices := p.route(fl, n)
		done := rec.root()
		start := time.Now()
		rctx, cancel := context.WithTimeout(ctx, requestDeadline)
		defer cancel()
		report, _, err := fl.tb.Station.CollectSequential(rctx, devices, oids)
		failed := 0
		if err != nil || len(report) != len(devices) {
			failed = sweepStops
		} else {
			for _, d := range devices {
				if len(report[d]) != sweepVars {
					failed++
				}
			}
		}
		rec.add(start, time.Since(start), sweepStops, failed)
		// CollectSequential has already waited for the naplet's completion.
		done(fl.home, id.NapletID{})
	}, nil
}

// buildChase prepares chase-tcp: a session launches a mover on a seeded
// tour of the eight docks, waits for its "ready" from the first stop, then
// launches a stationary sender at home that posts the session's mail, eight
// messages per stop of the mover. One post, timed to its confirmation, is one
// request.
func buildChase(fl *fleet, p *plan) (sessionFunc, error) {
	ss := new(sync.Map)
	reg, err := newAgentRegistry(ss)
	if err != nil {
		return nil, err
	}
	if err := fl.buildTourFleet(reg); err != nil {
		return nil, err
	}
	wantSum := 0
	for _, body := range p.mail {
		wantSum += mailSum(body)
	}
	want := fmt.Sprintf("%d:%d", mailPerSession, wantSum)

	return func(ctx context.Context, n int, rec *recorder) {
		sctx, cancel := context.WithTimeout(ctx, sessionDeadline)
		defer cancel()
		route := p.route(fl, n)
		cs := &chaseSession{hint: route[0], mail: p.mail, rec: rec}
		done := rec.root()
		// lost is how many of the session's messages were not received
		// exactly once; every way a session can die loses all of them.
		lost := mailPerSession
		defer func() {
			cs.settle(lost)
			done(fl.home, cs.target)
		}()

		reports := make(chan []byte, 2)
		start := time.Now()
		mover, err := fl.home.Launch(sctx, server.LaunchOptions{
			Owner:    owner,
			Codebase: moverCodebase,
			Pattern:  itinerary.SeqVisits(route, ""),
			Listener: func(r manager.Result) { reports <- r.Body },
		})
		rec.launched(time.Since(start))
		if err != nil {
			return
		}
		cs.target = mover
		select {
		case <-reports: // "ready" from the first stop
		case <-sctx.Done():
			return
		}
		key := mover.String()
		ss.Store(key, cs)
		sender, err := fl.home.Launch(sctx, server.LaunchOptions{
			Owner:    owner + "-sender",
			Codebase: senderCodebase,
			Pattern:  itinerary.Singleton(itinerary.Visit{Server: fl.home.Name()}),
			InitState: func(st *state.State) error {
				return st.SetPrivate(sessionKey, key)
			},
		})
		if err != nil {
			ss.Delete(key)
			return
		}
		if _, err := fl.home.WaitDone(sctx, sender); err != nil {
			return
		}
		select {
		case body := <-reports:
			lost = chaseLost(string(body), want)
		case <-sctx.Done():
		}
	}, nil
}

// chaseLost compares the mover's "count:checksum" with what the sender
// posted and returns how many messages were not received exactly once.
func chaseLost(got, want string) int {
	if got == want {
		return 0
	}
	var count, sum int
	if _, err := fmt.Sscanf(got, "%d:%d", &count, &sum); err != nil {
		return mailPerSession
	}
	lost := mailPerSession - count
	if lost < 0 {
		lost = -lost
	}
	if lost == 0 {
		lost = 2 // right count, wrong checksum: one lost and one duplicated
	}
	return lost
}
