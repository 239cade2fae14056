package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/id"
)

// TestOwnersAllocations: routing a key to its replica group costs the
// returned slice and nothing else — every register and lookup pays it.
func TestOwnersAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector say nothing about the code")
	}
	ring := NewRing(planeNodes(8))
	key := KeyOf(id.MustNew("czxu", "sa", t0))
	if n := testing.AllocsPerRun(100, func() { ring.Owners(key, 2) }); n > 1 {
		t.Errorf("Owners: %v allocs, want at most 1", n)
	}
}

func planeNodes(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("dir%d", i)
	}
	return names
}

// The shape of BenchmarkPlane's load: the drain cadence models dock
// restarts in a large space (each drain withdraws one server's share of the
// entries).
const (
	planeReaders    = 4
	planeWriters    = 2
	planeServers    = 64
	planeDrainEvery = 50_000
	planeShards     = 8
	planeReplicas   = 2
)

func planeServer(i int) string { return fmt.Sprintf("srv%d", i%planeServers) }

// plane is a directory data plane called in-process: the benchmark isolates
// the data-structure cost (lock contention, scan complexity), not the
// network round trip, which is the same for both designs.
type plane struct {
	register func(directory.RegisterBody)
	lookup   func(id.NapletID) (directory.Entry, bool)
	drain    func(server string)
}

// singlePlane is the pre-shard directory store — one map, one global mutex,
// O(all entries) deregistration — kept here as the measured baseline.
type singlePlane struct {
	mu      sync.Mutex
	entries map[string]directory.Entry
}

func (p *singlePlane) register(body directory.RegisterBody) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := body.NapletID.Key()
	if cur, ok := p.entries[key]; ok && body.At.Before(cur.At) {
		return
	}
	p.entries[key] = directory.Entry(body)
}

func (p *singlePlane) lookup(nid id.NapletID) (directory.Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[nid.Key()]
	return e, ok
}

func (p *singlePlane) drain(server string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, e := range p.entries {
		if e.Server == server {
			delete(p.entries, key)
		}
	}
}

// planeLoad is the traffic one plane node sees.
type planeLoad struct {
	plane
	lookIDs, writeIDs []id.NapletID
	drainEvery        int
	epoch             int // runs so far: a later run's registers supersede an earlier one's
}

func (l *planeLoad) populate() {
	for i, nid := range l.writeIDs {
		l.register(directory.RegisterBody{NapletID: nid, Server: planeServer(i), At: t0})
	}
}

// run pushes b.N operations of one kind — lookups of random keys from
// planeReaders goroutines, or re-registrations of random keys from
// planeWriters goroutines with one dock drained every drainEvery of them —
// while the goroutines of the other kind keep the plane busy until those are
// done. It returns the measured kind's rate on this node.
func (l *planeLoad) run(b *testing.B, lookups bool) float64 {
	l.epoch++
	var stop atomic.Bool
	var measured, background sync.WaitGroup
	// spawn starts k goroutines of one kind: the measured kind splits b.N
	// among them, the other runs until stop.
	spawn := func(k int, counted bool, op func(rng *rand.Rand, n int)) {
		for g := 0; g < k; g++ {
			quota, wg := b.N/k, &measured
			if g < b.N%k {
				quota++
			}
			if !counted {
				wg = &background
			}
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(l.epoch*100 + g)))
				for n := 0; counted && n < quota || !counted && !stop.Load(); n++ {
					op(rng, n)
				}
			}(g)
		}
	}
	at := t0.Add(time.Duration(l.epoch) * time.Hour)
	b.ResetTimer()
	spawn(planeReaders, lookups, func(rng *rand.Rand, _ int) {
		l.lookup(l.lookIDs[rng.Intn(len(l.lookIDs))])
	})
	spawn(planeWriters, !lookups, func(rng *rand.Rand, n int) {
		l.register(directory.RegisterBody{
			NapletID: l.writeIDs[rng.Intn(len(l.writeIDs))],
			Server:   planeServer(rng.Intn(planeServers)),
			At:       at.Add(time.Duration(n) * time.Millisecond),
			Seq:      uint64(n),
		})
		if (n+1)%l.drainEvery == 0 {
			l.drain(planeServer(rng.Intn(planeServers)))
		}
	})
	measured.Wait()
	b.StopTimer()
	stop.Store(true)
	background.Wait()
	return float64(b.N) / b.Elapsed().Seconds()
}

// BenchmarkPlane measures the location plane at naplet-space scale: one
// million registered naplets (20 000 under -short) under concurrent lookup
// and register load with dock churn. Two planes:
//
//   - single-node: every client in the space funnels into one service behind
//     one mutex, so its measured rate is the plane's aggregate capacity, and
//     every drain stalls all lookups for a full scan.
//   - sharded-8x2: the production directory.Service (striped locks,
//     by-server index) as one of 8 shard nodes with replica groups of 2,
//     serving exactly its share — the K*R/N entries whose group includes it,
//     primary lookups for the K/N keys it leads, its slice of the register
//     stream and of the drain broadcasts. ns/op is that node's; the N nodes
//     serve disjoint traffic concurrently on separate hosts, so the plane's
//     aggregate is N times the node's lookup rate, and N/R times its
//     register rate (a registration writes through to R replicas).
//
// plane-ops/s is the aggregate rate; lookup_speedup is the sharded plane's
// over the single node's.
func BenchmarkPlane(b *testing.B) {
	naplets := 1_000_000
	if testing.Short() {
		naplets = 20_000
	}
	// Many owner/home prefixes, so rendezvous hashing spreads the
	// identifiers over every shard.
	all := &planeLoad{drainEvery: planeDrainEvery, writeIDs: make([]id.NapletID, naplets)}
	for i := range all.writeIDs {
		all.writeIDs[i] = id.MustNew(fmt.Sprintf("u%d", i%100000), fmt.Sprintf("h%d", i/100000), t0)
	}
	all.lookIDs = all.writeIDs

	ring, self := NewRing(planeNodes(planeShards)), "dir0"
	node := &planeLoad{drainEvery: planeDrainEvery * planeReplicas / planeShards}
	for _, nid := range all.writeIDs {
		for rank, owner := range ring.Owners(KeyOf(nid), planeReplicas) {
			if owner != self {
				continue
			}
			node.writeIDs = append(node.writeIDs, nid)
			if rank == 0 {
				node.lookIDs = append(node.lookIDs, nid)
			}
		}
	}

	var singleLookups float64
	for _, tc := range []struct {
		name             string
		load             *planeLoad
		build            func() plane
		lookupX, registX float64 // node rate → plane aggregate
	}{
		{"single-node", all, func() plane {
			p := &singlePlane{entries: make(map[string]directory.Entry, naplets)}
			return plane{p.register, p.lookup, p.drain}
		}, 1, 1},
		{"sharded-8x2", node, func() plane {
			svc := directory.NewService()
			return plane{svc.Register, svc.Lookup, svc.DeregisterServer}
		}, planeShards, float64(planeShards) / planeReplicas},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tc.load.plane = tc.build()
			tc.load.populate()
			b.Run("lookup", func(b *testing.B) {
				rate := tc.load.run(b, true) * tc.lookupX
				b.ReportMetric(rate, "plane-ops/s")
				if tc.load == all {
					singleLookups = rate
				} else if singleLookups > 0 {
					b.ReportMetric(rate/singleLookups, "lookup_speedup")
				}
			})
			b.Run("register", func(b *testing.B) {
				b.ReportMetric(tc.load.run(b, false)*tc.registX, "plane-ops/s")
			})
			tc.load.plane = plane{} // let the next plane have the memory
		})
	}
}
