// Command directorybench benchmarks the location plane at naplet-space
// scale: one million registered naplets under concurrent register load
// with dock churn (servers draining withdraw their registrations, the way
// a real space behaves). Two planes are measured in-process:
//
//   - single-node: the pre-shard design — one map behind one global
//     sync.Mutex, DeregisterServer an O(all-entries) scan. Reimplemented
//     here verbatim so the baseline survives in the report after the
//     production code moved on. Every client in the space funnels into
//     this one service, so its measured rate IS the plane's aggregate
//     capacity.
//   - sharded: the production directory.Service (striped locks, by-server
//     secondary index) sharded by rendezvous hashing over the owner/home
//     prefix, each registration written through to a replica group. One
//     shard node is measured serving exactly its share of the keyspace
//     and traffic (K*R/N registered entries, primary lookups for K/N
//     keys, its slice of the drain broadcasts); the plane's aggregate is
//     that per-node rate times the shard count, since the N nodes serve
//     disjoint traffic concurrently on separate hosts. Aggregate register
//     throughput divides by R: each logical registration writes through
//     to R replicas.
//
// The workload measures aggregate lookup throughput and p99 lookup
// latency while writers re-register moving naplets and periodically drain
// a dock. Under the global mutex every drain stalls all lookups for the
// full scan; a shard node pays an O(own entries for that dock) indexed
// delete per stripe. Results land in BENCH_directory.json via `make
// bench-directory`; generation self-asserts the sharded plane's aggregate
// lookup throughput at >= 4x the single-node baseline.
//
// With -check <file>, the deterministic codec and ring benchmarks are
// re-run and compared against the committed baseline: a >10% regression
// in allocs/op fails the run (ns/op is reported but not gated).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchcheck"
	"repro/internal/directory"
	"repro/internal/directory/shard"
	"repro/internal/id"
	"repro/internal/wire"
)

// report extends the shared envelope with the workload shape and the
// self-asserted speedup.
type report struct {
	benchcheck.Report
	Naplets  int     `json:"naplets"`
	Workload string  `json:"workload"`
	LookupX  float64 `json:"lookup_speedup"`
}

func main() {
	count := flag.Int("count", 5, "samples per benchmark")
	naplets := flag.Int("naplets", 1_000_000, "registered naplets per plane")
	duration := flag.Duration("duration", time.Second, "measured window per throughput sample")
	shards := flag.Int("shards", 8, "shard count of the sharded plane")
	replicas := flag.Int("replicas", 2, "replica-group size of the sharded plane")
	out := flag.String("o", "BENCH_directory.json", "output JSON path")
	check := flag.String("check", "", "baseline JSON to regression-check against (codec/ring benches only)")
	flag.Parse()

	benches := []benchcheck.Bench{
		{Name: "codec/register-encode-binary", Fn: benchRegisterEncodeBinary, Deterministic: true},
		{Name: "codec/register-decode-binary", Fn: benchRegisterDecodeBinary, Deterministic: true},
		{Name: "codec/reply-roundtrip-binary", Fn: benchReplyRoundTripBinary, Deterministic: true},
		{Name: "ring/owners", Fn: benchRingOwners, Deterministic: true},
	}
	if *check != "" {
		if err := benchcheck.Check("directorybench", *check, benches, *count); err != nil {
			fatal(err)
		}
		fmt.Println("directorybench: regression check passed")
		return
	}

	rep := report{
		Report:  benchcheck.NewReport(*count),
		Naplets: *naplets,
		Workload: fmt.Sprintf(
			"%d naplets, %d readers + %d writers, dock drain every %d registers",
			*naplets, readers, writers, drainEvery),
	}
	for _, bm := range benches {
		res := benchcheck.Run(bm, *count)
		rep.Results = append(rep.Results, res)
		printRow(res)
	}

	fmt.Printf("populating %d naplets per plane...\n", *naplets)
	ids := makeIDs(*naplets)
	singleRes, shardedRes := throughput(ids, *shards, *replicas, *duration, *count)
	rep.Results = append(rep.Results, singleRes...)
	rep.Results = append(rep.Results, shardedRes...)
	for _, res := range append(singleRes, shardedRes...) {
		printRow(res)
	}

	rep.LookupX = shardedRes[0].Median.OpsPerSec / singleRes[0].Median.OpsPerSec
	fmt.Printf("sharded/single lookup speedup: %.1fx\n", rep.LookupX)

	if err := benchcheck.WriteFile(*out, &rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if rep.LookupX < 4 {
		fatal(fmt.Errorf("sharded lookup throughput only %.1fx the single-node baseline, want >= 4x", rep.LookupX))
	}
}

func printRow(res benchcheck.Result) {
	if res.Median.OpsPerSec > 0 {
		fmt.Printf("%-44s %12.0f ops/s  p99 %8s  %6d allocs/op\n",
			res.Name, res.Median.OpsPerSec, time.Duration(res.Median.P99Ns), res.Median.AllocsPerOp)
		return
	}
	fmt.Printf("%-34s %12.1f ns/op %8d B/op %6d allocs/op\n",
		res.Name, res.Median.NsPerOp, res.Median.BytesPerOp, res.Median.AllocsPerOp)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "directorybench:", err)
	os.Exit(1)
}

// benchTime is fixed so identifiers and bodies are identical across runs.
var benchTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// Workload shape. One writer is plenty to keep register pressure on while
// the readers measure; the drain cadence models dock restarts in a large
// space (each drain withdraws one server's ~naplets/servers entries).
const (
	readers    = 4
	writers    = 2
	servers    = 64
	drainEvery = 50_000
	p99Stride  = 32
)

// makeIDs builds n distinct naplet identifiers across many owner/home
// prefixes, so rendezvous hashing spreads them over every shard.
func makeIDs(n int) []id.NapletID {
	ids := make([]id.NapletID, n)
	for i := range ids {
		owner := fmt.Sprintf("u%d", i%100000)
		host := fmt.Sprintf("h%d", i/100000)
		ids[i] = id.MustNew(owner, host, benchTime)
	}
	return ids
}

func serverName(i int) string { return fmt.Sprintf("srv%d", i%servers) }

// plane abstracts the two directory data planes under test. Calls are
// in-process: the benchmark isolates the data-structure cost (lock
// contention, scan complexity), not the network round trip, which is
// identical for both designs.
type plane interface {
	register(directory.RegisterBody)
	lookup(nid id.NapletID) (directory.Entry, bool)
	drain(server string)
}

// singlePlane is the pre-shard directory store: one map, one global
// mutex, O(all-entries) deregistration — the seed design this PR replaced,
// preserved here as the measured baseline.
type singlePlane struct {
	mu      sync.Mutex
	entries map[string]directory.Entry
}

func newSinglePlane(n int) *singlePlane {
	return &singlePlane{entries: make(map[string]directory.Entry, n)}
}

func (p *singlePlane) register(body directory.RegisterBody) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := body.NapletID.Key()
	cur, ok := p.entries[key]
	if ok && body.At.Before(cur.At) {
		return
	}
	p.entries[key] = directory.Entry{
		NapletID: body.NapletID, Event: body.Event, Server: body.Server, At: body.At,
	}
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

// nodePlane is one shard node of the sharded plane: the production
// striped Service with its by-server index. The caller feeds it exactly
// the traffic slice a real node receives.
type nodePlane struct {
	svc *directory.Service
}

func (p *nodePlane) register(body directory.RegisterBody) { p.svc.Register(body) }

func (p *nodePlane) lookup(nid id.NapletID) (directory.Entry, bool) { return p.svc.Lookup(nid) }

func (p *nodePlane) drain(server string) { p.svc.DeregisterServer(server) }

func populate(p plane, ids []id.NapletID) {
	for i, nid := range ids {
		p.register(directory.RegisterBody{
			NapletID: nid, Event: directory.Arrival, Server: serverName(i), At: benchTime,
		})
	}
}

// throughput measures both planes: the single-node baseline carries the
// whole space's traffic; one shard node carries its true share, and the
// sharded plane's aggregate is node rate x shards (divided by replicas
// for registers, which write through R times). Returns [lookup, register]
// results per plane, aggregate rows first for the sharded plane.
func throughput(ids []id.NapletID, shards, replicas int, window time.Duration, count int) (single, sharded []benchcheck.Result) {
	// Single node: all keys, all traffic, global mutex.
	sp := newSinglePlane(len(ids))
	populate(sp, ids)
	singleLookup := benchcheck.Result{Name: fmt.Sprintf("plane/single-node/lookup-%s", human(len(ids)))}
	singleRegister := benchcheck.Result{Name: fmt.Sprintf("plane/single-node/register-%s", human(len(ids)))}
	for s := 0; s < count; s++ {
		ls, rs := measure(sp, ids, ids, drainEvery, window, int64(s))
		singleLookup.Samples = append(singleLookup.Samples, ls)
		singleRegister.Samples = append(singleRegister.Samples, rs)
	}
	singleLookup.Median = benchcheck.Median(singleLookup.Samples, func(s benchcheck.Sample) float64 { return -s.OpsPerSec })
	singleRegister.Median = benchcheck.Median(singleRegister.Samples, func(s benchcheck.Sample) float64 { return -s.OpsPerSec })

	// One shard node's slice of the same space: it stores every key whose
	// replica group includes it, serves primary lookups for the keys it
	// leads, takes the write stream for its stored keys, and sees every
	// dock drain (drains broadcast) at the cadence its register share
	// implies.
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("dir%d", i)
	}
	ring := shard.NewRing(names)
	node := names[0]
	var owned, leads []id.NapletID
	var ownedServerIdx []int
	for i, nid := range ids {
		owners := ring.Owners(shard.KeyOf(nid), replicas)
		for oi, o := range owners {
			if o != node {
				continue
			}
			owned = append(owned, nid)
			ownedServerIdx = append(ownedServerIdx, i)
			if oi == 0 {
				leads = append(leads, nid)
			}
		}
	}
	np := &nodePlane{svc: directory.NewService()}
	for j, nid := range owned {
		np.register(directory.RegisterBody{
			NapletID: nid, Event: directory.Arrival, Server: serverName(ownedServerIdx[j]), At: benchTime,
		})
	}
	// The node's register stream is the global one scaled by R/N, so the
	// same global drain cadence arrives every drainEvery*R/N node-local
	// registers.
	nodeDrainEvery := drainEvery * replicas / shards
	if nodeDrainEvery < 1 {
		nodeDrainEvery = 1
	}
	planeName := fmt.Sprintf("sharded-%dx%d", shards, replicas)
	nodeLookup := benchcheck.Result{Name: fmt.Sprintf("plane/%s-per-node/lookup-%s", planeName, human(len(ids)))}
	nodeRegister := benchcheck.Result{Name: fmt.Sprintf("plane/%s-per-node/register-%s", planeName, human(len(ids)))}
	for s := 0; s < count; s++ {
		ls, rs := measure(np, leads, owned, nodeDrainEvery, window, int64(s))
		nodeLookup.Samples = append(nodeLookup.Samples, ls)
		nodeRegister.Samples = append(nodeRegister.Samples, rs)
	}
	nodeLookup.Median = benchcheck.Median(nodeLookup.Samples, func(s benchcheck.Sample) float64 { return -s.OpsPerSec })
	nodeRegister.Median = benchcheck.Median(nodeRegister.Samples, func(s benchcheck.Sample) float64 { return -s.OpsPerSec })

	aggLookup := scaleResult(nodeLookup,
		fmt.Sprintf("plane/%s-aggregate/lookup-%s", planeName, human(len(ids))), float64(shards))
	aggRegister := scaleResult(nodeRegister,
		fmt.Sprintf("plane/%s-aggregate/register-%s", planeName, human(len(ids))), float64(shards)/float64(replicas))

	return []benchcheck.Result{singleLookup, singleRegister},
		[]benchcheck.Result{aggLookup, aggRegister, nodeLookup, nodeRegister}
}

// scaleResult derives a plane-aggregate row from a per-node row: N nodes
// serve disjoint traffic concurrently, so aggregate ops/s multiplies;
// per-op latency (p99) is unchanged — each op still runs on one node.
func scaleResult(r benchcheck.Result, name string, factor float64) benchcheck.Result {
	out := benchcheck.Result{Name: name}
	for _, s := range r.Samples {
		s.OpsPerSec *= factor
		out.Samples = append(out.Samples, s)
	}
	m := r.Median
	m.OpsPerSec *= factor
	out.Median = m
	return out
}

// measure runs one sample window against p — readers looking up random
// keys from lookIDs, writers re-registering random keys from writeIDs,
// one dock drained every drainN registers — and returns (lookup,
// register) samples.
func measure(p plane, lookIDs, writeIDs []id.NapletID, drainN int, window time.Duration, seed int64) (benchcheck.Sample, benchcheck.Sample) {
	var (
		stop      atomic.Bool
		lookups   atomic.Int64
		registers atomic.Int64
		allocs0   runtime.MemStats
		wg        sync.WaitGroup
	)
	lat := make([][]int64, readers)
	runtime.GC()
	runtime.ReadMemStats(&allocs0)
	start := time.Now()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
			var n int64
			for !stop.Load() {
				nid := lookIDs[rng.Intn(len(lookIDs))]
				if n%p99Stride == 0 {
					t0 := time.Now()
					p.lookup(nid)
					lat[r] = append(lat[r], time.Since(t0).Nanoseconds())
				} else {
					p.lookup(nid)
				}
				n++
			}
			lookups.Add(n)
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*2000 + int64(w)))
			at := benchTime.Add(time.Duration(seed+1) * time.Hour)
			var n int64
			for !stop.Load() {
				i := rng.Intn(len(writeIDs))
				p.register(directory.RegisterBody{
					NapletID: writeIDs[i],
					Event:    directory.Arrival,
					Server:   serverName(rng.Intn(servers)),
					At:       at.Add(time.Duration(n) * time.Millisecond),
					Seq:      uint64(n),
				})
				n++
				if n%int64(drainN) == 0 {
					p.drain(serverName(rng.Intn(servers)))
				}
			}
			registers.Add(n)
		}(w)
	}

	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var allocs1 runtime.MemStats
	runtime.ReadMemStats(&allocs1)
	totalOps := lookups.Load() + registers.Load()
	var allocsPerOp, bytesPerOp int64
	if totalOps > 0 {
		allocsPerOp = int64(allocs1.Mallocs-allocs0.Mallocs) / totalOps
		bytesPerOp = int64(allocs1.TotalAlloc-allocs0.TotalAlloc) / totalOps
	}

	var all []int64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var p99 int64
	if len(all) > 0 {
		p99 = all[len(all)*99/100]
	}

	mk := func(ops int64) benchcheck.Sample {
		s := benchcheck.Sample{
			OpsPerSec:   float64(ops) / elapsed.Seconds(),
			P99Ns:       float64(p99),
			AllocsPerOp: allocsPerOp,
			BytesPerOp:  bytesPerOp,
		}
		if ops > 0 {
			s.NsPerOp = elapsed.Seconds() * 1e9 * readers / float64(ops)
		}
		return s
	}
	return mk(lookups.Load()), mk(registers.Load())
}

func human(n int) string {
	if n%1_000_000 == 0 {
		return fmt.Sprintf("%dM", n/1_000_000)
	}
	if n%1000 == 0 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return fmt.Sprint(n)
}

// ---- Deterministic codec and routing benchmarks ----

func benchBody() directory.RegisterBody {
	return directory.RegisterBody{
		NapletID: id.MustNew("czxu", "sa", benchTime),
		Event:    directory.Departure,
		Server:   "srv7",
		Dest:     "srv9",
		At:       benchTime,
		Seq:      11,
	}
}

func benchRegisterEncodeBinary(b *testing.B) {
	body := benchBody()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire.EncodeBody(&body)
	}
}

func benchRegisterDecodeBinary(b *testing.B) {
	body := benchBody()
	buf := wire.EncodeBody(&body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dec directory.RegisterBody
		if err := dec.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReplyRoundTripBinary(b *testing.B) {
	rep := directory.ReplyBody{Found: true, Entry: directory.Entry{
		NapletID: id.MustNew("czxu", "sa", benchTime), Server: "srv3", At: benchTime, Seq: 5,
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := wire.EncodeBody(&rep)
		var dec directory.ReplyBody
		if err := dec.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRingOwners(b *testing.B) {
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("dir%d", i)
	}
	ring := shard.NewRing(names)
	key := shard.KeyOf(id.MustNew("czxu", "sa", benchTime))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring.Owners(key, 2)
	}
}
