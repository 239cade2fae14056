// Package telemetry is the dependency-free metrics substrate of the naplet
// runtime: a registry of named counters, gauges, and fixed-bucket
// histograms with lock-free hot paths, plus the migration hop tracer
// (hoptrace.go) and the HTTP exposition surface (http.go) that cmd/napletd
// mounts behind --metrics-addr.
//
// The paper positions naplet servers for network management applications
// (§6); a management platform must first be able to monitor itself. Every
// runtime component (transport, locator, navigator, messenger, monitor)
// registers its activity counters here, and the legacy per-component Stats
// structs are thin snapshot views over this registry, so there is exactly
// one source of truth for "where time and traffic go".
//
// Naming convention (see DESIGN.md §8): every series is
//
//	naplet_<component>_<quantity>_<unit>
//
// with Prometheus conventions for suffixes: monotonically increasing
// counters end in _total, histograms carry base units in the name
// (_seconds, _bytes). Series may carry a fixed label set, bound at
// registration time; the hot-path Inc/Add/Observe operations never format
// labels.
//
// Hot-path costs: Counter.Inc and Counter.Add are one uncontended atomic
// add (single-digit nanoseconds, zero allocations); Histogram.Observe is a
// linear bucket scan over a small fixed bound slice plus three atomic
// operations, also allocation-free. TestHotPathsAllocateNothing holds the
// zero; BenchmarkCounterInc and BenchmarkHistogramObserve time them.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is unusable;
// obtain counters from a Registry so they appear in the exposition.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n. Counters only go up; negative deltas are
// a programming error and are ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram accumulates observations into fixed cumulative buckets. All
// operations on the observe path are atomic; there is no lock to contend
// on. The buckets are the histogram's only record of its observations:
// quantiles are read from them (HistogramSnapshot.Quantile), exactly as a
// Prometheus scrape of the exported series would read them.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the overflow bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64   // total observations
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Uint64, len(bs)+1),
	}
}

// Observe records one sample. It is lock-free and allocation-free.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.count.Add(1)
}

// ObserveDuration records a duration in seconds, the base unit every
// latency histogram in the system uses.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state, with
// cumulative bucket counts in Prometheus style.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Cumulative[i] counts observations
	// ≤ Bounds[i]. The final entry of Cumulative (len(Bounds)) is the total
	// count (the +Inf bucket).
	Bounds     []float64
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// Snapshot copies the histogram state. Bucket counts are loaded
// individually, so a snapshot taken under concurrent observation may be
// off by in-flight samples; it is monitoring data, not an invariant.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		snap.Cumulative[i] = cum
	}
	snap.Sum = h.Sum()
	snap.Count = h.count.Load()
	return snap
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observations the
// way Prometheus's histogram_quantile reads the exported series: it finds
// the bucket holding rank q·total and interpolates linearly between that
// bucket's bounds, the first bucket starting at 0. The estimate lies in
// the same bucket as the exact order statistic, so a bucket is its error
// bound. A rank in the overflow bucket reads +Inf, which no finite bound
// passes; an empty snapshot reads 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Cumulative[len(s.Cumulative)-1]
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	i := sort.Search(len(s.Cumulative), func(i int) bool {
		return s.Cumulative[i] > 0 && float64(s.Cumulative[i]) >= rank
	})
	if i >= len(s.Bounds) {
		return math.Inf(1)
	}
	lo, below := 0.0, uint64(0)
	if i > 0 {
		lo, below = s.Bounds[i-1], s.Cumulative[i-1]
	}
	return lo + (s.Bounds[i]-lo)*(rank-float64(below))/float64(s.Cumulative[i]-below)
}

// LatencyBuckets is the bucket set the instrumented components share: it
// covers microsecond transport calls through multi-second WAN migrations
// (seconds).
var LatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metricKind discriminates series types for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// series is one registered time series: a family name, an optional fixed
// label set, and the backing metric.
type series struct {
	name   string // family name, e.g. naplet_messenger_posted_total
	labels string // rendered `k="v",k2="v2"`, or ""
	help   string
	kind   metricKind

	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// key returns the series identity within a registry.
func (s *series) key() string {
	if s.labels == "" {
		return s.name
	}
	return s.name + "{" + s.labels + "}"
}

// Registry holds the metric series of one naplet server (or one process).
// Registration takes a lock; the returned metric handles are lock-free.
// Registering the same name+labels again returns the existing metric, so
// components may be built independently against a shared registry.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// renderLabels turns variadic k,v pairs into the canonical rendered form.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("telemetry: odd label pair count")
	}
	parts := make([]string, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", pairs[i], pairs[i+1]))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// register looks up or inserts a series, enforcing kind consistency.
func (r *Registry) register(s *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.series[s.key()]; ok {
		if existing.kind != s.kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as a different type", s.key()))
		}
		return existing
	}
	r.series[s.key()] = s
	return s
}

// Counter returns the counter registered under name (+optional k,v label
// pairs), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.register(&series{
		name: name, labels: renderLabels(labels), help: help,
		kind: kindCounter, counter: &Counter{},
	})
	return s.counter
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time: the bridge for pre-existing atomic counters (e.g. the wire
// package's buffer-pool accounting) that must not depend on this package.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(&series{
		name: name, labels: renderLabels(labels), help: help,
		kind: kindCounterFunc, fn: fn,
	})
}

// GaugeFunc registers a gauge sampled from fn at scrape time (resident
// naplet counts, goroutine counts, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(&series{
		name: name, labels: renderLabels(labels), help: help,
		kind: kindGaugeFunc, fn: fn,
	})
}

// Histogram returns the histogram registered under name with the given
// bucket upper bounds, creating it on first use. The bounds of the first
// registration win.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	s := r.register(&series{
		name: name, labels: renderLabels(labels), help: help,
		kind: kindHistogram, hist: newHistogram(bounds),
	})
	return s.hist
}

// snapshot returns the registered series sorted by family name then label
// set, for deterministic exposition.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}
