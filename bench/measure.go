package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/id"
	"repro/internal/server"
	"repro/internal/stats"
)

// sample is one recorded outcome: a timed request (lat > 0) with the ops it
// stood for, or an untimed adjustment carrying only attempted/failed ops.
type sample struct {
	end    time.Time
	lat    time.Duration
	ops    int
	failed int
}

// recorder collects one client's samples. The lock is uncontended except
// when a chase sender outlives its session.
type recorder struct {
	// tr is the traced pass's span recorder; nil in untraced windows.
	tr *tracer

	mu       sync.Mutex
	samples  []sample
	launchNs int64
	launches int64
}

// root opens the request's root span in a traced window; the returned func
// closes it (see tracer.root). Untraced, both are no-ops.
func (r *recorder) root() func(home *server.Server, nid id.NapletID) {
	if r.tr == nil {
		return func(*server.Server, id.NapletID) {}
	}
	return r.tr.root()
}

func (r *recorder) add(start time.Time, lat time.Duration, ops, failed int) {
	r.mu.Lock()
	r.samples = append(r.samples, sample{end: start.Add(lat), lat: lat, ops: ops, failed: failed})
	r.mu.Unlock()
}

// launched notes how long one Server.Launch call took.
func (r *recorder) launched(d time.Duration) {
	r.mu.Lock()
	r.launchNs += int64(d)
	r.launches++
	r.mu.Unlock()
}

// reading is the process- and fabric-wide counter state at one instant.
type reading struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	traffic
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeReading(fl *fleet) reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return reading{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, traffic: fl.traffic()}
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// windowStats are one measurement window's figures.
type windowStats struct {
	seconds   float64
	requests  int // timed requests completed in the window
	attempted int
	failed    int
	opsPerS   float64
	p50us     float64
	cpuUsOp   float64
}

// measurement is the outcome of one closed-loop run over several windows.
type measurement struct {
	windows   []windowStats
	first     reading
	last      reading
	attempted int
	failed    int
	requests  int
	// p99us is the 99th percentile over every timed request of the run:
	// pooling the windows gives the tail five times the samples.
	p99us    float64
	retained int64 // heap growth across the run, after GC on both sides
	launchUs float64
}

// verified is the ops that completed and checked out.
func (m *measurement) verified() int { return m.attempted - m.failed }

// perOp divides a counter delta over the whole run by its verified ops.
func (m *measurement) perOp(delta float64) float64 {
	if v := m.verified(); v > 0 {
		return delta / float64(v)
	}
	return 0
}

// runLoad drives session in a closed loop of clients for windows*window and
// splits what it recorded into windows by completion time. tr, when non-nil,
// makes it a traced window: every request records a root span.
func runLoad(fl *fleet, session sessionFunc, clients, windows int, window time.Duration, tr *tracer) *measurement {
	m := &measurement{}
	heap0 := heapInUse()
	recs := make([]*recorder, clients)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	readings := make([]reading, 0, windows+1)
	readings = append(readings, takeReading(fl))
	t0 := readings[0].at
	end := t0.Add(time.Duration(windows) * window)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		recs[c] = &recorder{tr: tr}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := c; time.Now().Before(end); n += clients {
				session(ctx, n, recs[c])
			}
		}(c)
	}
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(t0.Add(time.Duration(w) * window)))
		readings = append(readings, takeReading(fl))
	}
	wg.Wait()
	m.retained = int64(heapInUse()) - int64(heap0)
	m.first, m.last = readings[0], readings[windows]

	var all []sample
	var launchNs, launches int64
	for _, r := range recs {
		r.mu.Lock()
		all = append(all, r.samples...)
		launchNs += r.launchNs
		launches += r.launches
		r.mu.Unlock()
	}
	if launches > 0 {
		m.launchUs = float64(launchNs) / float64(launches) / 1e3
	}
	var pooled []float64
	for w := 0; w < windows; w++ {
		from, to := readings[w], readings[w+1]
		ws := windowStats{seconds: to.at.Sub(from.at).Seconds()}
		var lats []float64
		for _, s := range all {
			if s.end.Before(from.at) || !s.end.Before(to.at) {
				continue
			}
			ws.attempted += s.ops
			ws.failed += s.failed
			if s.lat > 0 {
				lats = append(lats, float64(s.lat)/1e3)
			}
		}
		pooled = append(pooled, lats...)
		if ws.failed > ws.attempted {
			ws.failed = ws.attempted
		}
		ws.requests = len(lats)
		sort.Float64s(lats)
		ws.p50us = quantile(lats, 0.50)
		if ok := ws.attempted - ws.failed; ok > 0 {
			ws.opsPerS = float64(ok) / ws.seconds
			ws.cpuUsOp = float64(to.cpu-from.cpu) / 1e3 / float64(ok)
		}
		m.windows = append(m.windows, ws)
		m.attempted += ws.attempted
		m.failed += ws.failed
		m.requests += ws.requests
	}
	sort.Float64s(pooled)
	m.p99us = quantile(pooled, 0.99)
	return m
}

// quantile is the q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return stats.Quantile(sorted, q)
}

// median of vals (0 when empty); vals is not modified.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowMedian is the median across windows of one per-window figure.
func (m *measurement) windowMedian(f func(windowStats) float64) float64 {
	vals := make([]float64, len(m.windows))
	for i, w := range m.windows {
		vals[i] = f(w)
	}
	return median(vals)
}

// endToEndValues turns a measurement into the bounded end-to-end metric
// values: throughput and CPU are the median of the per-window values, count
// metrics are totals over all windows.
func (m *measurement) endToEndValues(setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":            setupS,
		"ops_per_s":          m.windowMedian(func(w windowStats) float64 { return w.opsPerS }),
		"cpu_us_per_op":      m.windowMedian(func(w windowStats) float64 { return w.cpuUsOp }),
		"allocs_per_op":      m.perOp(float64(m.last.mallocs - m.first.mallocs)),
		"alloc_bytes_per_op": m.perOp(float64(m.last.allocBytes - m.first.allocBytes)),
		"frames_per_op":      m.perOp(float64(m.last.frames - m.first.frames)),
		"wire_bytes_per_op":  m.perOp(float64(m.last.bytes - m.first.bytes)),
		"home_bytes_per_op":  m.perOp(float64(m.last.homeBytes - m.first.homeBytes)),
	}
}

// unboundedValues are the end-to-end figures reported without a bound: the
// median latency is the median of the per-window medians, the p99 pools every
// request of the run.
func (m *measurement) unboundedValues() map[string]float64 {
	return map[string]float64{
		"fail_ratio":            m.failRatio(),
		"retained_bytes_per_op": m.perOp(float64(m.retained)),
		"req_us_p50":            m.windowMedian(func(w windowStats) float64 { return w.p50us }),
		"req_us_p99":            m.p99us,
	}
}

// failRatio is failed over attempted ops.
func (m *measurement) failRatio() float64 {
	if m.attempted == 0 {
		return 1
	}
	return float64(m.failed) / float64(m.attempted)
}

// runSessions runs count sessions spread over the clients, untimed: the
// warm-up. Only the attempted/failed tallies of the result are filled.
func runSessions(session sessionFunc, clients, count int) *measurement {
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		recs[c] = &recorder{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := c; n < count; n += clients {
				session(context.Background(), n, recs[c])
			}
		}(c)
	}
	wg.Wait()
	m := &measurement{}
	for _, r := range recs {
		for _, s := range r.samples {
			m.attempted += s.ops
			m.failed += s.failed
		}
	}
	return m
}
