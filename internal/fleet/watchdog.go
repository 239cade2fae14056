package fleet

import (
	"math"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// RateEstimator is an exponentially-decaying byte-rate estimator for
// irregularly spaced samples: Observe adds bytes to a level that decays
// with a configurable half-life, and Rate converts the level to bytes
// per second. At a steady input of n bytes every T (T much smaller than
// the half-life) the estimate converges to n/T; after input stops it
// halves every half-life. Not goroutine-safe — the Watchdog serialises
// access.
type RateEstimator struct {
	halfLife time.Duration
	level    float64
	last     time.Time
}

const (
	// defaultHalfLife smooths rate estimates over a few heartbeat
	// intervals; the watchdog's ingest estimators use it.
	defaultHalfLife = 5 * time.Second
	// resumeFraction is the watchdog's hysteresis band: a tripped node
	// resumes only once every metric falls below watermark*resumeFraction.
	resumeFraction = 0.85
)

// NewRateEstimator builds an estimator (half-life <= 0 takes 5s).
func NewRateEstimator(halfLife time.Duration) *RateEstimator {
	if halfLife <= 0 {
		halfLife = defaultHalfLife
	}
	return &RateEstimator{halfLife: halfLife}
}

// decay folds the elapsed time since the last observation into the level.
func (e *RateEstimator) decay(now time.Time) {
	if !e.last.IsZero() {
		if dt := now.Sub(e.last); dt > 0 {
			e.level *= math.Exp2(-float64(dt) / float64(e.halfLife))
		}
	}
	e.last = now
}

// Observe records n bytes arriving at now.
func (e *RateEstimator) Observe(n int, now time.Time) {
	e.decay(now)
	e.level += float64(n)
}

// Rate returns the estimated byte rate (bytes/second) as of now.
func (e *RateEstimator) Rate(now time.Time) float64 {
	e.decay(now)
	return e.level * math.Ln2 / e.halfLife.Seconds()
}

// WatchdogConfig parameterises a Watchdog.
type WatchdogConfig struct {
	// DiskWatermarkBytes trips a node whose reported dock disk usage
	// reaches it; 0 disables the disk watermark.
	DiskWatermarkBytes uint64
	// IngestWatermarkBps trips a node whose event ingest byte-rate
	// reaches it; 0 disables the ingest watermark.
	IngestWatermarkBps float64
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// Telemetry, when set, exports the alarm counter and the
	// over-watermark node gauge.
	Telemetry *telemetry.Registry
}

// Watchdog tracks per-node dock disk usage and event ingest byte-rate
// and trips an over-watermark latch (with hysteresis) the scheduler
// consults to stop routing waves at a node drowning in data.
type Watchdog struct {
	cfg WatchdogConfig

	mu    sync.Mutex
	nodes map[string]*nodeWatch

	alarms *telemetry.Counter
}

type nodeWatch struct {
	est  *RateEstimator
	disk uint64
	over bool
}

// NewWatchdog builds a watchdog (zero config disables both watermarks).
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	w := &Watchdog{cfg: cfg, nodes: make(map[string]*nodeWatch)}
	if reg := cfg.Telemetry; reg != nil {
		w.alarms = reg.Counter("naplet_fleet_watchdog_alarms_total",
			"nodes tripping a disk or ingest watermark")
		reg.GaugeFunc("naplet_fleet_nodes_over_watermark",
			"nodes currently latched over a watchdog watermark",
			func() float64 { return float64(w.overCount()) })
	}
	return w
}

func (w *Watchdog) overCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, nw := range w.nodes {
		if nw.over {
			n++
		}
	}
	return n
}

func (w *Watchdog) get(node string) *nodeWatch {
	nw, ok := w.nodes[node]
	if !ok {
		nw = &nodeWatch{est: NewRateEstimator(defaultHalfLife)}
		w.nodes[node] = nw
	}
	return nw
}

// evaluate re-judges the latch after an observation. Callers hold w.mu.
func (w *Watchdog) evaluate(nw *nodeWatch, now time.Time) {
	rate := nw.est.Rate(now)
	diskOver := w.cfg.DiskWatermarkBytes > 0 && nw.disk >= w.cfg.DiskWatermarkBytes
	rateOver := w.cfg.IngestWatermarkBps > 0 && rate >= w.cfg.IngestWatermarkBps
	if !nw.over {
		if diskOver || rateOver {
			nw.over = true
			if w.alarms != nil {
				w.alarms.Inc()
			}
		}
		return
	}
	// Latched: resume only once both metrics clear the hysteresis band.
	diskClear := w.cfg.DiskWatermarkBytes == 0 ||
		float64(nw.disk) < float64(w.cfg.DiskWatermarkBytes)*resumeFraction
	rateClear := w.cfg.IngestWatermarkBps == 0 ||
		rate < w.cfg.IngestWatermarkBps*resumeFraction
	if diskClear && rateClear {
		nw.over = false
	}
}

// ObserveDisk records a node's reported dock disk usage (heartbeats).
func (w *Watchdog) ObserveDisk(node string, bytes uint64) {
	w.mu.Lock()
	nw := w.get(node)
	nw.disk = bytes
	w.evaluate(nw, w.cfg.Clock())
	w.mu.Unlock()
}

// ObserveIngest records n bytes of event traffic arriving from node.
func (w *Watchdog) ObserveIngest(node string, n int) {
	now := w.cfg.Clock()
	w.mu.Lock()
	nw := w.get(node)
	nw.est.Observe(n, now)
	w.evaluate(nw, now)
	w.mu.Unlock()
}

// Over reports whether node is latched over a watermark right now.
func (w *Watchdog) Over(node string) bool {
	now := w.cfg.Clock()
	w.mu.Lock()
	defer w.mu.Unlock()
	nw, ok := w.nodes[node]
	if !ok {
		return false
	}
	// Rates decay on their own; re-judge so a quiet node un-latches
	// without waiting for its next observation.
	w.evaluate(nw, now)
	return nw.over
}

// Rate returns node's estimated ingest byte-rate (bytes/second).
func (w *Watchdog) Rate(node string) float64 {
	now := w.cfg.Clock()
	w.mu.Lock()
	defer w.mu.Unlock()
	nw, ok := w.nodes[node]
	if !ok {
		return 0
	}
	return nw.est.Rate(now)
}
