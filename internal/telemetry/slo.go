package telemetry

import (
	"fmt"
	"math"
	"time"
)

// SLO is a service-level objective over one latency histogram: a bound on
// a quantile of every observation the histogram holds, read from its
// buckets (HistogramSnapshot.Quantile), so the verdict is exact to within
// the bucket the quantile falls in. The loadgen harness evaluates these
// after every run and fails CI on a violation, turning perf drift into a
// named, attributable failure.
type SLO struct {
	// Name labels the objective in tables and failure messages, e.g.
	// "hop-latency-p99".
	Name string
	// Series is the histogram family the objective reads, e.g.
	// "naplet_navigator_hop_latency_seconds".
	Series string
	// Quantile selects the order statistic, any q in [0, 1] (1 is the
	// max, read as the upper bound of the highest non-empty bucket).
	Quantile float64
	// Max is the bound in the histogram's base unit (seconds for every
	// latency series).
	Max float64
	// MinSamples gates evaluation: with fewer observations than this in
	// the whole histogram the objective is reported as SKIPPED rather
	// than silently passing on an empty histogram (default 1).
	MinSamples uint64
}

// SLOResult is one evaluated objective.
type SLOResult struct {
	SLO
	// Observed is the bucket-interpolated quantile over all Count
	// observations; +Inf when it falls in the overflow bucket.
	Observed float64
	// Count is the histogram's total observation count.
	Count uint64
	// Skipped is set when Count < MinSamples; Violated is then false.
	Skipped bool
	// Violated is set when Observed exceeds Max.
	Violated bool
}

// String renders the result as one line for logs and error lists.
func (r SLOResult) String() string {
	status := "ok"
	switch {
	case r.Skipped:
		status = "SKIPPED (no samples)"
	case r.Violated:
		status = "VIOLATED"
	}
	return fmt.Sprintf("%s: p%g %s over %d obs, max %s — %s",
		r.Name, r.Quantile*100, FormatSeconds(r.Observed), r.Count,
		FormatSeconds(r.Max), status)
}

// FormatSeconds renders a base-unit seconds value as a duration, and an
// overflow-bucket quantile as "+Inf".
func FormatSeconds(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// CheckSLO evaluates one objective against every observation in a histogram.
func CheckSLO(h *Histogram, slo SLO) SLOResult {
	if slo.MinSamples == 0 {
		slo.MinSamples = 1
	}
	res := SLOResult{SLO: slo}
	if h == nil {
		res.Skipped = true
		return res
	}
	res.Count = h.Count()
	if res.Count < slo.MinSamples {
		res.Skipped = true
		return res
	}
	res.Observed = h.Snapshot().Quantile(slo.Quantile)
	res.Violated = res.Observed > slo.Max
	return res
}

// CheckSLOs evaluates every objective against the registry, resolving each
// SLO's Series to the registered histogram (nil when the series was never
// registered, which reports as SKIPPED). It returns all results plus the
// violated subset for error reporting.
func (r *Registry) CheckSLOs(slos []SLO) (all, violated []SLOResult) {
	for _, slo := range slos {
		res := CheckSLO(r.findHistogram(slo.Series), slo)
		all = append(all, res)
		if res.Violated {
			violated = append(violated, res)
		}
	}
	return all, violated
}

// findHistogram returns the first registered histogram of the family, or
// nil. Label sets are ignored: SLO series are registered label-free.
func (r *Registry) findHistogram(family string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[family]; ok && s.kind == kindHistogram {
		return s.hist
	}
	for _, s := range r.series {
		if s.name == family && s.kind == kindHistogram {
			return s.hist
		}
	}
	return nil
}
