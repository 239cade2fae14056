package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Baseline is the committed BENCH_loadgen.json: the trajectory record of
// one canonical short-profile netsim run, with the deterministic byte
// metrics gated and the wall-clock metrics recorded as context only.
type Baseline struct {
	GeneratedAt string  `json:"generated_at"`
	GoVersion   string  `json:"go_version"`
	Profile     string  `json:"profile"`
	Fabric      string  `json:"fabric"`
	Seed        int64   `json:"seed"`
	PlanDigest  string  `json:"plan_digest"`
	Values      []Value `json:"values"`
	// Extra records additional profile/fabric runs that ride along with
	// the canonical one — the overload-resilience scenario chiefly. The
	// -check gate replays each with its recorded seed; their scalars are
	// timing-dependent context, so the pass/fail signal is the replay's
	// own Violations (goodput floor, control SLO, shed reconciliation).
	Extra []ExtraRun `json:"extra,omitempty"`
}

// ExtraRun pins one additional run's replay coordinates and context
// scalars.
type ExtraRun struct {
	Profile    string  `json:"profile"`
	Fabric     string  `json:"fabric"`
	Seed       int64   `json:"seed"`
	PlanDigest string  `json:"plan_digest,omitempty"`
	Values     []Value `json:"values,omitempty"`
}

// NewExtra flattens one extra run. Nothing is gated: extra profiles
// judge themselves through Violations at replay time, and their scalars
// ride along as trajectory context only.
func NewExtra(res *Result) ExtraRun {
	e := ExtraRun{
		Profile:    res.Profile,
		Fabric:     res.Fabric,
		Seed:       res.Seed,
		PlanDigest: res.PlanDigest,
	}
	for name, val := range res.Metrics {
		e.Values = append(e.Values, Value{Name: name, Value: val})
	}
	sortValues(e.Values)
	return e
}

// Check compares a replay of this extra run: the plan digest must hold
// and the run must pass its own objectives.
func (e ExtraRun) Check(res *Result) []string {
	var failures []string
	if res.PlanDigest != e.PlanDigest && e.PlanDigest != "" {
		failures = append(failures, fmt.Sprintf(
			"%s/%s: plan digest %s, baseline %s — the seeded schedule drifted",
			e.Profile, e.Fabric, res.PlanDigest, e.PlanDigest))
	}
	failures = append(failures, compareValues(e.Values, res.Metrics)...)
	for _, v := range res.Violations {
		failures = append(failures, fmt.Sprintf("%s/%s: %s", e.Profile, e.Fabric, v))
	}
	return failures
}

// NewBaseline flattens a run into a committable baseline. Byte counts and
// delivery totals are deterministic on netsim (TimeScale 0, no faults) so
// they gate tightly; latency and elapsed-time scalars ride along ungated
// because wall clock on a shared CI machine is not a regression signal.
func NewBaseline(res *Result) *Baseline {
	b := &Baseline{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Profile:     res.Profile,
		Fabric:      res.Fabric,
		Seed:        res.Seed,
		PlanDigest:  res.PlanDigest,
	}
	gated := map[string]Value{
		// Work totals: exact on a deterministic plan; any drop means lost
		// tours or messages.
		"tours_completed":    {HigherIsWorse: false, Tolerance: 0.001},
		"messages_delivered": {HigherIsWorse: false, Tolerance: 0.001},
		"landings":           {HigherIsWorse: false, Tolerance: 0.001},
		// Wire bytes at the stations: growth is protocol bloat.
		"cnmp_station_bytes":   {HigherIsWorse: true, Tolerance: 0.15},
		"naplet_station_bytes": {HigherIsWorse: true, Tolerance: 0.15},
		// The §6 claim itself: CNMP must stay this much heavier.
		"byte_ratio": {HigherIsWorse: false, Tolerance: 0.15},
	}
	for name, val := range res.Metrics {
		v := Value{Name: name, Value: val}
		if g, ok := gated[name]; ok {
			v.Gate = true
			v.HigherIsWorse = g.HigherIsWorse
			v.Tolerance = g.Tolerance
		}
		b.Values = append(b.Values, v)
	}
	sortValues(b.Values)
	return b
}

func sortValues(vs []Value) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].Name < vs[j-1].Name; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// WriteBaseline writes the baseline file.
func WriteBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaseline loads a committed baseline file.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	return &b, nil
}

// CheckBaseline replays the baseline's exact configuration (profile,
// fabric, seed) and compares the gated metrics. It returns the failure
// list — empty means the gate passed — and err for harness breakage.
func (b *Baseline) Check(res *Result) []string {
	var failures []string
	if res.PlanDigest != b.PlanDigest && b.PlanDigest != "" {
		failures = append(failures, fmt.Sprintf(
			"plan digest %s, baseline %s — the seeded schedule drifted", res.PlanDigest, b.PlanDigest))
	}
	failures = append(failures, compareValues(b.Values, res.Metrics)...)
	failures = append(failures, res.Violations...)
	return failures
}

// defaultTolerance is the fractional drift a gated value may show before
// the gate fails, unless the value carries its own.
const defaultTolerance = 0.10

// Value is one named scalar of a baseline.
type Value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// HigherIsWorse sets the regression direction: true for byte counts
	// and latencies, false for ratios and throughputs where shrinking is
	// the regression.
	HigherIsWorse bool `json:"higher_is_worse"`
	// Gate marks values that participate in compareValues; ungated
	// values are trajectory context only.
	Gate bool `json:"gate,omitempty"`
	// Tolerance overrides defaultTolerance when > 0.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// regressed reports whether got drifted beyond tol (a fraction, e.g. 0.10)
// from base in the bad direction. With higherIsWorse, regression means got
// > base*(1+tol); otherwise got < base*(1-tol). A zero base treats any
// nonzero got as a regression when higher is worse, and never regresses
// otherwise (there is nothing left to lose).
func regressed(got, base, tol float64, higherIsWorse bool) bool {
	if higherIsWorse {
		if base == 0 {
			return got > 0
		}
		return got > base*(1+tol)
	}
	if base == 0 {
		return false
	}
	return got < base*(1-tol)
}

// compareValues checks measured values against a baseline list. Every
// gated baseline entry must be present in got and within tolerance in its
// direction; a gated entry missing from got is a failure (the harness
// stopped measuring something it used to gate). Returns the failure
// descriptions, empty on success.
func compareValues(baseline []Value, got map[string]float64) []string {
	var failures []string
	for _, v := range baseline {
		if !v.Gate {
			continue
		}
		g, ok := got[v.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from this run", v.Name))
			continue
		}
		tol := v.Tolerance
		if tol <= 0 {
			tol = defaultTolerance
		}
		if regressed(g, v.Value, tol, v.HigherIsWorse) {
			dir := "exceeds"
			if !v.HigherIsWorse {
				dir = "fell below"
			}
			failures = append(failures, fmt.Sprintf(
				"%s: %.4g %s baseline %.4g by >%.0f%%", v.Name, g, dir, v.Value, 100*tol))
		}
	}
	return failures
}
