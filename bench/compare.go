package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of -compare for one (metric, workload) pairing.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// failRatioSpec bounds failed/attempted ops, which the result files carry
// beside the metrics: an absolute +0.002, since the ratio is usually 0.
var failRatioSpec = metricSpec{Name: "fail_ratio", Unit: "ratio", Better: "lower", Slack: 0.002}

// loadRuns reads a comma-separated set of result files written with -out.
func loadRuns(arg string) ([]runResult, error) {
	var runs []runResult
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// valuesOf collects one metric of one workload across a set of runs.
func valuesOf(runs []runResult, workload string, spec metricSpec) []float64 {
	var vals []float64
	for _, r := range runs {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			if spec.Name == failRatioSpec.Name {
				if w.Attempted > 0 {
					vals = append(vals, float64(w.Failed)/float64(w.Attempted))
				}
			} else if v, ok := w.Metrics[spec.Name]; ok {
				vals = append(vals, v.Value)
			}
		}
	}
	sort.Float64s(vals)
	return vals
}

// judge applies spec's bound to the parent's runs a and the change's runs b
// (both sorted). A difference counts only beyond the bound; when either
// side's own run-to-run spread is wider than the bound the pairing is
// unresolved, unless every run of one side beats every run of the other.
func judge(spec metricSpec, a, b []float64) (verdict string, medA, medB, spread float64) {
	medA, medB = median(a), median(b)
	limit := spec.Bound*math.Abs(medA) + spec.Slack
	worse := medB - medA // by how much b is worse than a
	apart := b[0] > a[len(a)-1]
	ahead := b[len(b)-1] < a[0]
	if spec.Better == "higher" {
		worse = -worse
		apart, ahead = ahead, apart
	}
	spread = max(a[len(a)-1]-a[0], b[len(b)-1]-b[0])
	noisy := spread > limit
	switch {
	case worse > limit && (!noisy || apart):
		verdict = verdictRegressed
	case -worse > limit && (!noisy || ahead):
		verdict = verdictImproved
	case noisy:
		verdict = verdictUnresolved
	default:
		verdict = verdictUnchanged
	}
	return verdict, medA, medB, spread
}

// runCompare prints a verdict per (metric, workload) for the result sets
// named by aArg (the parent) and bArg (the change) and returns the exit
// code: 1 when anything regressed, 2 when the inputs cannot be read.
func runCompare(out io.Writer, aArg, bArg string) int {
	a, err := loadRuns(aArg)
	if err == nil {
		var b []runResult
		if b, err = loadRuns(bArg); err == nil {
			return compareRuns(out, a, b)
		}
	}
	fmt.Fprintf(out, "bench: -compare: %v\n", err)
	return 2
}

func compareRuns(out io.Writer, a, b []runResult) int {
	counts := map[string]int{}
	fmt.Fprintf(out, "%-14s %-20s %14s %14s %9s %9s  %s\n", "workload", "metric", "parent", "change", "change%", "spread%", "verdict")
	for _, w := range workloads {
		for _, spec := range append(append([]metricSpec(nil), endToEnd...), failRatioSpec) {
			va, vb := valuesOf(a, w.name, spec), valuesOf(b, w.name, spec)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, medA, medB, spread := judge(spec, va, vb)
			counts[verdict]++
			pct := func(x float64) float64 {
				if medA == 0 {
					return 0
				}
				return 100 * x / math.Abs(medA)
			}
			fmt.Fprintf(out, "%-14s %-20s %14.4f %14.4f %+8.2f%% %8.2f%%  %s\n",
				w.name, spec.Name, medA, medB, pct(medB-medA), pct(spread), verdict)
		}
	}
	fmt.Fprintf(out, "%d improved, %d unchanged, %d regressed, %d unresolved (spread wider than the bound)\n",
		counts[verdictImproved], counts[verdictUnchanged], counts[verdictRegressed], counts[verdictUnresolved])
	if counts[verdictRegressed] > 0 {
		return 1
	}
	return 0
}
