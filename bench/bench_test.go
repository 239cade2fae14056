package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestHarness keeps the harness honest: all four workloads, both passes,
// with short windows and a tiny ledger. It asserts the shape of what a full
// run reports, not its numbers.
func TestHarness(t *testing.T) {
	traceDir := t.TempDir()
	res, err := run(options{
		workload: "all", seed: 1, windows: 1, window: 300 * time.Millisecond, pass: "all",
		setups: 1, traceDir: traceDir, ledgerBudget: time.Millisecond, log: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(res.Workloads), len(workloads))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	// Counts that must be positive wherever they are reported at all.
	positive := []string{"ops_per_s", "req_us_p50", "allocs_per_op", "frames_per_op", "wire_bytes_per_op",
		"home_bytes_per_op", "naplet.record_bytes", "transport.calls_per_op", "directory.registers_per_op"}
	for _, w := range res.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q has a character outside letters, digits, _ . -", w.Name)
		}
		// The workloads are chosen so that no op fails on a healthy fleet.
		if !w.Correct || w.Attempted == 0 || w.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, w.Correct, w.Attempted, w.Failed)
		}
		for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
			if !name.MatchString(spec.Name) {
				t.Errorf("metric name %q has a character outside letters, digits, _ . -", spec.Name)
			}
			v, ok := w.Metrics[spec.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", w.Name, spec.Name)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: metric %s = %v", w.Name, spec.Name, v.Value)
			case v.Unit != spec.Unit:
				t.Errorf("%s: metric %s has unit %q, want %q", w.Name, spec.Name, v.Unit, spec.Unit)
			}
		}
		if len(w.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics reported, catalogue has %d", w.Name, len(w.Metrics), len(endToEnd)+len(perLayer))
		}
		for _, m := range positive {
			if w.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, m, w.Metrics[m].Value)
			}
		}
		if hit := w.Metrics["registry.cache_hit_ratio"].Value; hit != 1 {
			t.Errorf("%s: registry.cache_hit_ratio = %v on a warm fleet, want 1", w.Name, hit)
		}
		checkTrace(t, filepath.Join(traceDir, "trace-"+w.Name+".jsonl"))
	}
	if a, b := res.Workloads[0], res.Workloads[1]; a.PlanDigest != b.PlanDigest {
		t.Errorf("tour-tcp plan %s differs from tour-netsim plan %s", a.PlanDigest, b.PlanDigest)
	}
	if chase := res.Workloads[2]; chase.Metrics["directory.lookups_per_op"].Value <= res.Workloads[0].Metrics["directory.lookups_per_op"].Value {
		t.Errorf("chase-tcp looks up the directory no more often than tour-tcp")
	}

	// -compare passes a result against itself and fails a slower copy.
	var out bytes.Buffer
	if code := compareRuns(&out, []runResult{*res}, []runResult{*res}); code != 0 {
		t.Errorf("a result compared with itself exits %d:\n%s", code, out.String())
	}
	slower := cloneResult(t, res)
	for i := range slower.Workloads {
		v := slower.Workloads[i].Metrics["ops_per_s"]
		v.Value *= 0.6
		slower.Workloads[i].Metrics["ops_per_s"] = v
	}
	out.Reset()
	if code := compareRuns(&out, []runResult{*res}, []runResult{*slower}); code != 1 {
		t.Errorf("a copy with ops_per_s cut by 40%% exits %d, want 1:\n%s", code, out.String())
	}
}

func cloneResult(t *testing.T, r *runResult) *runResult {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var c runResult
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// checkTrace asserts that every span of a written trace is a root or lies
// inside its parent's interval, and that the trace has all three levels.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	spans := map[int64]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		spans[s.ID] = s
	}
	levels := map[string]int{}
	parented := 0
	for _, s := range spans {
		levels[s.Name]++
		if s.Parent == 0 {
			continue
		}
		parented++
		p, ok := spans[s.Parent]
		if !ok || !p.contains(&s) {
			t.Errorf("%s: span %d (%s %s) is not inside its parent %d", path, s.ID, s.Name, s.Kind, s.Parent)
		}
	}
	for _, level := range []string{"request", "call", "handler"} {
		if levels[level] == 0 {
			t.Errorf("%s: no %s spans", path, level)
		}
	}
	// Calls and handlers that found no parent are background work; they
	// must stay the exception.
	if children := levels["call"] + levels["handler"]; parented < children*9/10 {
		t.Errorf("%s: only %d of %d call and handler spans have a parent", path, parented, children)
	}
}

// benchmarkFile mirrors the keys of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalogue in metrics.go and
// workloads.go from drifting apart; on a mismatch it prints the file the
// catalogue describes.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 25}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, map[string]any{"name": w.name, "why": w.why})
	}
	for _, s := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, map[string]any{"name": s.Name, "unit": s.Unit, "better": s.Better, "bound": s.Bound})
	}
	for _, s := range perLayer {
		want.PerLayer = append(want.PerLayer, map[string]any{"name": s.Name, "unit": s.Unit, "better": s.Better})
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, normal any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantJSON, &normal); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, normal) {
		t.Errorf("BENCHMARK.json differs from the catalogue, which describes:\n%s", wantJSON)
	}
}
