package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// overloadFamilies are the series the overload subcommand surfaces: the
// admission gate's books, the failure detector's per-peer verdicts, the
// retry budgets, and the transport-level shed counters.
var overloadFamilies = []string{
	"naplet_overload_admitted_total",
	"naplet_overload_shed_total",
	"naplet_overload_inflight",
	"naplet_overload_queued",
	"naplet_health_peers",
	"naplet_health_transitions_total",
	"naplet_retry_budget_exhausted_total",
	"naplet_retry_budget_tokens",
	"naplet_transport_deadline_shed_total",
	"naplet_transport_late_replies_total",
}

// overloadCmd fetches a napletd telemetry endpoint and pretty-prints its
// overload posture: what the admission gate admitted and shed (by class
// and reason), how many peers the failure detector holds alive, suspect
// or dead and how often it changed its mind, retry-budget
// exhaustion, and the transport's deadline sheds and late replies — the
// one-stop view of "is this dock shedding, and is every shed accounted".
func overloadCmd(addr string) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		log.Fatalf("napletctl overload: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("napletctl overload: %s returned %s", addr, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("napletctl overload: read: %v", err)
	}

	samples := parsePrometheus(string(body))
	wanted := make(map[string]bool, len(overloadFamilies))
	for _, f := range overloadFamilies {
		wanted[f] = true
	}
	var rows []sample
	var admitted, shed float64
	gated := false
	for _, s := range samples {
		if !wanted[s.family] {
			continue
		}
		rows = append(rows, s)
		// Health gauges exist on every dock; only the gate's own series
		// say the overload stack is on.
		gated = gated || strings.HasPrefix(s.family, "naplet_overload_")
		switch s.family {
		case "naplet_overload_admitted_total":
			admitted += s.value
		case "naplet_overload_shed_total":
			shed += s.value
		}
	}
	if !gated {
		fmt.Println("no overload series — this napletd runs without -overload (or has served no traffic)")
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	tbl := stats.NewTable("overload", "value")
	for _, s := range rows {
		tbl.AddRow(strings.TrimPrefix(s.name, "naplet_"), formatMetric(s.value))
	}
	fmt.Print(tbl.String())
	if total := admitted + shed; total > 0 {
		fmt.Printf("\nshed ratio: %.2f%% of %s arrivals\n", 100*shed/total, formatMetric(total))
	}
}
