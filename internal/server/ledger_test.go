package server

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/allocledger"
	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
)

// TestWarmTourAllocLedger splits TestWarmTourAllocBudget's warm hop by the
// package that allocates. With runtime.MemProfileRate at 1 every
// allocation the heap profile can see is a record of its own; the records
// of 200 warm 8-hop tours — the difference of two profiles — are charged
// by allocledger to the first repro/internal frame on their stacks (one in
// a _test.go file to "test": the test's agent and waiting), and printed per
// hop.
//
// What the profile cannot see is the "tiny" line: the runtime packs noscan
// allocations under 16 bytes — short strings, mostly — into a shared
// 16-byte block and profiles only the one that starts a block, while
// MemStats.Mallocs counts each. runtime/metrics counts the packed ones, so
// the lines add up to MemStats.Mallocs; the test requires 99 % of it, and
// 80 % from the package lines alone (85.7 % measured: 43.4 of 50.6).
// Each line is bounded at its measured value plus 15 %, so a perf change
// names the line it moved and an allocation creeping back names its
// package.
func TestWarmTourAllocLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// Allocations per warm hop, as measured; each line's bound is 15 %
	// more, and a package not named here may take 0.5.
	measured := map[string]float64{
		"navigator": 7.94, "wire": 7.32, "tiny": 7.25, "naplet": 5.62,
		"state": 4.51, "test": 4.38, "monitor": 3.38, "itinerary": 2.50,
		"server": 2.00, "manager": 1.98, "id": 1.50, "messenger": 1.12,
		"directory": 1.02,
	}
	const (
		tours       = 200
		slack       = 1.15
		unnamed     = 0.5
		minAccounts = 0.99
		minProfiled = 0.8
	)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	route := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"}
	sp := newSpace(t, spaceOpts{mode: locator.ModeDirectory, directory: true}, append([]string{"home"}, route...)...)
	pattern := itinerary.SeqVisits(route, "")
	tour := func() {
		t.Helper()
		nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{Owner: "czxu", Codebase: "test.Collector", Pattern: pattern})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)
	}
	tour() // first contact: landing requests, cold code
	tour()

	start := time.Now()
	reading := allocledger.Start()
	for i := 0; i < tours; i++ {
		tour()
	}
	lines, mallocs := reading.Lines()
	t.Logf("ledger measured in %v", time.Since(start).Round(time.Millisecond))

	hops := float64(tours * len(route))
	var accounted float64
	for _, n := range lines {
		accounted += float64(n) / hops
	}
	profiled := accounted - float64(lines["tiny"])/hops
	total := float64(mallocs) / hops
	names := make([]string, 0, len(lines))
	for name := range lines {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return lines[names[i]] > lines[names[j]] })
	var table strings.Builder
	for _, name := range names {
		fmt.Fprintf(&table, "\n  %-10s %6.2f", name, float64(lines[name])/hops)
	}
	t.Logf("allocations per warm hop, by package:%s\n  %.2f of %.2f mallocs accounted for, %.2f (%.3f) by package",
		table.String(), accounted, total, profiled, profiled/total)

	if accounted < minAccounts*total || profiled < minProfiled*total {
		t.Errorf("the lines account for %.2f of %.2f mallocs per hop, the package lines for %.2f: want %.0f %% and %.0f %%",
			accounted, total, profiled, 100*minAccounts, 100*minProfiled)
	}
	for _, name := range names {
		got, bound := float64(lines[name])/hops, unnamed
		if m, ok := measured[name]; ok {
			bound = m * slack
		}
		if got > bound {
			t.Errorf("%s allocates %.2f times per warm hop, bound %.2f", name, got, bound)
		}
	}
}
