package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// newSharedTelemetrySpace builds a space whose servers report into ONE
// registry and hop tracer, the aggregate view an operator scrapes.
func newSharedTelemetrySpace(t *testing.T, names ...string) (*space, *telemetry.Registry, *telemetry.HopTracer) {
	t.Helper()
	sp := &space{
		net:     netsim.New(netsim.Config{}),
		reg:     newTestRegistry(t),
		servers: make(map[string]*Server),
	}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewHopTracer(0)
	sp.net.Instrument(reg)
	for _, name := range names {
		srv, err := New(Config{
			Name:      name,
			Fabric:    sp.net,
			Registry:  sp.reg,
			Telemetry: reg,
			Tracer:    tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		sp.servers[name] = srv
		t.Cleanup(func() { srv.Close() })
	}
	return sp, reg, tracer
}

// TestRoundTripItineraryHopSpans launches a tour and checks every
// migration hop is retrievable per NapletID from the tracer, with cost
// breakdowns and ok outcomes.
func TestRoundTripItineraryHopSpans(t *testing.T) {
	sp, _, tracer := newSharedTelemetrySpace(t, "home", "s1", "s2")
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)

	spans := tracer.Spans(nid.Key())
	if len(spans) < 2 {
		t.Fatalf("spans = %d, want >= 2 (home->s1, s1->s2); all: %+v", len(spans), tracer.All())
	}
	if spans[0].From != "home" || spans[0].To != "s1" {
		t.Errorf("span 0 = %s->%s, want home->s1", spans[0].From, spans[0].To)
	}
	if spans[1].From != "s1" || spans[1].To != "s2" {
		t.Errorf("span 1 = %s->%s, want s1->s2", spans[1].From, spans[1].To)
	}
	for i, s := range spans {
		if s.Outcome != telemetry.OutcomeOK {
			t.Errorf("span %d outcome = %q, want ok (err %q)", i, s.Outcome, s.Err)
		}
		if s.Total <= 0 || s.RecordBytes <= 0 {
			t.Errorf("span %d missing cost data: total=%v record=%d", i, s.Total, s.RecordBytes)
		}
		if s.Naplet != nid.Key() {
			t.Errorf("span %d naplet = %q, want %q", i, s.Naplet, nid.Key())
		}
	}
	// Hop indices strictly increase along the tour.
	for i := 1; i < len(spans); i++ {
		if spans[i].Hop <= spans[i-1].Hop {
			t.Errorf("hop indices not increasing: %d then %d", spans[i-1].Hop, spans[i].Hop)
		}
	}
	// A second naplet's spans do not leak into the first's view.
	if got := tracer.Spans("nobody@nowhere:000000000000"); len(got) != 0 {
		t.Errorf("spans for unknown naplet = %+v", got)
	}
}

// TestSharedRegistryExposesComponentFamilies scrapes the shared registry
// after a tour and checks at least five instrumented packages contribute
// series, the acceptance bar for the /metrics surface.
func TestSharedRegistryExposesComponentFamilies(t *testing.T) {
	sp, reg, _ := newSharedTelemetrySpace(t, "home", "s1", "s2")
	nid, err := sp.servers["home"].Launch(context.Background(), LaunchOptions{
		Owner:    "czxu",
		Codebase: "test.Collector",
		Pattern:  itinerary.SeqVisits([]string{"s1", "s2"}, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sp.servers["home"], nid, manager.StatusCompleted)

	// An origin counts its dispatch once the ack is back, and the last one
	// can still be on its way when home already shows the tour completed.
	var text string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		text = sb.String()
		if strings.Contains(text, "naplet_navigator_dispatched_total 2") || time.Now().After(deadline) {
			break
		}
	}

	components := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "naplet_") {
			continue
		}
		parts := strings.SplitN(line, "_", 3)
		if len(parts) == 3 {
			components[parts[1]] = true
		}
	}
	for _, want := range []string{"locator", "messenger", "monitor", "navigator", "transport", "server"} {
		if !components[want] {
			t.Errorf("component %q missing from scrape; have %v", want, components)
		}
	}
	if len(components) < 5 {
		t.Fatalf("only %d instrumented components exposed: %v", len(components), components)
	}

	// The tour's activity is visible in the aggregate counters.
	for _, probe := range []string{
		"naplet_navigator_dispatched_total 2",
		"naplet_navigator_landed_total 2",
		"naplet_monitor_admissions_total 3",
	} {
		if !strings.Contains(text, probe) {
			t.Errorf("scrape missing %q", probe)
		}
	}
	if !strings.Contains(text, `naplet_transport_call_latency_seconds_bucket`) {
		t.Error("scrape missing transport latency histogram buckets")
	}
}
