package main

// metricSpec names one benchmark metric. The catalogue below is the single
// source the harness, -compare, the test and BENCHMARK.json agree on.
type metricSpec struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it a regression; 0 on
	// per-layer metrics, which carry no bound.
	Bound float64
	// Slack is an absolute allowance added to the bound, for metrics whose
	// median is small enough that a relative bound alone would flap.
	Slack float64
}

// endToEnd lists the bounded figures a caller of the naplet space sees. Every
// workload reports every one. The count metrics repeat to a few parts in a
// thousand and carry tight bounds; the timing metrics carry the widest bound
// the benchmark contract allows, because the shared two-core reference box
// itself drifts by tens of percent over minutes (see README.md, "Steadiness").
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.1},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.03},
	{Name: "frames_per_op", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.01},
	{Name: "home_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.01},
}

// perLayer lists the traced-pass metrics: source T is measured in the
// traced window of the workload, source L is the ledger (timed loops over a
// layer's public functions on inputs captured from the workload). A metric
// a workload's requests never execute reads 0 there.
var perLayer = []metricSpec{
	// End-to-end figures that cannot carry a bound under the benchmark
	// contract, measured like the bounded ones in a two-client window of the
	// traced pass: the first two can legitimately read 0, and the latency
	// quantiles do not repeat within any allowed bound on the reference box.
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "retained_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "req_us_p50", Unit: "us", Better: "lower"},
	{Name: "req_us_p99", Unit: "us", Better: "lower"},

	{Name: "wire.frame_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_encode_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.frame_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_decode_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.pool_miss_ratio", Unit: "ratio", Better: "lower"},

	{Name: "naplet.record_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "naplet.record_encode_allocs", Unit: "count", Better: "lower"},
	{Name: "naplet.record_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "naplet.record_decode_allocs", Unit: "count", Better: "lower"},
	{Name: "naplet.record_bytes", Unit: "B", Better: "lower"},
	{Name: "naplet.mail_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "naplet.mail_roundtrip_allocs", Unit: "count", Better: "lower"},

	{Name: "state.set_ns", Unit: "ns", Better: "lower"},
	{Name: "state.set_allocs", Unit: "count", Better: "lower"},
	{Name: "state.load_ns", Unit: "ns", Better: "lower"},
	{Name: "state.load_allocs", Unit: "count", Better: "lower"},

	{Name: "security.check_landing_ns", Unit: "ns", Better: "lower"},
	{Name: "security.check_landing_allocs", Unit: "count", Better: "lower"},

	{Name: "registry.instantiate_ns", Unit: "ns", Better: "lower"},
	{Name: "registry.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "navigator.cold_hop_us", Unit: "us", Better: "lower"},
	{Name: "navigator.cold_hop_bytes", Unit: "B", Better: "lower"},

	{Name: "monitor.admit_run_remove_ns", Unit: "ns", Better: "lower"},
	{Name: "monitor.admit_run_remove_allocs", Unit: "count", Better: "lower"},

	{Name: "manager.arrive_depart_ns", Unit: "ns", Better: "lower"},
	{Name: "manager.arrive_depart_allocs", Unit: "count", Better: "lower"},

	{Name: "overload.gate_admit_ns", Unit: "ns", Better: "lower"},
	{Name: "overload.gate_admit_allocs", Unit: "count", Better: "lower"},
	{Name: "overload.shed_per_op", Unit: "count", Better: "lower"},

	{Name: "navigator.serialize_us", Unit: "us", Better: "lower"},
	{Name: "navigator.negotiate_us", Unit: "us", Better: "lower"},
	{Name: "navigator.transfer_us", Unit: "us", Better: "lower"},
	{Name: "navigator.landing_handler_us", Unit: "us", Better: "lower"},
	{Name: "navigator.transfer_handler_us", Unit: "us", Better: "lower"},
	{Name: "navigator.retries_per_op", Unit: "count", Better: "lower"},
	{Name: "navigator.dup_transfers_per_op", Unit: "count", Better: "lower"},

	{Name: "server.visit_us", Unit: "us", Better: "lower"},
	{Name: "server.flight_us", Unit: "us", Better: "lower"},
	{Name: "server.report_handler_us", Unit: "us", Better: "lower"},
	{Name: "server.reports_per_op", Unit: "count", Better: "lower"},
	{Name: "server.launch_us", Unit: "us", Better: "lower"},

	{Name: "transport.rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.rtt_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.fabric_us_per_call", Unit: "us", Better: "lower"},
	{Name: "transport.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.late_replies", Unit: "count", Better: "lower"},

	{Name: "netsim.call_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.call_allocs", Unit: "count", Better: "lower"},

	{Name: "directory.register_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "directory.registers_per_op", Unit: "count", Better: "lower"},
	{Name: "directory.lookups_per_op", Unit: "count", Better: "lower"},
	{Name: "directory.handler_us", Unit: "us", Better: "lower"},

	{Name: "locator.lookups_per_op", Unit: "count", Better: "lower"},
	{Name: "locator.dir_roundtrips_per_op", Unit: "count", Better: "lower"},
	{Name: "locator.cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "messenger.post_handler_us", Unit: "us", Better: "lower"},
	{Name: "messenger.forwards_per_op", Unit: "count", Better: "lower"},
	{Name: "messenger.held_per_op", Unit: "count", Better: "lower"},
	{Name: "messenger.retries_per_op", Unit: "count", Better: "lower"},
	{Name: "messenger.stranded_per_1k", Unit: "count", Better: "lower"},

	{Name: "resource.channel_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "resource.channel_roundtrip_allocs", Unit: "count", Better: "lower"},
	{Name: "man.byte_ratio", Unit: "ratio", Better: "higher"},

	{Name: "dock.save_us", Unit: "us", Better: "lower"},
	{Name: "dock.snapshot_bytes", Unit: "B", Better: "lower"},

	{Name: "telemetry.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower"},

	{Name: "ledger.hop_sum_us", Unit: "us", Better: "lower"},
	{Name: "ledger.explained_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value; specs decide which names belong.
type metricSet map[string]metricValue

// fill builds a metricSet holding exactly the given specs, taking each
// value from vals (absent names read 0).
func fill(specs []metricSpec, vals map[string]float64) metricSet {
	out := make(metricSet, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: vals[s.Name], Unit: s.Unit}
	}
	return out
}
