package main

// metricDef names one reported metric. The same table is recorded in
// BENCHMARK.json at the repository root (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening as a share of the baseline
}

// endToEnd are the metrics a user of the capture library would see. They
// are always measured with tracing off.
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s", "higher", 0.25},
	{"paced_cpu_ns_per_frame", "ns", "lower", 0.25},
	{"delivery_p50_us", "us", "lower", 0.25},
	{"delivered_frac", "frac", "higher", 0.001},
	{"allocs_per_frame", "allocs", "lower", 0.02},
	{"alloc_bytes_per_frame", "B", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the layer metrics of a traced run, named <module>.<metric>.
var perLayer = []metricDef{
	{Name: "scap.pass_rate_p50", Unit: "frames/s", Better: "higher"},
	{Name: "scap.pass_rate_iqr_frac", Unit: "frac", Better: "lower"},
	{Name: "scap.inject_ns_per_frame_paced", Unit: "ns", Better: "lower"},
	{Name: "scap.inject_ns_per_frame_sat", Unit: "ns", Better: "lower"},
	{Name: "scap.inject_blocked_frac", Unit: "frac", Better: "lower"},
	{Name: "scap.events_per_frame", Unit: "count", Better: "lower"},
	{Name: "scap.chunk_bytes_mean", Unit: "B", Better: "higher"},
	{Name: "scap.callback_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "scap.worker_batch_mean", Unit: "count", Better: "higher"},
	{Name: "scap.stage_ring_worker_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "scap.stage_ring_worker_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "scap.delivery_p99_us", Unit: "us", Better: "lower"},
	{Name: "scap.delivery_max_us", Unit: "us", Better: "lower"},
	{Name: "scap.close_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "scap.handoff_residual_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "pkt.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "pkt.flowhash_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "bpf.match_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "nic.receive_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "nic.receive_filtered_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "nic.filter_add_remove_ns", Unit: "ns", Better: "lower"},
	{Name: "nic.dropped_at_nic_frac", Unit: "frac", Better: "higher"},
	{Name: "nic.ring_drop_frames", Unit: "count", Better: "lower"},
	{Name: "nic.queue_skew", Unit: "ratio", Better: "lower"},
	{Name: "flowtab.lookup_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "flowtab.create_remove_ns_per_stream", Unit: "ns", Better: "lower"},
	{Name: "flowtab.sweep_ns_per_group", Unit: "ns", Better: "lower"},
	{Name: "flowtab.probe_groups_per_lookup", Unit: "count", Better: "lower"},
	{Name: "flowtab.live_streams_peak", Unit: "count", Better: "lower"},
	{Name: "sketch.observe_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "sketch.suppressed_frac", Unit: "frac", Better: "higher"},
	{Name: "reassembly.segment_ns_per_seg", Unit: "ns", Better: "lower"},
	{Name: "reassembly.ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "reassembly.ooo_seg_frac", Unit: "frac", Better: "lower"},
	{Name: "reassembly.dup_bytes_frac", Unit: "frac", Better: "lower"},
	{Name: "mem.decide_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "mem.block_cycle_ns_per_chunk", Unit: "ns", Better: "lower"},
	{Name: "mem.high_water_mb", Unit: "MiB", Better: "lower"},
	{Name: "mem.arena_exhausted", Unit: "count", Better: "lower"},
	{Name: "event.push_pop_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "event.handoff_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "event.events_lost", Unit: "count", Better: "lower"},
	{Name: "core.engine_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "core.engine_allocs_per_frame", Unit: "allocs", Better: "lower"},
	{Name: "core.layers_sum_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "core.residual_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "core.stage_ingest_engine_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stage_ingest_engine_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stage_engine_ring_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stage_engine_ring_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cutoff_bytes_frac", Unit: "frac", Better: "higher"},
	{Name: "core.fdir_installed", Unit: "count", Better: "higher"},
	{Name: "core.streams_created_per_kframe", Unit: "count", Better: "lower"},
	{Name: "core.ppl_dropped_pkts", Unit: "count", Better: "lower"},
	{Name: "streamscope.cost_frac", Unit: "frac", Better: "lower"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.gen_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "bench.calib_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "bench.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.paced_rate_achieved_frac", Unit: "frac", Better: "higher"},
	{Name: "bench.workload_mb", Unit: "MiB", Better: "lower"},
	{Name: "bench.passes", Unit: "count", Better: "higher"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect pairs values with the definitions' units. A definition without
// a value is a harness bug and fails loudly.
func collect(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was not measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}
