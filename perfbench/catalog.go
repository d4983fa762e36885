package main

// The metric catalog. BENCHMARK.json at the repository root must list
// exactly these names, units and directions (TestCatalogMatchesBenchmarkJSON).
//
// Every workload prints every end-to-end metric: each names what a user of
// that workload waits for or pays, so one name can be compared across
// commits workload by workload. Means says what each measures on each
// workload; runs print it beside the value.

type e2eDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
	// Means says what the metric measures on each workload.
	Means map[string]string
}

type layerDef struct {
	Name, Unit, Better string
	// Moves is the end-to-end metric and workload this layer metric should
	// move, written down before any change claims a gain.
	Moves string
}

type workloadDef struct {
	Name string
	// Why is BENCHMARK.json's one-line reason, including the loop shape.
	Why string
}

var workloads = []workloadDef{
	{"batch-large", "closed loop, 2 clients: large SPEC ACCEL proxy traces (scales 2-4, postencil bug mixed in) as JSON lines to a journaled daemon; decode, journal append and replay dominate"},
	{"fleet-small", "closed loop, 2 clients: small DRACC and progen traces to a coordinator with 2 loopback workers; per-job lease, fsync and result overhead dominate"},
	{"stream-live", "open loop, 2 sessions at 24 chunks/s each (a quarter of the 136k events/s closed-loop capacity): framed chunks of SPEC proxies and progen mutants, findings read after every chunk"},
	{"paper-fig8", "in-process, no HTTP or decode: the five SPEC ACCEL proxies at scale 2, 4 threads, alternating native, online ARBALEST and warm replay (paper Fig. 8)"},
}

var e2eMetrics = []e2eDef{
	{"setup_s", "s", "lower", 0.25, map[string]string{
		"*": "input generation, server start-up and warm-up; median of five set-ups",
	}},
	{"slowdown_x", "x", "lower", 0.25, map[string]string{
		"batch-large": "process CPU time (clients, daemon, collector) over the measured phase over the summed native run time of the jobs completed (each program's median of 10 uninstrumented runs just before and after the phase)",
		"fleet-small": "process CPU time (clients, coordinator, workers, collector) over the measured phase over the summed native run time of the jobs completed (each program's median of 10 uninstrumented runs just before and after the phase)",
		"stream-live": "session stretch: first-chunk-due to close-acknowledged over the schedule's span",
		"paper-fig8":  "geometric mean over the proxies of online ARBALEST time over native time (Fig. 8)",
	}},
	{"peak_rss_mb", "MB", "lower", 0.25, map[string]string{
		"*": "90th percentile over 0.5 s windows of the process's VmHWM during the measured phase (clients, servers and workers all run in it)",
	}},
}

var layerMetrics = []layerDef{
	{"trace.decode_jsonl_ns_per_ev", "ns", "lower", "slowdown_x and client.verdict_p50_ms on batch-large"},
	{"trace.decode_framed_ns_per_ev", "ns", "lower", "slowdown_x on fleet-small; process.cpu_us_per_event and client.verdict_p50_ms on stream-live"},
	{"trace.push_decode_ns_per_ev", "ns", "lower", "process.cpu_us_per_event and client.verdict_p50_ms on stream-live"},
	{"trace.encode_ns_per_ev", "ns", "lower", "setup_s on every workload"},
	{"trace.replay_cold_ns_per_ev", "ns", "lower", "slowdown_x and client.verdict_p50_ms on batch-large"},
	{"trace.replay_warm_ns_per_ev", "ns", "lower", "trace.replay_slowdown on paper-fig8"},
	{"trace.replay_w2_speedup", "x", "higher", "none today (the daemon replays with 1 worker); informs keeping parallel replay"},
	{"trace.replay_slowdown", "x", "lower", "the paper's offline-replay slowdown; slowdown_x on paper-fig8 is the online one"},
	{"trace.bytes_per_ev_jsonl", "B", "lower", "slowdown_x and client.events_per_s on batch-large (upload size per event)"},
	{"trace.bytes_per_ev_framed", "B", "lower", "slowdown_x on fleet-small and process.cpu_us_per_event on stream-live (wire size per event)"},
	{"ratio.decode_over_replay", "x", "lower", "slowdown_x and client.verdict_p50_ms on batch-large: analysis should become the largest layer"},
	{"journal.append_ms", "ms", "lower", "client.verdict_p50_ms on batch-large and fleet-small"},
	{"journal.mark_ms", "ms", "lower", "client.verdict_p50_ms on fleet-small"},
	{"journal.fleet_token_ms", "ms", "lower", "client.verdict_p50_ms on fleet-small"},
	{"journal.checkpoint_ms", "ms", "lower", "client.verdict_p90_ms on stream-live"},
	{"journal.stream_sync_ms", "ms", "lower", "client.verdict_p90_ms on stream-live"},
	{"service.accept_ms", "ms", "lower", "client.verdict_p50_ms on batch-large and fleet-small"},
	{"service.accept_to_done_ms", "ms", "lower", "client.verdict_p50_ms on batch-large and fleet-small"},
	{"service.queue_wait_ms", "ms", "lower", "client.verdict_p90_ms on batch-large and fleet-small"},
	{"service.refused_frac", "frac", "lower", "failed count on every HTTP workload"},
	{"stream.open_ms", "ms", "lower", "client.verdict_p50_ms on stream-live"},
	{"stream.feed_ns_per_ev", "ns", "lower", "process.cpu_us_per_event and client.verdict_p50_ms on stream-live"},
	{"stream.findings_get_ms", "ms", "lower", "client.verdict_p50_ms on stream-live"},
	{"stream.close_ms", "ms", "lower", "client.verdict_p50_ms on stream-live"},
	{"dist.lease_to_done_ms", "ms", "lower", "client.verdict_p50_ms on fleet-small"},
	{"dist.leases_per_job", "count", "lower", "slowdown_x and client.events_per_s on fleet-small"},
	{"dist.fenced", "count", "lower", "slowdown_x and client.events_per_s on fleet-small"},
	{"tools.new_analyzer_us", "us", "lower", "slowdown_x and client.verdict_p50_ms on fleet-small"},
	{"tools.summarize_us", "us", "lower", "slowdown_x and client.verdict_p50_ms on fleet-small"},
	{"interval.lookups_per_access", "count", "lower", "slowdown_x on paper-fig8 and trace.replay_slowdown"},
	{"interval.memo_hit_frac", "frac", "higher", "slowdown_x on paper-fig8 and trace.replay_slowdown"},
	{"shadow.cas_retries_per_access", "count", "lower", "process.cpu_us_per_event and client.verdict_p50_ms on stream-live"},
	{"shadow.peak_bytes", "B", "lower", "peak_rss_mb on every workload (the paper's Fig. 9 tool peak)"},
	{"omp.native_ms", "ms", "lower", "denominator of slowdown_x on paper-fig8"},
	{"core.online_ms", "ms", "lower", "numerator of slowdown_x on paper-fig8"},
	{"client.verdict_p50_ms", "ms", "lower", "none: the wall-clock verdict latency of the untraced half, median (what verdict means on each workload: README.md); it tracks the shared host's speed too closely to gate"},
	{"client.verdict_p90_ms", "ms", "lower", "none: 90th percentile of client.verdict_p50_ms's samples"},
	{"client.events_per_s", "1/s", "higher", "none: wall-clock events completed per second of the untraced half (paper-fig8: accesses per second of online run time)"},
	{"process.cpu_us_per_event", "us", "lower", "slowdown_x on batch-large and fleet-small, whose numerator it is per event (untraced half; paper-fig8: the online runs' CPU time per access); gates nothing on stream-live, whose open loop keeps up"},
	{"loadgen.lag_p99_ms", "ms", "lower", "none: how late the load generator ran; a large value voids the run"},
	{"tracing.overhead_frac", "frac", "lower", "none: client.verdict_p50_ms traced over untraced, minus one"},
	{"self.client_ms", "ms", "lower", "self time of the benchmark's client spans, per operation"},
	{"self.service_ms", "ms", "lower", "self time of service spans, per operation"},
	{"self.trace_ms", "ms", "lower", "self time of trace spans, per operation"},
	{"self.journal_ms", "ms", "lower", "self time of journal spans, per operation"},
	{"self.core_ms", "ms", "lower", "self time of analysis spans, per operation"},
	{"self.dist_ms", "ms", "lower", "self time of fleet spans, per operation"},
}

// devSeed is the seed used while writing a change; heldOutSeed is kept
// aside for verifying a claimed gain on inputs the change was not tuned on.
const (
	devSeed     = 1
	heldOutSeed = 7919
)
