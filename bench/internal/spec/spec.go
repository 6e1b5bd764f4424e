// Package spec names the benchmark's workloads and metrics once. The
// command prints BENCHMARK.json from it and a test keeps the committed
// file equal to it.
package spec

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is one reported number. Bound, for end-to-end metrics only, is
// the share of the parent's median by which it may worsen.
type Metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// RunSeconds is how long one run measures.
const RunSeconds = 20

// Workloads lists every workload with the reason it exists.
var Workloads = []Workload{
	{"live-ingest", "write path: closed-loop POST /observe in barriered waves; ctlapi accept, window grouping, large gob frames, gateway upserts, IOP stitches; almost no chord lookups"},
	{"live-query", "read path: closed-loop GET /locate, one P2P round trip, so ctlapi dominates; a traced run adds GET /trace, six sequential round trips, where TCP, gob and Resilient dominate"},
	{"live-mixed-repl", "open loop at a fixed rate, reads beside writes with 2 replicas: the only workload with mirror writes and anti-entropy, where a gain for one use that costs the other shows"},
	{"sim-paper", "no sockets: the paper's workload on sim.Kernel, transport.Memory, chord and core, the path every figure runs; a live-path change must not move it"},
}

// EndToEnd lists what a user of the system sees. Each workload reports
// all of them for its own primary operation; bench/README.md says which
// that is.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"msgs_per_op", "count", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// PerLayer lists the single-layer metrics, grouped by the repo module
// they measure. A metric that does not apply to a workload reads 0.
var PerLayer = []Metric{
	// ctlapi: pins over a constant stub Backend, spans, telemetry.
	{Name: "ctlapi.locate_rt_us", Unit: "us", Better: "lower"},
	{Name: "ctlapi.observe_rt_us", Unit: "us", Better: "lower"},
	{Name: "ctlapi.trace_rt_us", Unit: "us", Better: "lower"},
	{Name: "ctlapi.allocs_per_locate", Unit: "count", Better: "lower"},
	{Name: "ctlapi.allocs_per_observe", Unit: "count", Better: "lower"},
	{Name: "ctlapi.new_conns_per_observe", Unit: "count", Better: "lower"},
	{Name: "ctlapi.new_conns_per_locate", Unit: "count", Better: "lower"},
	{Name: "ctlapi.self_us_observe", Unit: "us", Better: "lower"},
	{Name: "ctlapi.self_us_locate", Unit: "us", Better: "lower"},
	{Name: "ctlapi.self_us_trace", Unit: "us", Better: "lower"},
	{Name: "ctlapi.requests", Unit: "count", Better: "higher"},
	// The whole request as the load generator saw it, per operation.
	{Name: "request.observe_p50_us", Unit: "us", Better: "lower"},
	{Name: "request.observe_p99_us", Unit: "us", Better: "lower"},
	{Name: "request.locate_p50_us", Unit: "us", Better: "lower"},
	{Name: "request.locate_p99_us", Unit: "us", Better: "lower"},
	{Name: "request.trace_p50_us", Unit: "us", Better: "lower"},
	{Name: "request.trace_p99_us", Unit: "us", Better: "lower"},
	// peertrack.Node, from the span around the adapter's call.
	{Name: "node.observe_us_p50", Unit: "us", Better: "lower"},
	{Name: "node.locate_us_p50", Unit: "us", Better: "lower"},
	{Name: "node.trace_us_p50", Unit: "us", Better: "lower"},
	{Name: "node.flush_barrier_ms", Unit: "ms", Better: "lower"},
	// core.
	{Name: "core.flushes", Unit: "count", Better: "lower"},
	{Name: "core.groups_per_flush", Unit: "count", Better: "lower"},
	{Name: "core.events_per_group", Unit: "count", Better: "higher"},
	{Name: "core.rebuffered", Unit: "count", Better: "lower"},
	{Name: "core.stitch_deferred", Unit: "count", Better: "lower"},
	{Name: "core.stitch_abandoned", Unit: "count", Better: "lower"},
	{Name: "core.locate_hops_mean", Unit: "count", Better: "lower"},
	{Name: "core.trace_hops_mean", Unit: "count", Better: "lower"},
	{Name: "core.ascent_fetches", Unit: "count", Better: "lower"},
	{Name: "core.delegations", Unit: "count", Better: "lower"},
	{Name: "core.self_us_locate", Unit: "us", Better: "lower"},
	{Name: "core.self_us_trace", Unit: "us", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.index_ns_per_obs", Unit: "ns", Better: "lower"},
	// replication.
	{Name: "replication.mirror_writes_per_obs", Unit: "count", Better: "lower"},
	{Name: "replication.repair_pushes_per_obs", Unit: "count", Better: "lower"},
	{Name: "replication.probes", Unit: "count", Better: "lower"},
	// chord.
	{Name: "chord.lookups_per_op", Unit: "count", Better: "lower"},
	{Name: "chord.lookup_hops_mean", Unit: "count", Better: "lower"},
	{Name: "chord.lookup_failures", Unit: "count", Better: "lower"},
	{Name: "chord.stabilize_rounds", Unit: "count", Better: "lower"},
	{Name: "chord.lookup_ns", Unit: "ns", Better: "lower"},
	// transport.
	{Name: "transport.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.calls_per_trace", Unit: "count", Better: "lower"},
	{Name: "transport.call_us_mean", Unit: "us", Better: "lower"},
	{Name: "transport.time_share", Unit: "share", Better: "lower"},
	{Name: "transport.maintenance_call_share", Unit: "share", Better: "lower"},
	{Name: "transport.failures", Unit: "count", Better: "lower"},
	{Name: "transport.drops", Unit: "count", Better: "lower"},
	{Name: "transport.blocked", Unit: "count", Better: "lower"},
	{Name: "transport.conn_stale", Unit: "count", Better: "lower"},
	{Name: "transport.resilient_retries", Unit: "count", Better: "lower"},
	{Name: "transport.breaker_opens", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_call_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_call_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_call_large_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_call_2conc_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.wire_bytes_small", Unit: "bytes", Better: "lower"},
	{Name: "transport.wire_bytes_large", Unit: "bytes", Better: "lower"},
	{Name: "transport.declared_bytes_small", Unit: "bytes", Better: "lower"},
	{Name: "transport.declared_bytes_large", Unit: "bytes", Better: "lower"},
	{Name: "transport.resilient_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.memory_call_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.declared_bytes_per_obs", Unit: "bytes", Better: "lower"},
	// sim and gossip.
	{Name: "sim.kernel_step_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "gossip.rounds", Unit: "count", Better: "lower"},
	{Name: "gossip.exchange_failures", Unit: "count", Better: "lower"},
	{Name: "gossip.deaths", Unit: "count", Better: "lower"},
	// The benchmark's own parts and the runtime.
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.send_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.send_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.backlog_growth", Unit: "ratio", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "tracing.overhead_share", Unit: "share", Better: "lower"},
}

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []Workload       `json:"workloads"`
	EndToEnd   []ManifestMetric `json:"end_to_end"`
	PerLayer   []ManifestMetric `json:"per_layer"`
}

// ManifestMetric is a metric as BENCHMARK.json spells it.
type ManifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BuildManifest assembles BENCHMARK.json from the lists above.
func BuildManifest() Manifest {
	m := Manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads,
	}
	for _, e := range EndToEnd {
		bound := e.Bound
		m.EndToEnd = append(m.EndToEnd, ManifestMetric{e.Name, e.Unit, e.Better, &bound})
	}
	for _, p := range PerLayer {
		m.PerLayer = append(m.PerLayer, ManifestMetric{Name: p.Name, Unit: p.Unit, Better: p.Better})
	}
	return m
}
