package main

import "slices"

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds).
const runSeconds = 15

// metricDef names one benchmark metric. BENCHMARK.json lists the same
// names, units and bounds; a test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd is the gated list: what a user of the system sees, defined on
// every workload (the driver wants every gated metric from every workload,
// and never 0).
//
//   - setup_s: script generation + reference replay + server start + joins +
//     warm-up (median of the run's set-ups).
//   - deliver_p50_us: op sent (its scheduled time when the loop is open) →
//     applied at a receiving peer, over the (op, receiver) pairs of a round;
//     the median round (see roundStats). paper5/table200: Runner.ReplicaEpoch
//     reaches the op's target; fanout64 (phase A) and burst64 (from the
//     burst's slot): a subscriber decoded the op's (Worker, Seq).
//   - ops_per_s: paper5/table200: script ops ÷ lifecycle wall time (closed
//     loop, 1 in flight); fanout64: sat_ops_per_s; burst64: ops ÷ the time
//     their bursts took to drain. Per round; the median round.
//   - allocs_per_op: process Mallocs delta ÷ ops over the measured phases.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"deliver_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "1", "lower", 0.06},
}

// ungated is the rest of the issue's end-to-end names: each is defined on
// some workloads only (0 elsewhere) or spreads by more than a tenth from run
// to run, so BENCHMARK.json lists it without a bound, in per_layer. The
// untraced run prints them after the gated list; the traced pass reports
// them from its untraced third.
//
//   - deliver_p99_us (all): as deliver_p50_us, at the p99 of a round's pairs.
//     A run whose rounds have fewer than ten pairs beyond it ends without a
//     result. Its run-to-run spread was 8–29 % over six sets of ten runs.
//   - sat_ops_per_s (fanout64): ops delivered to all subscribers ÷ wall time
//     of a phase B segment (closed loop, 32 in flight per sender), median
//     over segments.
//   - join_p50_us (paper5: the initial joins; table200: late joins and
//     visitors): wsock.Dial start → snapshot + estimates applied.
//   - collection_p50_ms (paper5, table200): first join → every replica at
//     the final epoch → ComputePay returned.
//   - burst_drain_p50_us / burst_drain_p90_us (burst64): the burst's slot →
//     last subscriber decoded its last record.
//   - fail_ratio: failed checks ÷ attempted (the result's failed/attempted).
var ungated = []metricDef{
	{Name: "deliver_p99_us", Unit: "us", Better: "lower"},
	{Name: "sat_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "join_p50_us", Unit: "us", Better: "lower"},
	{Name: "collection_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "burst_drain_p50_us", Unit: "us", Better: "lower"},
	{Name: "burst_drain_p90_us", Unit: "us", Better: "lower"},
	{Name: "fail_ratio", Unit: "1", Better: "lower"},
}

// layers is the ledger: module name = layer. Source in the README: replay
// (public function timed on the run's own inputs), span (traced live pass),
// reg (the program's registry over the traced pass).
var layers = []metricDef{
	{Name: "sync.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "sync.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "sync.wire_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "sync.apply_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "sync.snapshot_encode_us", Unit: "us", Better: "lower"},
	{Name: "sync.snapshot_load_us", Unit: "us", Better: "lower"},
	{Name: "sync.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "wsock.write_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wsock.write_batch16_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wsock.read_block_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wsock.read_poll_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wsock.frames_out_per_op", Unit: "count", Better: "lower"},
	{Name: "wsock.bytes_out_per_op", Unit: "B", Better: "lower"},
	{Name: "wsock.buf_grows", Unit: "count", Better: "lower"},
	{Name: "transport.send_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.recv_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.recv_batch_msgs_mean", Unit: "count", Better: "higher"},
	{Name: "netpoll.dispatch_p50_us", Unit: "us", Better: "lower"},
	{Name: "netpoll.wakeups_per_op", Unit: "count", Better: "lower"},
	{Name: "netpoll.dispatches_per_op", Unit: "count", Better: "lower"},
	{Name: "netpoll.ready_batch_mean", Unit: "count", Better: "higher"},
	{Name: "server.core_handle_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.core_handle_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.core_busy_share", Unit: "1", Better: "lower"},
	{Name: "server.addclient_us", Unit: "us", Better: "lower"},
	{Name: "server.residence_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.residence_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.plane_residual_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.publish_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "server.flush_batch_mean", Unit: "count", Better: "higher"},
	{Name: "server.flush_batch_mean_sat", Unit: "count", Better: "higher"},
	{Name: "server.flush_sends_per_op", Unit: "count", Better: "lower"},
	{Name: "server.bcast_records_per_op", Unit: "count", Better: "lower"},
	{Name: "server.cursor_lag_p99", Unit: "count", Better: "lower"},
	{Name: "server.drops", Unit: "count", Better: "lower"},
	{Name: "server.estimate_sent_ratio", Unit: "1", Better: "higher"},
	{Name: "model.index_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "constraint.satisfied_by_us", Unit: "us", Better: "lower"},
	{Name: "constraint.repair_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "constraint.repair_actions_per_msg", Unit: "count", Better: "lower"},
	{Name: "constraint.augments_per_msg", Unit: "count", Better: "lower"},
	{Name: "pay.compute_us", Unit: "us", Better: "lower"},
	{Name: "pay.estimate_payload_bytes_mean", Unit: "B", Better: "lower"},
	{Name: "client.build_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "client.apply_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.handle_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "replay.run_us", Unit: "us", Better: "lower"},
	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "gen.script_gen_s", Unit: "s", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "gen.traced_deliver_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.unattributed_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.gomaxprocs", Unit: "count", Better: "higher"},
}

// perLayer is BENCHMARK.json's per_layer list, what --trace 1 reports.
var perLayer = slices.Concat(ungated, layers)

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"paper5", "the paper's 5-worker Cardinality-20 collection: small table, fan-out 4, so the fixed per-message wire path is the whole latency"},
	{"table200", "5 workers plus late joiners on a 200-row values/predicates template: Core.HandleBroadcast is most of every op, so core work shows and wire work does not"},
	{"fanout64", "2 senders and 64 thin subscribers on an 8-row table: the core is constant and tiny, so the write plane owns latency (open loop) and capacity (closed loop)"},
	{"burst64", "same topology, 16 toggles per sender back to back every 40 ms: records pile up behind each cursor, so coalescing and flusher budget do the work"},
}
