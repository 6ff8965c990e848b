package main

import "repro/internal/trace"

// metricDef names one reported metric. BENCHMARK.json carries the same
// lists (with the gated metrics' bounds); smoke_test.go keeps the two in
// step.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// gated are the end-to-end metrics that repeat within a tenth from run to
// run on every workload: BENCHMARK.json lists them under end_to_end with a
// bound, and a later change is rejected when one worsens by more.
var gated = []metricDef{
	{"setup_s", "s", false},
	{"wire_msgs_per_op", "msgs/op", false},
	{"allocs_per_op_plus1", "allocs/op", false},
	{"heap_live_mb", "MB", false},
}

// hostTime are the end-to-end metrics measured on the backend's clock,
// which off the simulator is the host's. The reference host's speed drifts
// by more than any bound worth having (README.md, "Which metrics are
// gated"), so BENCHMARK.json does not gate them: an untraced run measures
// and prints them, -json stores them for -aa and -compare, and a traced run
// reports them per layer as bench.<name>.
var hostTime = []metricDef{
	{"tput_ops_per_s", "ops/s", true},
	{"op_p50_us", "us", false},
	{"op_p99_us", "us", false},
	{"vtput_ops_per_vms", "ops/vms", true},
}

// endToEnd are the metrics a user of the system sees, measured by an
// untraced run. Every workload reports all of them.
var endToEnd = append(append([]metricDef(nil), gated...), hostTime...)

// ungatedBound stands in for a bound where -compare judges a host-time
// metric: the tenth that no bound may exceed.
const ungatedBound = 0.10

// perLayer are the metrics of single layers, reported by a traced run:
// span self times, public counters per op, and the micro step's per-call
// costs (micro.go); last, the host-time end-to-end metrics as the run's
// untraced rounds measured them.
var perLayer = []metricDef{
	{"core.read_us_per_op", "us", false},
	{"core.write_us_per_op", "us", false},
	{"core.commit_us_per_op", "us", false},
	{"core.retry_us_per_op", "us", false},
	{"core.body_self_us_per_op", "us", false},
	{"core.attempts_per_op", "1/op", false},
	{"core.commit_pct", "%", true},
	{"core.aborts_conflict_per_kop", "1/kop", false},
	{"core.aborts_revoked_per_kop", "1/kop", false},
	{"core.aborts_doomed_per_kop", "1/kop", false},
	{"core.aborts_stale_per_kop", "1/kop", false},
	{"core.aborts_timeout_per_kop", "1/kop", false},
	{"core.readlock_reqs_per_op", "1/op", false},
	{"core.writelock_reqs_per_op", "1/op", false},
	{"core.release_msgs_per_op", "1/op", false},
	{"core.commit_roundtrips_per_op", "1/op", false},
	{"core.local_reads_per_op", "1/op", true},
	{"core.revalidations_per_op", "1/op", false},
	{"core.payloads_per_op", "1/op", false},
	{"core.gather_mean_us", "us", false},
	{"core.scatter_mean_us", "us", false},
	{"core.node_load_imbalance", "ratio", false},
	{"dslock.conflicts_per_kop", "1/kop", false},
	{"cm.revocations_per_kop", "1/kop", false},
	{"port.payloads_per_wire_msg", "ratio", true},
	{"port.coalesced_payload_pct", "%", true},
	{"wire.bytes_per_op", "B/op", false},
	{"net.rpc_timeouts", "count", false},
	{"placement.stale_nacks_per_kop", "1/kop", false},
	{"placement.migrations", "count", false},
	{"placement.materialized_leaves", "count", false},
	{"placement.remote_access_pct", "%", false},
	{"sim.events_per_host_s", "1/s", true},
	{"port.host_us_per_payload", "us", false},
	{"bench.trace_overhead_pct", "%", false},
	{"dslock.read_grant_release_ns", "ns", false},
	{"dslock.write_conflict_scan_ns", "ns", false},
	{"dslock.write_conflict_scan_allocs", "allocs", false},
	{"cm.resolve_ns", "ns", false},
	{"placement.owner_hash_ns", "ns", false},
	{"placement.owner_record_adaptive_ns", "ns", false},
	{"placement.owner_record_hier_ns", "ns", false},
	{"placement.owner_record_hier_allocs", "allocs", false},
	{"mem.read_ns", "ns", false},
	{"mem.read_versioned_ns", "ns", false},
	{"mem.vclock_snapshot_ns", "ns", false},
	{"mem.vclock_tick_ns", "ns", false},
	{"port.outbox_stage_flush_ns", "ns", false},
	{"live.pingpong_ns", "ns", false},
	{"live.recvmatch_stash16_ns", "ns", false},
	{"net.pingpong_ns", "ns", false},
	{"net.state_read_ns", "ns", false},
	{"wire.payload_encode_ns", "ns", false},
	{"wire.payload_decode_ns", "ns", false},
	{"wire.frame_write_read_ns", "ns", false},
	{"sim.event_dispatch_ns", "ns", false},
	{"sim.send_recv_ns", "ns", false},
	{"trace.emit_ns", "ns", false},
	{"bench.tput_ops_per_s", "ops/s", true},
	{"bench.op_p50_us", "us", false},
	{"bench.op_p99_us", "us", false},
	{"bench.vtput_ops_per_vms", "ops/vms", true},
}

// virtualExact are the end-to-end metrics that are pure functions of the
// seed on a sim workload: two runs of the same code must agree bit for bit.
var virtualExact = []string{"vtput_ops_per_vms", "op_p50_us", "op_p99_us", "wire_msgs_per_op"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndOf computes one round's end-to-end metrics.
func endToEndOf(r *roundResult) map[string]float64 {
	ops := float64(r.ops)
	return map[string]float64{
		"setup_s":             r.setupS,
		"tput_ops_per_s":      ops / r.windowS,
		"op_p50_us":           r.lat.quantile(0.50) / 1e3,
		"op_p99_us":           r.lat.quantile(0.99) / 1e3,
		"wire_msgs_per_op":    ratio(float64(r.stats.WireMsgs), float64(r.stats.Ops)),
		"allocs_per_op_plus1": 1 + float64(r.mallocs)/ops,
		"heap_live_mb":        r.heapMB,
		"vtput_ops_per_vms":   ops / r.clockMs,
	}
}

// layersOf computes one traced round's span and counter metrics. Counters
// cover the whole run (warm-up included), so they are divided by the whole
// run's ops; span totals cover the window's ops.
func layersOf(r *roundResult) map[string]float64 {
	st := r.stats
	ops := float64(st.Ops)
	kop := ops / 1000
	sops := float64(r.spans.ops) * 1e3 // ns -> µs per op
	reason := func(x trace.Reason) float64 { return ratio(float64(st.AbortReasons[x]), kop) }
	return map[string]float64{
		"core.read_us_per_op":           ratio(float64(r.spans.read), sops),
		"core.write_us_per_op":          ratio(float64(r.spans.write), sops),
		"core.commit_us_per_op":         ratio(float64(r.spans.commit), sops),
		"core.retry_us_per_op":          ratio(float64(r.spans.retry), sops),
		"core.body_self_us_per_op":      ratio(float64(r.spans.bodySelf), sops),
		"core.attempts_per_op":          ratio(float64(r.spans.attempts), float64(r.spans.ops)),
		"core.commit_pct":               st.CommitRate(),
		"core.aborts_conflict_per_kop":  reason(trace.ReasonConflict),
		"core.aborts_revoked_per_kop":   reason(trace.ReasonRevoked),
		"core.aborts_doomed_per_kop":    reason(trace.ReasonDoomedRead),
		"core.aborts_stale_per_kop":     reason(trace.ReasonStalePlacement),
		"core.aborts_timeout_per_kop":   reason(trace.ReasonTimeout),
		"core.readlock_reqs_per_op":     ratio(float64(st.ReadLockReqs), ops),
		"core.writelock_reqs_per_op":    ratio(float64(st.WriteLockReqs), ops),
		"core.release_msgs_per_op":      ratio(float64(st.ReleaseMsgs), ops),
		"core.commit_roundtrips_per_op": ratio(float64(st.CommitRoundTrips), ops),
		"core.local_reads_per_op":       ratio(float64(st.LocalReads), ops),
		"core.revalidations_per_op":     ratio(float64(st.Revalidations), ops),
		"core.payloads_per_op":          ratio(float64(st.Msgs), ops),
		"core.gather_mean_us":           r.gatherUs,
		"core.scatter_mean_us":          r.scatterUs,
		"core.node_load_imbalance":      st.LoadImbalance(),
		"dslock.conflicts_per_kop":      ratio(float64(st.Conflicts), kop),
		"cm.revocations_per_kop":        ratio(float64(st.Revocations), kop),
		"port.payloads_per_wire_msg":    st.PayloadsPerWireMsg(),
		"port.coalesced_payload_pct":    100 * ratio(float64(st.CoalescedPayloads), float64(st.Msgs)),
		"wire.bytes_per_op":             ratio(float64(st.MsgBytes), ops),
		"net.rpc_timeouts":              float64(st.RPCTimeouts),
		"placement.stale_nacks_per_kop": ratio(float64(st.StaleNacks), kop),
		"placement.migrations":          float64(st.Migrations),
		"placement.materialized_leaves": float64(st.MaterializedLeaves),
		"placement.remote_access_pct":   100 * st.RemoteAccessRatio(),
		"sim.events_per_host_s":         ratio(float64(r.simEvents), r.runHostS),
		"port.host_us_per_payload":      ratio(r.runHostS*1e6, float64(st.Msgs)),
	}
}
