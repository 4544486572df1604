//! Per-layer metrics of the traced run: span statistics, registry deltas
//! over the traced phases, and the direct layer probes.

use std::collections::BTreeMap;

use dl_obs::{flat_name, HistogramSnapshot, Snapshot};

use crate::stats::{hist_delta, hist_percentile, median_u64, tail_percentile};
use crate::trace::{self, Span};
use crate::workloads::Probes;

/// Registry movement over the traced phases of every round: scalar
/// deltas, histogram deltas, and the last value of each gauge. Keys are
/// flat names (`dlfm_srv1_upcalls`).
#[derive(Default)]
pub struct Delta {
    scalars: BTreeMap<String, f64>,
    hists: BTreeMap<String, HistogramSnapshot>,
    end: BTreeMap<String, f64>,
}

fn scalars(s: &Snapshot) -> BTreeMap<String, f64> {
    let counters = s.counters.iter().map(|(k, &v)| (flat_name(k), v as f64));
    counters.chain(s.gauges.iter().map(|(k, &v)| (flat_name(k), v))).collect()
}

impl Delta {
    /// Adds the movement between two snapshots of one system.
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        let b = scalars(before);
        for (k, v) in scalars(after) {
            *self.scalars.entry(k.clone()).or_default() += v - b.get(&k).copied().unwrap_or(0.0);
            let e = self.end.entry(k).or_insert(f64::MIN);
            *e = e.max(v);
        }
        for (k, h) in &after.histograms {
            let d = match before.histograms.get(k) {
                Some(hb) => hist_delta(h, hb),
                None => h.clone(),
            };
            self.hists.entry(flat_name(k)).or_default().merge(&d);
        }
    }

    fn scalar(&self, flat: &str) -> f64 {
        self.scalars.get(flat).copied().unwrap_or(0.0)
    }

    fn hist(&self, flat: &str) -> HistogramSnapshot {
        self.hists.get(flat).cloned().unwrap_or_default()
    }
}

/// Everything the traced run collects.
#[derive(Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub delta: Delta,
    pub probes: Probes,
    /// Completed operations and updates in the traced phases.
    pub ops: u64,
    pub updates: u64,
    /// Throughput of the traced and untraced halves of each round.
    pub traced_ops_per_s: f64,
    pub untraced_ops_per_s: f64,
}

/// A per-layer metric: its name and unit (`BENCHMARK.json` gives the
/// direction that is better).
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric { name, unit }
}

/// Every per-layer metric, in report order.
pub const PER_LAYER: &[LayerMetric] = &[
    m("core.select_datalink_ns_p50", "ns"),
    m("core.select_datalink_ns_p99", "ns"),
    m("core.tokens_per_op", "1/op"),
    m("core.txn_dml_ns_p50", "ns"),
    m("core.txn_dml_ns_p99", "ns"),
    m("core.txn_commit_ns_p50", "ns"),
    m("core.txn_commit_ns_p99", "ns"),
    m("dlfs.open_ns_p50", "ns"),
    m("dlfs.open_ns_p99", "ns"),
    m("dlfs.read_ns_p50", "ns"),
    m("dlfs.read_ns_p99", "ns"),
    m("dlfs.write_ns_p50", "ns"),
    m("dlfs.write_ns_p99", "ns"),
    m("dlfs.close_ns_p50", "ns"),
    m("dlfs.close_ns_p99", "ns"),
    m("dlfs.busy_waits_per_op", "1/op"),
    m("dlfm.upcalls_per_op", "1/op"),
    m("dlfm.upcall_round_trip_ns_p50", "ns"),
    m("dlfm.upcall_round_trip_ns_p99", "ns"),
    m("dlfm.upcall_pool_peak_workers", "count"),
    m("dlfm.direct_admission_ns_p50", "ns"),
    m("dlfm.wait_archived_ns_p50", "ns"),
    m("dlfm.wait_archived_ns_p99", "ns"),
    m("dlfm.archives_per_update", "1/update"),
    m("dlfm.agent_executor_tasks_per_op", "1/op"),
    m("minidb.repo_fsyncs_per_op", "1/op"),
    m("minidb.host_fsyncs_per_op", "1/op"),
    m("minidb.repo_fsync_ns_p50", "ns"),
    m("minidb.repo_fsync_ns_p99", "ns"),
    m("minidb.host_fsync_ns_p99", "ns"),
    m("minidb.repo_wal_batch_frames_mean", "frames"),
    m("minidb.host_wal_batch_frames_mean", "frames"),
    m("fskit.reads_per_op", "1/op"),
    m("fskit.writes_per_op", "1/op"),
    m("fskit.plain_read_ns_p50", "ns"),
    m("net.frames_per_op", "1/op"),
    m("net.bytes_per_op", "B/op"),
    m("net.round_trip_ns_p50", "ns"),
    m("net.round_trip_ns_p99", "ns"),
    m("net.backpressure_stalls", "count"),
    m("net.call_ns_p50", "ns"),
    m("repl.records_shipped_per_op", "1/op"),
    m("repl.bytes_shipped_per_op", "B/op"),
    m("repl.ship_lag_bytes_end", "B"),
    m("bench.residual_ns_p50", "ns"),
    m("obs.tracing_overhead_pct", "%"),
];

fn p50(v: &[u64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    median_u64(&v)
}

fn p99(v: &[u64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    tail_percentile(&v, 0.99).map_or(0.0, |q| q.value as f64)
}

/// Computes every [`PER_LAYER`] metric, in order. A layer a workload does
/// not exercise reads 0. `node` is the file server's name.
pub fn per_layer(t: &Traced, node: &str) -> Vec<(&'static LayerMetric, f64)> {
    let spans = trace::durations(&t.spans);
    let own = trace::self_times(&t.spans);
    let span = |name: &str| spans.get(name).map_or(&[][..], |v| v.as_slice());
    let d = &t.delta;
    let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
    let per_op = |v: f64| per(v, t.ops);
    let named =
        |layer: &str, suffix: &str| d.scalar(&format!("{layer}_{}_{suffix}", flat_name(node)));
    let hist = |layer: &str, suffix: &str| d.hist(&format!("{layer}_{}_{suffix}", flat_name(node)));
    let repo_fsync = hist("minidb", "fsync_ns");
    let host_fsync = d.hist("minidb_host_fsync_ns");
    let upcall_rt = hist("dlfm", "upcall_round_trip_ns");
    let net_rt = hist("net", "round_trip_ns");
    let overhead = if t.untraced_ops_per_s > 0.0 {
        (t.untraced_ops_per_s - t.traced_ops_per_s) / t.untraced_ops_per_s * 100.0
    } else {
        0.0
    };
    let value = |name: &str| -> f64 {
        match name {
            "core.select_datalink_ns_p50" => p50(span("core.select_datalink")),
            "core.select_datalink_ns_p99" => p99(span("core.select_datalink")),
            "core.tokens_per_op" => per_op(d.scalar("engine_tokens_generated")),
            "core.txn_dml_ns_p50" => p50(span("core.txn_dml")),
            "core.txn_dml_ns_p99" => p99(span("core.txn_dml")),
            "core.txn_commit_ns_p50" => p50(span("core.txn_commit")),
            "core.txn_commit_ns_p99" => p99(span("core.txn_commit")),
            "dlfs.open_ns_p50" => p50(span("dlfs.open")),
            "dlfs.open_ns_p99" => p99(span("dlfs.open")),
            "dlfs.read_ns_p50" => p50(span("dlfs.read")),
            "dlfs.read_ns_p99" => p99(span("dlfs.read")),
            "dlfs.write_ns_p50" => p50(span("dlfs.write")),
            "dlfs.write_ns_p99" => p99(span("dlfs.write")),
            "dlfs.close_ns_p50" => p50(span("dlfs.close")),
            "dlfs.close_ns_p99" => p99(span("dlfs.close")),
            "dlfs.busy_waits_per_op" => per_op(named("dlfs", "busy_waits")),
            "dlfm.upcalls_per_op" => per_op(named("dlfm", "upcalls")),
            "dlfm.upcall_round_trip_ns_p50" => hist_percentile(&upcall_rt, 0.50),
            "dlfm.upcall_round_trip_ns_p99" => hist_percentile(&upcall_rt, 0.99),
            "dlfm.upcall_pool_peak_workers" => d
                .end
                .get(&format!("dlfm_{}_upcall_pool_peak_workers", flat_name(node)))
                .copied()
                .unwrap_or(0.0),
            "dlfm.direct_admission_ns_p50" => p50(&t.probes.admission_ns),
            "dlfm.wait_archived_ns_p50" => p50(span("dlfm.wait_archived")),
            "dlfm.wait_archived_ns_p99" => p99(span("dlfm.wait_archived")),
            "dlfm.archives_per_update" => per(named("dlfm", "archives"), t.updates),
            "dlfm.agent_executor_tasks_per_op" => per_op(named("dlfm", "agent_executor_tasks")),
            "minidb.repo_fsyncs_per_op" => per_op(repo_fsync.count as f64),
            "minidb.host_fsyncs_per_op" => per_op(host_fsync.count as f64),
            "minidb.repo_fsync_ns_p50" => hist_percentile(&repo_fsync, 0.50),
            "minidb.repo_fsync_ns_p99" => hist_percentile(&repo_fsync, 0.99),
            "minidb.host_fsync_ns_p99" => hist_percentile(&host_fsync, 0.99),
            "minidb.repo_wal_batch_frames_mean" => hist("minidb", "wal_batch_frames").mean(),
            "minidb.host_wal_batch_frames_mean" => d.hist("minidb_host_wal_batch_frames").mean(),
            "fskit.reads_per_op" => per_op(named("fskit", "reads")),
            "fskit.writes_per_op" => per_op(named("fskit", "writes")),
            "fskit.plain_read_ns_p50" => p50(&t.probes.plain_read_ns),
            "net.frames_per_op" => per_op(named("net", "frames_in") + named("net", "frames_out")),
            "net.bytes_per_op" => per_op(named("net", "bytes_in") + named("net", "bytes_out")),
            "net.round_trip_ns_p50" => hist_percentile(&net_rt, 0.50),
            "net.round_trip_ns_p99" => hist_percentile(&net_rt, 0.99),
            "net.backpressure_stalls" => named("net", "backpressure_stalls"),
            "net.call_ns_p50" => p50(&t.probes.call_ns),
            "repl.records_shipped_per_op" => per_op(named("repl", "records_shipped")),
            "repl.bytes_shipped_per_op" => per_op(named("repl", "bytes_shipped")),
            "repl.ship_lag_bytes_end" => d
                .end
                .get(&format!("repl_{}_ship_lag_bytes", flat_name(node)))
                .copied()
                .unwrap_or(0.0),
            "bench.residual_ns_p50" => p50(own.get("op").map_or(&[][..], |v| v.as_slice())),
            "obs.tracing_overhead_pct" => overhead,
            other => unreachable!("per-layer metric {other} has no definition"),
        }
    };
    PER_LAYER.iter().map(|lm| (lm, value(lm.name))).collect()
}
