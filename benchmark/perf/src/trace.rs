//! The traced run: where a committed op's time goes, layer by layer.
//!
//! End-to-end metrics never come from here. This run measures the
//! workload briefly untraced and then traced (the difference is the
//! tracing overhead), replays it in-process for per-call spans and exact
//! counts, times single layers on its message shapes, and assembles the
//! per-layer table. Layers are this repository's modules: `core`,
//! `crypto`, `types`, `storage`, `runtime.transport`, `runtime.client`,
//! `runtime.node`, the replicated service (`statemachine`'s counter or
//! `bfs`), and `model`.

use crate::layers::{self, CRYPTO_FORMULA};
use crate::live::{LayerMetric, RunData, Session};
use crate::replay;
use crate::spans::{durations_of, totals_by_name, Recorder, Span};
use crate::stats::{percentile, summarize};
use crate::workload::{andrew_script, Workload, BFS_BUCKETS, CLIENTS};
use bft_runtime::{
    run_andrew_mux, run_andrew_unreplicated_tcp, LoopbackCluster, ServiceKind, UnreplicatedServer,
};
use bft_types::ClientId;
use std::path::Path;
use std::time::Duration;

/// Andrew scale of the application-mode pair behind
/// `bfs.app_overhead_ratio` (client compute between file ops, as the real
/// benchmark runs; the paper's headline is about this mode).
pub const APP_PAIR_SCALE: u32 = 10;

/// Clusters each half of the traced run measures.
pub const TRACE_CYCLES: usize = 3;
/// A traced run's slice is `seconds` over this: shorter than the
/// end-to-end run's, because the run also pays for the replay and the
/// single-layer measurements.
pub const TRACE_SLICE_DIVISOR: f64 = 10.0;

/// Message delays on an ordered op's critical path with tentative
/// execution on: request, pre-prepare, prepare, reply.
pub const WRITE_PATH_HOPS: f64 = 4.0;

pub struct TraceResult {
    pub untraced: RunData,
    pub traced: RunData,
    pub layers: Vec<LayerMetric>,
    /// Live spans, then replay spans, then single-layer spans.
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
    pub replay_wrong: u64,
    pub replay_converged: bool,
}

fn median_ops_per_s(run: &RunData) -> f64 {
    summarize(&run.slices.iter().map(|s| s.ops_per_s()).collect::<Vec<_>>()).median
}

fn median_rw_p50_us(run: &RunData) -> f64 {
    let per_slice: Vec<f64> = run
        .slices
        .iter()
        .map(|s| percentile(&s.rw_ms, 0.5) * 1e3)
        .collect();
    summarize(&per_slice).median
}

/// The single-node baseline and the application-mode pair, BFS only.
fn bfs_baselines(replicated_ops_per_s: f64) -> (f64, f64, f64) {
    let deadline = Duration::from_secs(60);
    let unrepl = {
        let server = UnreplicatedServer::start(BFS_BUCKETS);
        run_andrew_unreplicated_tcp(
            server.addr(),
            CLIENTS as usize,
            andrew_script(),
            false,
            deadline,
        )
    };
    let app_script = bfs::generate_script(&bfs::AndrewConfig {
        scale: APP_PAIR_SCALE,
        ..bfs::AndrewConfig::default()
    });
    let app_unrepl = {
        let server = UnreplicatedServer::start(BFS_BUCKETS);
        run_andrew_unreplicated_tcp(
            server.addr(),
            CLIENTS as usize,
            app_script.clone(),
            true,
            deadline,
        )
    };
    let app_repl = {
        let cluster = LoopbackCluster::start_with(1, CLIENTS, |topo| {
            topo.service = ServiceKind::Bfs;
            topo.pipeline_depth = crate::cluster::PIPELINE_DEPTH;
            topo.checkpoint_interval = crate::cluster::CHECKPOINT_INTERVAL;
            topo.view_change_ms = crate::cluster::VIEW_CHANGE_MS;
        });
        let ids: Vec<ClientId> = (0..CLIENTS).map(ClientId).collect();
        let run = run_andrew_mux(&ids, cluster.topology(), app_script, true, true, deadline);
        cluster.shutdown();
        run
    };
    (
        unrepl.ops_per_sec(),
        unrepl.ops_per_sec() / replicated_ops_per_s,
        app_repl.total_wall.as_secs_f64() / app_unrepl.total_wall.as_secs_f64(),
    )
}

/// Runs the traced measurement of `workload`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    warmup_ops: u64,
) -> Result<TraceResult, String> {
    let slice = Duration::from_secs_f64(seconds / TRACE_SLICE_DIVISOR);
    // One recorder for the three stages, so span ids stay unique in
    // the trace file; each stage reads the spans recorded since the last.
    let rec = Recorder::new();
    // A short throw-away cycle first, so neither half pays for the cold
    // process; then untraced and traced clusters take turns, so drift
    // in the host's speed falls on both halves alike.
    Session::new(workload, seed, scratch).cycle(slice / 8, warmup_ops, None)?;
    let mut untraced = Session::new(workload, seed, scratch);
    let mut traced = Session::new(workload, seed, scratch);
    for _ in 0..TRACE_CYCLES {
        untraced.cycle(slice, warmup_ops, None)?;
        traced.cycle(slice, warmup_ops, Some(&rec))?;
    }
    let (untraced, traced) = (untraced.finish()?, traced.finish()?);
    let live_spans = rec.snapshot();
    let live_totals = totals_by_name(&live_spans);
    let total_ns = |name: &str| live_totals.get(name).map_or(0, |t| t.total_ns) as f64;

    // Service time on the live path, over the measured slices only: an
    // execute span counts when its parent is a recorded request span,
    // and request spans are recorded for measured ops alone.
    let measured: std::collections::HashSet<u64> = live_spans
        .iter()
        .filter(|s| s.name.starts_with("client.request"))
        .map(|s| s.id)
        .collect();
    let executes: Vec<&Span> = live_spans
        .iter()
        .filter(|s| s.name == "service.execute" && measured.contains(&s.parent))
        .collect();
    let exec_ns: f64 = executes.iter().map(|s| s.duration_ns() as f64).sum();
    let execute_us = exec_ns / executes.len().max(1) as f64 / 1e3;
    let execute_busy_share = exec_ns / (4.0 * traced.measured_s * 1e9);
    let page_us_per_ckpt =
        total_ns("service.page") / 1e3 / traced.counters.checkpoints_taken.max(1) as f64;

    let untraced_tput = median_ops_per_s(&untraced);
    let traced_tput = median_ops_per_s(&traced);
    let rw_p50_us = median_rw_p50_us(&untraced);

    // The in-process replay: spans per call, exact counts, real messages.
    let replayed = replay::replay(workload, seed, &rec, scratch);
    let replay_spans = rec.snapshot().split_off(live_spans.len());
    let replay_totals = totals_by_name(&replay_spans);
    let ops = replayed.ops.max(1) as f64;
    let self_us = |name: &str| replay_totals.get(name).map_or(0, |t| t.self_ns) as f64 / 1e3;
    let calls = |name: &str| replay_totals.get(name).map_or(0, |t| t.count) as f64;
    let step_us_per_op = self_us("core.step") / ops;
    let step_us_per_call = self_us("core.step") / calls("core.step").max(1.0);
    let client_us_per_op = self_us("core.client") / ops;
    let storage_us: f64 = ["storage.append", "storage.sync", "storage.snapshot"]
        .iter()
        .map(|n| self_us(n))
        .sum();
    let p50_us = |name: &str| percentile(&durations_of(&replay_spans, name), 0.5) / 1e3;

    // Single layers on the replay's messages.
    let types = layers::types_replay(&rec, &replayed.sends, replayed.ops);
    let crypto = layers::crypto_replay(&rec, seed);
    let transport = layers::transport_replay(&rec, types.request_bytes)?;
    let crypto_us_per_op = layers::crypto_us_per_op(&crypto, &replayed.sends, replayed.ops);

    // Hand-off, queueing and wake-up time no layer function accounts for.
    let explained_us =
        WRITE_PATH_HOPS * (transport.hop_us_p50 + step_us_per_call) + execute_us + client_us_per_op;
    let unexplained_us = rw_p50_us - explained_us;

    let model = layers::measured_model(&crypto, &transport, execute_us);
    let batch = (traced.counters.requests_executed as f64
        / traced.counters.batches_executed.max(1) as f64)
        .round()
        .max(1.0) as usize;
    let pred_lat_us = model.read_write_latency_us(types.arg_bytes, types.result_bytes);
    let pred_tput = model.read_write_throughput_ops(types.arg_bytes, types.result_bytes, batch);

    let (unrepl_ops_per_s, unrepl_ratio, app_overhead_ratio) = if workload == Workload::BfsAndrew {
        bfs_baselines(untraced_tput)
    } else {
        (0.0, 0.0, 0.0)
    };

    let mut layers = traced.counters.metrics(traced.sched_lag_us_p99());
    let mut add = |name, unit, value| layers.push(LayerMetric { name, unit, value });
    add("service.execute_us_per_op", "us", execute_us);
    add("service.execute_busy_share", "share", execute_busy_share);
    add("service.page_us_per_ckpt", "us", page_us_per_ckpt);
    add(
        "trace.overhead_share",
        "share",
        1.0 - traced_tput / untraced_tput,
    );
    add("types.encode_ns_per_op", "ns", types.encode_ns_per_op);
    add("types.decode_ns_per_op", "ns", types.decode_ns_per_op);
    add("types.frame_ns_per_kb", "ns", types.frame_ns_per_kb);
    add("crypto.digest_ns_per_kb", "ns", crypto.digest_ns_per_kb);
    add("crypto.mac_ns", "ns", crypto.mac_ns);
    add("crypto.auth_gen_ns", "ns", crypto.auth_gen_ns);
    add("crypto.auth_verify_ns", "ns", crypto.auth_verify_ns);
    add("crypto.us_per_op", "us", crypto_us_per_op);
    add("core.step_us_per_op", "us", step_us_per_op);
    add("core.client_us_per_op", "us", client_us_per_op);
    add("core.msgs_per_op", "count", replayed.msgs as f64 / ops);
    add("core.bytes_per_op", "B", replayed.bytes as f64 / ops);
    // Storage figures are per replica: all four log the same records.
    add(
        "storage.appends_per_op",
        "count",
        replayed.storage.appends as f64 / 4.0 / ops,
    );
    add(
        "storage.syncs_per_kop",
        "count",
        replayed.storage.syncs as f64 / 4.0 / (ops / 1e3),
    );
    add(
        "storage.bytes_per_op",
        "B",
        replayed.storage.append_bytes as f64 / 4.0 / ops,
    );
    add("storage.append_us_p50", "us", p50_us("storage.append"));
    add("storage.sync_us_p50", "us", p50_us("storage.sync"));
    add(
        "storage.snapshot_ms_p50",
        "ms",
        p50_us("storage.snapshot") / 1e3,
    );
    add("storage.us_per_op", "us", storage_us / 4.0 / ops);
    add("runtime.transport.hop_us_p50", "us", transport.hop_us_p50);
    add(
        "runtime.transport.stream_frames_per_s",
        "1/s",
        transport.stream_frames_per_s,
    );
    add("runtime.node.unexplained_us", "us", unexplained_us);
    add(
        "model.pred_over_measured_lat",
        "ratio",
        pred_lat_us / rw_p50_us,
    );
    add(
        "model.pred_over_measured_tput",
        "ratio",
        pred_tput / untraced_tput,
    );
    add("bfs.unrepl_ops_per_s", "1/s", unrepl_ops_per_s);
    add("bfs.unrepl_ratio", "ratio", unrepl_ratio);
    add("bfs.app_overhead_ratio", "ratio", app_overhead_ratio);

    let by_type: Vec<String> = replayed
        .by_type
        .iter()
        .map(|(t, (n, b))| format!("{t} {:.3} msgs {:.1} B", *n as f64 / ops, *b as f64 / ops))
        .collect();
    let notes = vec![
        CRYPTO_FORMULA.to_string(),
        format!(
            "crypto.us_per_op / core.step_us_per_op = {:.3} (the share of protocol-handler time that is MACs and digests)",
            crypto_us_per_op / step_us_per_op
        ),
        format!(
            "runtime.node.unexplained_us = rw_p50 {rw_p50_us:.1} us - [{WRITE_PATH_HOPS} hops x (hop {:.1} + step {step_us_per_call:.1}) + execute {execute_us:.2} + client {client_us_per_op:.1}] us",
            transport.hop_us_p50
        ),
        format!(
            "model: predicted rw latency {pred_lat_us:.1} us, predicted throughput {pred_tput:.0} ops/s at batch {batch}; arg {} B, result {} B",
            types.arg_bytes, types.result_bytes
        ),
        format!(
            "replay: {} ops, {} messages; per op by type: {}",
            replayed.ops,
            replayed.msgs,
            by_type.join(", ")
        ),
        "storage.* come from a WAL attached in the replay on every workload; only counter_wal_sat pays them on the live path".to_string(),
    ];

    Ok(TraceResult {
        untraced,
        traced,
        layers,
        spans: rec.snapshot(),
        notes,
        replay_wrong: replayed.wrong,
        replay_converged: replayed.converged,
    })
}
