//! `pbft-client`: open/closed-loop load generator against a real
//! cluster.
//!
//! Usage:
//!   pbft-client --config cluster.conf [--clients N] [--first-id C]
//!               [--ops K] [--op-bytes B] [--read-every M]
//!               [--think-ms T | --rate OPS_PER_SEC]
//!               [--retransmit-ms MS] [--deadline-secs S]
//!
//! Each client worker runs one `ClientProxy` in a closed loop (default)
//! or paced open loop (`--rate`, per client), issuing the benchmark mix:
//! padded counter increments with every `--read-every`-th operation a
//! read-only `GET`. Prints per-client lines and an aggregate summary.
//!
//! With `service = bfs` in the topology, the counter mix is replaced by
//! the Andrew benchmark script (§8.6): `--clients N` logical clients on
//! one multiplexed transport pull NFS ops from a shared dependency-aware
//! scheduler, read-only ops ride the §5.1.3 fast path
//! (`--no-fast-path` disables the marking), and `--andrew-scale K`
//! multiplies the script. Prints per-phase wall clock and latency.

use bfs::{generate_script, AndrewConfig};
use bft_runtime::bfs_driver::run_andrew_mux;
use bft_runtime::client::{run_client, run_workers, ClientReport, LoadMode, Workload};
use bft_runtime::config::{ServiceKind, Topology};
use bft_types::ClientId;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: pbft-client --config FILE [--clients N] [--first-id C] [--ops K] \
         [--op-bytes B] [--read-every M] [--think-ms T | --rate R] \
         [--retransmit-ms MS] [--deadline-secs S] [--andrew-scale K] [--no-fast-path]"
    );
    std::process::exit(2);
}

/// BFS mode: run the Andrew script against the cluster and print the
/// per-phase table. Exits the process.
fn run_andrew(
    topo: &Topology,
    ids: &[ClientId],
    scale: u32,
    fast_path: bool,
    deadline: Duration,
) -> ! {
    let cfg = AndrewConfig {
        scale,
        ..AndrewConfig::default()
    };
    let script = generate_script(&cfg);
    println!(
        "pbft-client: Andrew (scale {scale}): {} ops, {} logical clients, fast paths {}",
        script.len(),
        ids.len(),
        if fast_path { "on" } else { "off" },
    );
    let run = run_andrew_mux(ids, topo, script, fast_path, false, deadline);
    for p in &run.phases {
        let mut lat = p.latencies_us.clone();
        lat.sort_unstable();
        let pct = |q: f64| {
            if lat.is_empty() {
                0.0
            } else {
                lat[((lat.len() - 1) as f64 * q).round() as usize] as f64 / 1e3
            }
        };
        println!(
            "  {:<9} {:>5} ops in {:>8.2}ms  p50 {:.2}ms p99 {:.2}ms",
            p.phase,
            p.ops,
            p.wall.as_secs_f64() * 1e3,
            pct(0.5),
            pct(0.99),
        );
    }
    println!(
        "aggregate: {} ops in {:.2}s = {:.1} ops/s, {} retransmitted",
        run.completed,
        run.total_wall.as_secs_f64(),
        run.ops_per_sec(),
        run.retransmitted,
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config_path: Option<String> = None;
    let mut clients: u32 = 1;
    let mut first_id: u32 = 0;
    let mut ops: u64 = 100;
    let mut op_bytes: usize = 128;
    let mut read_every: u64 = 4;
    let mut think_ms: u64 = 0;
    let mut rate: Option<f64> = None;
    let mut retransmit_ms: Option<u64> = None;
    let mut deadline_secs: u64 = 60;
    let mut andrew_scale: u32 = 1;
    let mut fast_path = true;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |dst: &mut u64| match it.next().and_then(|v| v.parse().ok()) {
            Some(v) => *dst = v,
            None => usage(),
        };
        match a.as_str() {
            "--config" => config_path = it.next().cloned(),
            "--clients" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => clients = v,
                None => usage(),
            },
            "--first-id" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => first_id = v,
                None => usage(),
            },
            "--ops" => num(&mut ops),
            "--op-bytes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => op_bytes = v,
                None => usage(),
            },
            "--read-every" => num(&mut read_every),
            "--think-ms" => num(&mut think_ms),
            "--rate" => rate = it.next().and_then(|v| v.parse().ok()),
            "--retransmit-ms" => retransmit_ms = it.next().and_then(|v| v.parse().ok()),
            "--deadline-secs" => num(&mut deadline_secs),
            "--andrew-scale" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => andrew_scale = v,
                None => usage(),
            },
            "--no-fast-path" => fast_path = false,
            _ => usage(),
        }
    }
    let Some(config_path) = config_path else {
        usage()
    };
    let text = std::fs::read_to_string(&config_path).unwrap_or_else(|e| {
        eprintln!("pbft-client: cannot read {config_path}: {e}");
        std::process::exit(1);
    });
    let topo = Topology::parse(&text).unwrap_or_else(|e| {
        eprintln!("pbft-client: bad config {config_path}: {e}");
        std::process::exit(1);
    });
    let deadline = Duration::from_secs(deadline_secs);
    let ids: Vec<ClientId> = (first_id..first_id + clients).map(ClientId).collect();

    if topo.service == ServiceKind::Bfs {
        run_andrew(&topo, &ids, andrew_scale, fast_path, deadline);
    }

    let mode = match rate {
        Some(r) if r > 0.0 => LoadMode::Open {
            interval: Duration::from_secs_f64(1.0 / r),
        },
        _ => LoadMode::Closed {
            think: Duration::from_millis(think_ms),
        },
    };
    let workload = Workload {
        ops,
        op_bytes,
        read_every,
        mode,
        retransmit: retransmit_ms.map(Duration::from_millis),
    };

    println!(
        "pbft-client: {clients} client(s) x {ops} ops ({:?}), {} replicas",
        workload.mode,
        topo.replicas.len()
    );
    // Collect per-worker outcomes rather than `.join().expect(..)`: one
    // panicking worker must not discard every other worker's stats.
    let outcomes = run_workers(&ids, |c| run_client(c, &topo, &workload, deadline));
    let mut reports: Vec<ClientReport> = Vec::with_capacity(outcomes.len());
    let mut dead: Vec<String> = Vec::new();
    for (c, outcome) in outcomes {
        match outcome {
            Ok(report) => reports.push(report),
            Err(why) => dead.push(format!("c{}: {why}", c.0)),
        }
    }

    let mut total_ops = 0u64;
    let mut total_retrans = 0u64;
    let mut all_lat: Vec<u64> = Vec::new();
    let mut max_wall = Duration::ZERO;
    for r in &reports {
        println!(
            "  c{}: {}/{} ops, {:.1} ops/s, mean {:.2}ms p99 {:.2}ms, {} retransmitted",
            r.client.0,
            r.completed,
            ops,
            r.ops_per_sec(),
            r.latency_mean_us() / 1e3,
            r.latency_percentile_us(0.99) as f64 / 1e3,
            r.retransmitted
        );
        total_ops += r.completed;
        total_retrans += r.retransmitted;
        all_lat.extend(&r.latencies_us);
        max_wall = max_wall.max(r.wall);
    }
    all_lat.sort_unstable();
    let pct = |p: f64| -> f64 {
        if all_lat.is_empty() {
            return 0.0;
        }
        all_lat[((all_lat.len() - 1) as f64 * p).round() as usize] as f64 / 1e3
    };
    let agg_tput = if max_wall.is_zero() {
        0.0
    } else {
        total_ops as f64 / max_wall.as_secs_f64()
    };
    println!(
        "aggregate: {total_ops} ops in {:.2}s = {agg_tput:.1} ops/s, p50 {:.2}ms p99 {:.2}ms, {total_retrans} retransmitted",
        max_wall.as_secs_f64(),
        pct(0.5),
        pct(0.99)
    );
    if !dead.is_empty() {
        // Partial stats above are still valid; the run as a whole is not.
        for d in &dead {
            eprintln!("pbft-client: ERROR: client worker died: {d}");
        }
        std::process::exit(1);
    }
    if total_ops < clients as u64 * ops {
        eprintln!("pbft-client: WARNING: workload incomplete before the deadline");
        std::process::exit(1);
    }
}
