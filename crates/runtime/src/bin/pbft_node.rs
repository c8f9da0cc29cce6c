//! `pbft-node`: one PBFT replica over real TCP.
//!
//! Usage:
//!   pbft-node --config cluster.conf --id 0 [--status-every SECS]
//!             [--journal-file PATH]
//!   pbft-node --example-config \[F\]      # print a starter config
//!
//! The replica listens on its topology address, dials its peers (with
//! reconnect backoff), and serves the topology's `service` (the counter
//! benchmark service by default, BFS with `service = bfs`).
//! `--status-every` prints a one-line state summary
//! periodically; `--journal-file` additionally dumps the committed
//! journal to PATH (atomic rename) on each status tick, so an external
//! harness can compare journals across replicas it can't poke in
//! process (the kill9 recovery test).

use bft_runtime::config::Topology;
use bft_runtime::node::spawn_service_replica;
use bft_types::ReplicaId;
use std::net::TcpListener;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: pbft-node --config FILE --id N [--status-every SECS] [--journal-file PATH]\n       pbft-node --example-config [F]"
    );
    std::process::exit(2);
}

/// Dumps the snapshot's committed journal to `path` atomically
/// (tmp + rename), one header line then one `seq digest-hex` line per
/// committed entry. External oracles read these files while the node
/// runs, so a partially written file must never be visible.
fn dump_journal(path: &str, s: &bft_runtime::node::Snapshot) {
    let mut out = String::new();
    out.push_str(&format!(
        "view={} active={} frontier={} last_exec={} digest={}\n",
        s.view,
        s.view_active,
        s.committed_frontier.0,
        s.last_exec.0,
        hex(&s.state_digest)
    ));
    for (seq, digest) in s.committed_journal() {
        out.push_str(&format!("{seq} {}\n", hex(&digest)));
    }
    let tmp = format!("{path}.tmp");
    if std::fs::write(&tmp, out).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

fn hex(d: &bft_crypto::Digest) -> String {
    d.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config_path: Option<String> = None;
    let mut id: Option<u32> = None;
    let mut status_every: Option<u64> = None;
    let mut journal_file: Option<String> = None;
    let mut example: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => config_path = it.next().cloned(),
            "--id" => id = it.next().and_then(|v| v.parse().ok()),
            "--status-every" => status_every = it.next().and_then(|v| v.parse().ok()),
            "--journal-file" => journal_file = it.next().cloned(),
            "--example-config" => {
                example = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or(1))
            }
            _ => usage(),
        }
    }
    if let Some(f) = example {
        print!("{}", Topology::localhost(f, 8, 5100).to_config_string());
        return;
    }
    let (Some(config_path), Some(id)) = (config_path, id) else {
        usage()
    };
    let text = std::fs::read_to_string(&config_path).unwrap_or_else(|e| {
        eprintln!("pbft-node: cannot read {config_path}: {e}");
        std::process::exit(1);
    });
    let topo = Topology::parse(&text).unwrap_or_else(|e| {
        eprintln!("pbft-node: bad config {config_path}: {e}");
        std::process::exit(1);
    });
    let Some(addr) = topo.replicas.get(id as usize).copied() else {
        eprintln!(
            "pbft-node: id {id} out of range (topology has {} replicas)",
            topo.replicas.len()
        );
        std::process::exit(1);
    };
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("pbft-node: cannot listen on {addr}: {e}");
        std::process::exit(1);
    });
    println!(
        "pbft-node: replica {id} of n={} (f={}) serving `{}` listening on {addr}",
        topo.replicas.len(),
        topo.f,
        topo.service
    );
    let node = spawn_service_replica(ReplicaId(id), topo, listener);
    // A journal file implies polling even without --status-every.
    let tick_secs = match (status_every, &journal_file) {
        (Some(secs), _) if secs > 0 => Some(secs),
        (None, Some(_)) => Some(1),
        _ => None,
    };
    match tick_secs {
        Some(secs) => loop {
            std::thread::sleep(Duration::from_secs(secs));
            match node.snapshot() {
                Some(s) => {
                    if status_every.is_some() {
                        println!(
                            "view={} active={} last_exec={} executed={} ckpts={} vc={} sent={} recv={} dropped={}",
                            s.view,
                            s.view_active,
                            s.last_exec.0,
                            s.stats.requests_executed,
                            s.stats.checkpoints_taken,
                            s.stats.view_changes_started,
                            s.transport.frames_sent,
                            s.transport.frames_received,
                            s.transport.frames_dropped,
                        );
                    }
                    if let Some(path) = &journal_file {
                        dump_journal(path, &s);
                    }
                }
                None => break,
            }
        },
        None => node.join(),
    }
}
