//! Prebuilt simulator scenarios: the §8.3.1 micro-benchmark latency and
//! the §8.6 Andrew runs (replicated BFS against the unreplicated
//! baseline) that the integration tests check against the paper's shape.

use crate::harness::{mem_cluster, Cluster, ClusterConfig, Driver, OpGen};
use bfs::andrew::{generate_script, AndrewConfig, PathResolver, Phase, ScriptedOp};
use bfs::{BfsService, NfsReply};
use bft_core::config::{AuthMode, Optimizations};
use bft_core::ReplicaConfig;
use bft_net::ChannelConfig;
use bft_statemachine::MemService;
use bft_types::{ClientId, SimDuration, SimTime};
use bytes::Bytes;

/// Result of a latency experiment.
#[derive(Clone, Copy, Debug)]
pub struct LatencyResult {
    /// Mean operation latency in microseconds.
    pub mean_us: f64,
    /// Operations measured.
    pub ops: u64,
}

/// Protocol/size parameters for a micro-benchmark operation (§8.1: the
/// `a/b` benchmark takes an `a`-KB argument and returns a `b`-KB result).
#[derive(Clone, Copy, Debug)]
pub struct MicroOp {
    /// Argument size in bytes.
    pub arg: usize,
    /// Result size in bytes.
    pub result: usize,
    /// Whether to use the read-only optimization.
    pub read_only: bool,
}

impl MicroOp {
    /// The 0/0 benchmark.
    pub fn zero_zero() -> Self {
        MicroOp {
            arg: 0,
            result: 0,
            read_only: false,
        }
    }

    /// The encoded MemService operation.
    pub fn bytes(&self) -> Bytes {
        if self.read_only {
            MemService::op_ro(self.result)
        } else {
            MemService::op_rw(self.arg, self.result)
        }
    }
}

/// Shared base configuration for micro-benchmarks.
pub fn micro_config(f: usize, clients: u32) -> ClusterConfig {
    let mut replica = ReplicaConfig::small(f);
    replica.num_clients = clients.max(16);
    // Micro-benchmarks measure the normal case: generous view-change
    // timeout so queuing delays under load do not trigger view changes.
    replica.view_change_timeout = SimDuration::from_secs(5);
    replica.status_interval = SimDuration::from_millis(500);
    ClusterConfig {
        replica,
        channel: ChannelConfig::reliable(),
        seed: 1,
        clients,
    }
}

/// E-8.3.1: latency of one micro-benchmark operation variant.
pub fn latency(op: MicroOp, auth: AuthMode, opts: Optimizations, ops: u64) -> LatencyResult {
    let mut config = micro_config(1, 1);
    config.replica.auth = auth;
    config.replica.opts = opts;
    if auth == AuthMode::Signatures {
        config.replica.view_change_timeout = SimDuration::from_secs(60);
        config.replica.status_interval = SimDuration::from_secs(2);
    }
    let mut cluster = mem_cluster(config, 64);
    cluster.set_workload(OpGen::fixed(op.bytes(), op.read_only, ops));
    let done = cluster.run_to_completion(SimTime(SimDuration::from_secs(600).as_micros()));
    assert!(done, "latency workload must complete");
    LatencyResult {
        mean_us: cluster.metrics.latency.mean_us(),
        ops: cluster.metrics.ops_completed,
    }
}

// ---------------------------------------------------------------------------
// BFS / Andrew benchmark (E-8.6).
// ---------------------------------------------------------------------------

/// Per-phase virtual-time durations of an Andrew run.
pub type PhaseTimes = Vec<(&'static str, SimDuration)>;

/// Client CPU per phase-5 source read, charged identically to BFS and the
/// baseline: §8.6 observes that the compile phase is dominated by
/// computation at the client, which replication does not touch. We model
/// it as a fixed per-compilation cost.
pub const COMPILE_CPU_US: u64 = 5_000;

struct AndrewDriver {
    script: Vec<ScriptedOp>,
    resolver: PathResolver,
    next: usize,
}

impl Driver for AndrewDriver {
    fn next(&mut self, last: Option<&Bytes>) -> Option<(Bytes, bool)> {
        if let (Some(result), true) = (last, self.next > 0) {
            let prev = &self.script[self.next - 1];
            let reply = NfsReply::decode(result).expect("well-formed BFS reply");
            assert!(
                !matches!(reply, NfsReply::Err(_)),
                "Andrew op failed: {:?} -> {reply:?}",
                prev.kind
            );
            self.resolver.learn(&prev.kind, &reply);
        }
        let sop = self.script.get(self.next)?;
        self.next += 1;
        Some((self.resolver.concretize(&sop.kind).encode(), sop.read_only))
    }
}

/// Runs the Andrew benchmark against replicated BFS; returns per-phase
/// durations in virtual time.
pub fn andrew_replicated(cfg: &AndrewConfig, read_only_opt: bool, seed: u64) -> PhaseTimes {
    let mut config = micro_config(1, 1);
    config.seed = seed;
    config.replica.opts.read_only = read_only_opt;
    let services: Vec<BfsService> = (0..4).map(|_| BfsService::new(64)).collect();
    let mut cluster = Cluster::new(config, services);
    let script = generate_script(cfg);
    let driver = AndrewDriver {
        script: script.clone(),
        resolver: PathResolver::new(),
        next: 0,
    };
    cluster.set_driver(ClientId(0), Box::new(driver));
    let deadline = SimTime(SimDuration::from_secs(3600).as_micros());
    cluster.run_to_completion(deadline);
    assert_eq!(cluster.outstanding_ops(), 0, "Andrew run must complete");
    // Completion times arrive in script order (one client, closed loop).
    let times = cluster.completion_times();
    assert_eq!(times.len(), script.len());
    phase_times_from(&script, times)
}

/// Runs the Andrew benchmark unreplicated (the NFS-std baseline of §8.6):
/// local execution plus one simulated round trip per operation.
pub fn andrew_baseline(cfg: &AndrewConfig) -> PhaseTimes {
    use bft_statemachine::Service;
    let cost = bft_net::CostModel::thesis_testbed();
    let mut service = BfsService::new(64);
    let mut resolver = PathResolver::new();
    let mut now = SimTime::ZERO;
    let mut t = 1u64;
    let script = generate_script(cfg);
    let mut times = Vec::with_capacity(script.len());
    for sop in &script {
        let op = resolver.concretize(&sop.kind).encode();
        t += 1;
        let reply_bytes = service.execute(
            bft_types::Requester::Client(ClientId(0)),
            &op,
            &t.to_le_bytes(),
        );
        let reply = NfsReply::decode(&reply_bytes).expect("well-formed reply");
        resolver.learn(&sop.kind, &reply);
        // One UDP round trip plus server CPU (§8.6: NFS-std is the same
        // service without replication).
        let us = cost.one_way_us(op.len() + 64)
            + cost.recv.eval(op.len() + 64)
            + cost.execute_us
            + cost.one_way_us(reply_bytes.len() + 64)
            + cost.recv.eval(reply_bytes.len() + 64);
        now = now + SimDuration::from_micros(us as u64);
        times.push(now);
    }
    phase_times_from(&script, &times)
}

/// Splits per-op completion times into per-phase durations, adding the
/// modeled compile CPU to phase 5 (identically for both systems).
fn phase_times_from(script: &[ScriptedOp], times: &[SimTime]) -> PhaseTimes {
    use bfs::andrew::{OpKind, PHASES};
    let mut out = Vec::new();
    let mut phase_start = SimTime::ZERO;
    for phase in PHASES {
        let mut end = phase_start;
        let mut compile_cpu = 0u64;
        for (sop, &t) in script.iter().zip(times.iter()) {
            if sop.phase != phase {
                continue;
            }
            end = end.max(t);
            if phase == Phase::Compile && matches!(sop.kind, OpKind::Read(_, _, _)) {
                compile_cpu += COMPILE_CPU_US;
            }
        }
        out.push((
            phase.name(),
            SimDuration::from_micros(end.since(phase_start).as_micros() + compile_cpu),
        ));
        phase_start = end;
    }
    out
}

/// Total time across phases.
pub fn total(times: &PhaseTimes) -> SimDuration {
    SimDuration::from_micros(times.iter().map(|(_, d)| d.as_micros()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_latency_smoke() {
        let r = latency(
            MicroOp::zero_zero(),
            AuthMode::Macs,
            Optimizations::all(),
            10,
        );
        assert_eq!(r.ops, 10);
        assert!(r.mean_us > 100.0 && r.mean_us < 20_000.0, "{}", r.mean_us);
    }

    #[test]
    fn read_only_faster_than_read_write() {
        let rw = latency(
            MicroOp::zero_zero(),
            AuthMode::Macs,
            Optimizations::all(),
            10,
        );
        let ro = latency(
            MicroOp {
                read_only: true,
                ..MicroOp::zero_zero()
            },
            AuthMode::Macs,
            Optimizations::all(),
            10,
        );
        assert!(
            ro.mean_us < rw.mean_us,
            "read-only {} < read-write {}",
            ro.mean_us,
            rw.mean_us
        );
    }

    #[test]
    fn andrew_baseline_runs() {
        let times = andrew_baseline(&AndrewConfig::tiny());
        assert_eq!(times.len(), 5);
        assert!(total(&times).as_micros() > 0);
    }
}
