//! BFS over the live loopback cluster: the Andrew script end to end on
//! real TCP sockets, and the §5.1.3 read-only demotion path under real
//! packet loss.
//!
//! The counter suite (`tests/loopback.rs`) checks exactly-once with
//! result arithmetic; here the file system itself is the witness — the
//! script's op-order constraints (create before write before read) only
//! hold if every op executed exactly once in dependency order, and the
//! convergence oracle then requires all four replicas to agree on the
//! journals and the state digest.

use bfs::{generate_script, AndrewConfig, NfsOp, NfsReply, ScriptedOp};
use bft_net::LinkProfile;
use bft_runtime::bfs_driver::{run_andrew_mux, AndrewRun};
use bft_runtime::client::{run_mux_sources, NextOp, OpSource};
use bft_runtime::config::ServiceKind;
use bft_runtime::inject::FaultPlane;
use bft_runtime::loopback::LoopbackCluster;
use bft_types::{ClientId, NodeId, ReplicaId};
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Overall per-test deadline: generous for slow CI machines.
const DEADLINE: Duration = Duration::from_secs(60);

/// Every replica's view, progress and view-change counters: each
/// client-side assertion prints it, so a stalled run explains itself.
fn replica_dump(cluster: &LoopbackCluster) -> String {
    cluster
        .snapshots()
        .iter()
        .map(|s| {
            format!(
                "  r{}: view={} view_active={} last_exec={} committed_frontier={} \
                 view_changes_started={} views_entered={} exec_blocker={}",
                s.id.0,
                s.view,
                s.view_active,
                s.last_exec.0,
                s.committed_frontier.0,
                s.stats.view_changes_started,
                s.stats.views_entered,
                s.exec_blocker
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// [`run_andrew_mux`] with four clients; an incomplete run's panic is
/// re-raised with the replica dump appended.
fn run_andrew(cluster: &LoopbackCluster, script: Vec<ScriptedOp>, read_only: bool) -> AndrewRun {
    let ids: Vec<ClientId> = (0..4).map(ClientId).collect();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_andrew_mux(&ids, cluster.topology(), script, read_only, false, DEADLINE)
    }));
    run.unwrap_or_else(|why| {
        let why = why
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| why.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        panic!("{why}\n{}", replica_dump(cluster))
    })
}

fn bfs_cluster(clients: u32, tentative: bool) -> LoopbackCluster {
    LoopbackCluster::start_with(1, clients, |topo| {
        topo.service = ServiceKind::Bfs;
        topo.tentative_execution = tentative;
    })
}

#[test]
fn andrew_script_completes_over_tcp_and_replicas_converge() {
    let cluster = bfs_cluster(4, true);
    let script = generate_script(&AndrewConfig::tiny());
    let total = script.len() as u64;
    let run = run_andrew(&cluster, script, true);
    assert_eq!(
        run.completed,
        total,
        "every scripted op completes\n{}",
        replica_dump(&cluster)
    );
    let per_phase: u64 = run.phases.iter().map(|p| p.ops).sum();
    assert_eq!(per_phase, total, "phase accounting covers every op");
    let snaps = cluster
        .wait_converged(Duration::from_secs(60))
        .expect("replicas converge to identical BFS state");
    assert_eq!(snaps.len(), 4);
    cluster.shutdown();
}

/// Same script with both §5.1 fast paths off: read-only marking
/// disabled at the client and tentative execution disabled at the
/// replicas. Every op takes the full committed three-phase path and the
/// outcome must be identical.
#[test]
fn andrew_script_without_fast_paths_completes_and_converges() {
    let cluster = bfs_cluster(4, false);
    let script = generate_script(&AndrewConfig::tiny());
    let total = script.len() as u64;
    let run = run_andrew(&cluster, script, false);
    assert_eq!(run.completed, total, "{}", replica_dump(&cluster));
    let snaps = cluster
        .wait_converged(Duration::from_secs(60))
        .expect("replicas converge with fast paths disabled");
    assert_eq!(snaps.len(), 4);
    cluster.shutdown();
}

/// A fixed op list for one logical client: issue in order, one in
/// flight, record `(result, retransmissions)` per completion. After the
/// first op completes the fault plane is healed, so a demotion scenario
/// can verify the client keeps working on clean links afterwards.
struct ScriptedClient {
    ops: Vec<(Bytes, bool)>,
    next: usize,
    inflight: bool,
    completions: Vec<(Vec<u8>, u32)>,
    heal_after_first: Option<Arc<FaultPlane>>,
}

impl OpSource for ScriptedClient {
    fn next(&mut self, _slot: usize, _now: Instant) -> NextOp {
        if self.inflight {
            return NextOp::Wait;
        }
        let Some((op, read_only)) = self.ops.get(self.next) else {
            return NextOp::Finished;
        };
        self.inflight = true;
        NextOp::Invoke {
            op: op.clone(),
            read_only: *read_only,
            tag: self.next as u64,
        }
    }

    fn done(
        &mut self,
        _slot: usize,
        tag: u64,
        op: &bft_core::CompletedOp,
        _latency: Duration,
    ) -> Instant {
        assert_eq!(tag as usize, self.next, "ops complete in issue order");
        self.completions
            .push((op.result.to_vec(), op.retransmissions));
        if tag == 0 {
            if let Some(plane) = self.heal_after_first.take() {
                plane.clear_all();
            }
        }
        self.next += 1;
        self.inflight = false;
        Instant::now()
    }

    fn finished(&self) -> bool {
        self.completions.len() == self.ops.len()
    }
}

/// §5.1.3 regression: a read-only request that can never assemble its
/// 2f+1 quorum certificate (two replica→client reply links drop every
/// frame, so at most 2 of 4 replies arrive) must be demoted to the full
/// consensus path by the client's second retransmission — where f+1
/// non-tentative replies suffice — and complete exactly once. The links
/// then heal and the same client's follow-up write + read-only lookup
/// must behave normally, proving demotion left no wedged state behind.
#[test]
fn read_only_starved_of_quorum_is_demoted_and_completes_exactly_once() {
    let plane = FaultPlane::new(9);
    let cluster = LoopbackCluster::start_chaos(1, 1, Some(plane.clone()), |topo| {
        topo.service = ServiceKind::Bfs;
        topo.tentative_execution = false;
    });
    for r in [2u32, 3u32] {
        plane.set_link(
            NodeId::Replica(ReplicaId(r)),
            NodeId::Client(ClientId(0)),
            LinkProfile {
                drop_prob: 1.0,
                ..LinkProfile::clean()
            },
        );
    }

    let root = bfs::ROOT_INO.0;
    let mut source = ScriptedClient {
        ops: vec![
            (NfsOp::GetAttr(root).encode(), true),
            (
                NfsOp::Create(root, "after-demotion".into(), 0o644).encode(),
                false,
            ),
            (NfsOp::Lookup(root, "after-demotion".into()).encode(), true),
        ],
        next: 0,
        inflight: false,
        completions: Vec::new(),
        heal_after_first: Some(plane.clone()),
    };
    let reports = run_mux_sources(
        &[ClientId(0)],
        cluster.topology(),
        &mut source,
        Some(Duration::from_millis(150)),
        DEADLINE,
    );
    assert_eq!(reports.len(), 1);
    assert_eq!(
        reports[0].completed,
        3,
        "all three ops complete (pending_retransmissions={})\n{}",
        reports[0].pending_retransmissions,
        replica_dump(&cluster)
    );
    assert_eq!(source.completions.len(), 3);

    let (getattr, retrans) = &source.completions[0];
    assert!(
        *retrans >= 2,
        "the read-only op needs at least two retransmissions to demote, saw {retrans}"
    );
    assert!(
        matches!(NfsReply::decode(getattr), Some(NfsReply::Attrs(_))),
        "demoted GETATTR still returns the root's attributes"
    );
    let created = match NfsReply::decode(&source.completions[1].0) {
        Some(NfsReply::Handle(ino)) => ino,
        other => panic!("CREATE after healing failed: {other:?}"),
    };
    match NfsReply::decode(&source.completions[2].0) {
        Some(NfsReply::Handle(ino)) => assert_eq!(
            ino, created,
            "read-only LOOKUP sees the client's own preceding write"
        ),
        other => panic!("LOOKUP after healing failed: {other:?}"),
    }
    assert!(
        plane.total_tally().dropped > 0,
        "the fault plane actually dropped reply frames"
    );

    // Exactly-once at the replicas: all four journals must agree and the
    // state digests match — a doubly-executed demoted request would fork
    // the file system's meta state.
    let snaps = cluster
        .wait_converged(Duration::from_secs(60))
        .expect("replicas converge after demotion");
    assert_eq!(snaps.len(), 4);
    cluster.shutdown();
}
