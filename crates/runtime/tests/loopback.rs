//! Loopback-cluster integration tests: the full PBFT stack over real
//! TCP sockets on 127.0.0.1, checked with the same oracle the
//! simulator's chaos campaigns use — identical journals across
//! replicas, exactly-once execution, and liveness through a primary
//! failure.
//!
//! The counter service makes exactly-once checkable end to end: client
//! `c`'s k-th increment returns exactly `k`, so a duplicated or lost
//! execution shows up in the client's own result stream, not just in
//! replica state.

use bft_runtime::client::{run_client, run_workers, ClientReport, LoadMode, Workload};
use bft_runtime::config::Topology;
use bft_runtime::loopback::LoopbackCluster;
use bft_runtime::node::spawn_counter_replica;
use bft_types::{ClientId, ReplicaId};
use std::time::Duration;

/// Overall per-test deadline: generous for slow CI machines; the tests
/// finish in a few seconds on a laptop.
const DEADLINE: Duration = Duration::from_secs(60);

/// Asserts one client's result stream is exactly the counter sequence:
/// the k-th write returns the number of writes so far, the k-th read
/// returns the count of writes before it (closed loop ⇒ read-your-writes).
fn assert_counter_sequence(workload: &Workload, results: &[(bft_types::Timestamp, Vec<u8>)]) {
    let mut writes = 0u64;
    for (k, (_, result)) in results.iter().enumerate() {
        let (_, read_only) = workload.op(k as u64);
        if !read_only {
            writes += 1;
        }
        let got = u64::from_le_bytes(result.as_slice().try_into().expect("8-byte counter"));
        assert_eq!(
            got, writes,
            "op {k} (read_only={read_only}) returned {got}, expected {writes}: \
             a duplicate or lost execution"
        );
    }
}

#[test]
fn normal_case_commits_mixed_workload_with_identical_journals() {
    let cluster = LoopbackCluster::start(1, 4);
    let workload = Workload::closed(60);
    let reports = cluster.run_clients(4, workload.clone(), DEADLINE);
    for r in &reports {
        assert_eq!(r.completed, 60, "client {} fell short", r.client.0);
        assert_counter_sequence(&workload, &r.results);
    }
    // Laggards catch up through status retransmission; then all four
    // journals and state digests must be bit-identical.
    let snaps = cluster
        .wait_converged(Duration::from_secs(60))
        .expect("replicas converge to identical journals");
    assert_eq!(snaps.len(), 4);
    assert!(
        !snaps[0].journal.is_empty(),
        "journals record the executed batches"
    );
    // 4 clients x 45 writes each executed exactly once. A replica that
    // caught up via state transfer executes fewer requests *locally*,
    // so the floor applies to the most-executed replica; convergence
    // above already proved the others hold the same state.
    let total_writes: u64 = 4 * workload.writes();
    let max_executed = snaps
        .iter()
        .map(|s| s.stats.requests_executed)
        .max()
        .unwrap();
    assert!(
        max_executed >= total_writes,
        "the full workload was executed ({max_executed} < {total_writes})"
    );
    cluster.shutdown();
}

/// Where a stalled view change stands: every surviving replica's view,
/// execution progress and view-change counters, and every client's
/// progress and retransmissions.
fn view_change_forensics(cluster: &LoopbackCluster, reports: &[ClientReport]) -> String {
    let replicas = cluster.snapshots().into_iter().map(|s| {
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
    });
    let clients = reports.iter().map(|r| {
        format!(
            "  c{}: completed={} retransmitted={}",
            r.client.0, r.completed, r.retransmitted
        )
    });
    replicas.chain(clients).collect::<Vec<_>>().join("\n")
}

#[test]
fn primary_kill_triggers_view_change_and_workload_completes() {
    let mut cluster = LoopbackCluster::start(1, 3);
    let topo = cluster.topo.clone();
    let workload = Workload {
        ops: 120,
        op_bytes: 128,
        read_every: 4,
        // A little think time so the workload spans the kill.
        mode: LoadMode::Closed {
            think: Duration::from_millis(5),
        },
        retransmit: None,
    };
    let reports = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|c| {
                let topo = &topo;
                let workload = workload.clone();
                scope.spawn(move || run_client(ClientId(c), topo, &workload, DEADLINE))
            })
            .collect();
        // Let the cluster commit some prefix in view 0, then fail-stop
        // the view-0 primary.
        std::thread::sleep(Duration::from_millis(300));
        cluster.kill(ReplicaId(0));
        workers
            .into_iter()
            .map(|w| w.join().expect("client worker"))
            .collect::<Vec<_>>()
    });
    for r in &reports {
        assert_eq!(
            r.completed,
            120,
            "client {} did not finish after the view change\n{}",
            r.client.0,
            view_change_forensics(&cluster, &reports)
        );
        assert_counter_sequence(&workload, &r.results);
    }
    let snaps = cluster
        .wait_converged(Duration::from_secs(60))
        .expect("surviving replicas converge");
    assert_eq!(snaps.len(), 3, "replica 0 stays dead");
    assert!(
        snaps.iter().all(|s| s.view >= 1 && s.view_active),
        "the cluster moved past the dead primary's view: views {:?}",
        snaps.iter().map(|s| s.view).collect::<Vec<_>>()
    );
    cluster.shutdown();
}

/// Equivalence of the threaded (MAC-pool) driver and the direct
/// single-threaded step loop, checked the strongest way available on a
/// real network: a *mixed* cluster where replicas 0 and 2 run the
/// worker pool (off-thread verification, deferred outbound
/// authenticators) while replicas 1 and 3 run the plain deterministic
/// path. All four see the same live traffic; if the pooled driver
/// reordered inputs, dropped a verification, or emitted a frame a
/// direct replica cannot verify, the committed journals or state
/// digests would diverge.
#[test]
fn pooled_and_direct_replicas_commit_identical_journals() {
    let listeners: Vec<std::net::TcpListener> = (0..4)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let mut topo = Topology::localhost(1, 3, 1);
    topo.set_replicas(
        listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect(),
    );
    topo.checkpoint_interval = 16;
    topo.pipeline_depth = 8;
    let nodes: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let mut t = topo.clone();
            t.workers = if i % 2 == 0 { 2 } else { 0 };
            spawn_counter_replica(ReplicaId(i as u32), t, listener)
        })
        .collect();

    let workload = Workload::closed(60);
    let ids: Vec<ClientId> = (0..3).map(ClientId).collect();
    let outcomes = run_workers(&ids, |c| run_client(c, &topo, &workload, DEADLINE));
    for (c, outcome) in outcomes {
        let report = outcome.unwrap_or_else(|why| panic!("client {} died: {why}", c.0));
        assert_eq!(report.completed, 60, "client {} fell short", c.0);
        assert_counter_sequence(&workload, &report.results);
    }

    // Laggards catch up through status retransmission; then pooled and
    // direct replicas must agree bit for bit.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let snaps: Vec<_> = nodes.iter().filter_map(|n| n.snapshot()).collect();
        assert_eq!(snaps.len(), 4, "all replicas stay alive");
        LoopbackCluster::check_journal_agreement(&snaps).expect("journals never diverge");
        let identical = snaps.windows(2).all(|w| {
            w[0].committed_journal() == w[1].committed_journal()
                && w[0].state_digest == w[1].state_digest
        });
        if identical {
            assert!(!snaps[0].committed_journal().is_empty());
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "mixed cluster failed to converge:\n{}",
            snaps
                .iter()
                .map(|s| format!(
                    "  r{}: view={} view_active={} committed_frontier={} exec_blocker={}",
                    s.id.0, s.view, s.view_active, s.committed_frontier.0, s.exec_blocker
                ))
                .collect::<Vec<_>>()
                .join("\n")
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    for mut node in nodes {
        node.kill();
    }
}

/// The §5.1.4 pipelining satellite: with `pipeline_depth > 1` and the
/// MAC pool on, a forced client-retransmission storm (timeout far below
/// the loaded round trip) must still execute every operation exactly
/// once — the counter sequence proves it client-side, the write count
/// replica-side.
#[test]
fn pipelined_pooled_cluster_is_exactly_once_under_retransmit_storm() {
    let cluster = LoopbackCluster::start_tuned(1, 4, 2, Some(8));
    assert_eq!(cluster.topo.workers, 2);
    assert_eq!(cluster.topo.pipeline_depth, 8);
    let workload = Workload {
        ops: 40,
        op_bytes: 128,
        read_every: 4,
        mode: LoadMode::Closed {
            think: Duration::ZERO,
        },
        retransmit: Some(Duration::from_millis(2)),
    };
    let reports = cluster.run_clients(4, workload.clone(), DEADLINE);
    let mut any_retransmitted = 0u64;
    for r in &reports {
        assert_eq!(r.completed, 40, "client {} fell short", r.client.0);
        any_retransmitted += r.retransmitted;
        assert_counter_sequence(&workload, &r.results);
    }
    assert!(
        any_retransmitted > 0,
        "the tiny timeout must actually force retransmissions"
    );
    let snaps = cluster
        .wait_converged(Duration::from_secs(60))
        .expect("pipelined cluster converges after the storm");
    // Replica-side exactly-once: the most-executed replica (one that
    // never state-transferred) saw every write exactly once; the rest
    // converged to the same state digest above.
    let expected_writes = 4 * workload.writes();
    let max_executed = snaps
        .iter()
        .map(|s| s.stats.requests_executed)
        .max()
        .unwrap();
    assert!(
        max_executed >= expected_writes,
        "executed {max_executed} < {expected_writes}"
    );
    cluster.shutdown();
}

/// Restart regression: a killed replica comes back on its original
/// address (the cluster retains the listen socket), rejoins via status
/// retransmission or state transfer, and the full cluster converges to
/// identical journals again — crash–restart against real threads and
/// sockets, not just the simulator.
#[test]
fn killed_then_restarted_replica_rejoins_and_converges() {
    let mut cluster = LoopbackCluster::start(1, 3);
    let topo = cluster.topo.clone();
    let workload = Workload {
        ops: 80,
        op_bytes: 128,
        read_every: 4,
        // Think time so the workload spans the kill + dead window.
        mode: LoadMode::Closed {
            think: Duration::from_millis(5),
        },
        retransmit: None,
    };
    let reports = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|c| {
                let topo = &topo;
                let workload = workload.clone();
                scope.spawn(move || run_client(ClientId(c), topo, &workload, DEADLINE))
            })
            .collect();
        // Commit a prefix, fail-stop a backup, let the cluster commit
        // (and checkpoint) past it, then bring it back.
        std::thread::sleep(Duration::from_millis(250));
        cluster.kill(ReplicaId(2));
        std::thread::sleep(Duration::from_millis(400));
        cluster.restart(ReplicaId(2));
        workers
            .into_iter()
            .map(|w| w.join().expect("client worker"))
            .collect::<Vec<_>>()
    });
    for r in &reports {
        assert_eq!(
            r.completed, 80,
            "client {} did not finish across the crash–restart",
            r.client.0
        );
        assert_counter_sequence(&workload, &r.results);
    }
    let snaps = cluster
        .wait_converged(Duration::from_secs(60))
        .expect("restarted replica catches up and the cluster converges");
    assert_eq!(snaps.len(), 4, "all four replicas alive after restart");
    let r2 = snaps.iter().find(|s| s.id.0 == 2).expect("r2 snapshot");
    assert!(
        !r2.committed_journal().is_empty(),
        "the restarted replica committed state after rejoining"
    );
    cluster.shutdown();
}

/// Satellite regression: `wait_converged` used to return a bare `None`
/// on timeout. An isolated replica (fault plane blocks its links) lags
/// behind; the timeout must now carry every replica's frontier, digest,
/// and view so the failure is debuggable without a rerun.
#[test]
fn wait_converged_timeout_reports_per_replica_diagnostics() {
    let plane = bft_runtime::FaultPlane::new(77);
    let cluster = LoopbackCluster::start_chaos(1, 2, Some(plane.clone()), |_| {});
    plane.isolate(bft_types::NodeId::Replica(ReplicaId(3)));
    let workload = Workload::closed(20);
    let reports = cluster.run_clients(2, workload.clone(), DEADLINE);
    for r in &reports {
        assert_eq!(r.completed, 20, "f=1 tolerates one isolated replica");
        assert_counter_sequence(&workload, &r.results);
    }
    let timeout = cluster
        .wait_converged(Duration::from_secs(2))
        .expect_err("the isolated replica cannot have caught up");
    assert_eq!(timeout.snaps.len(), 4, "all replicas are alive, one lags");
    let diag = timeout.to_string();
    assert!(diag.contains("failed to converge"), "got: {diag}");
    for r in 0..4 {
        assert!(
            diag.contains(&format!("r{r}:")),
            "replica {r} missing: {diag}"
        );
    }
    assert!(diag.contains("frontier="), "frontier missing: {diag}");
    assert!(diag.contains("digest="), "digest missing: {diag}");
    // Heal and the same cluster converges — the timeout was the
    // isolation, not a wedge.
    plane.reconnect(bft_types::NodeId::Replica(ReplicaId(3)));
    cluster
        .wait_converged(Duration::from_secs(60))
        .expect("after reconnection the laggard catches up");
    cluster.shutdown();
}

#[test]
fn forced_client_retransmission_preserves_exactly_once() {
    let cluster = LoopbackCluster::start(1, 2);
    let workload = Workload {
        ops: 40,
        op_bytes: 128,
        read_every: 4,
        mode: LoadMode::Closed {
            think: Duration::ZERO,
        },
        // Far below the round-trip under contention: most operations
        // retransmit at least once, many several times.
        retransmit: Some(Duration::from_millis(2)),
    };
    let reports = cluster.run_clients(2, workload.clone(), DEADLINE);
    let mut any_retransmitted = 0u64;
    for r in &reports {
        assert_eq!(r.completed, 40);
        any_retransmitted += r.retransmitted;
        // The counter sequence is the exactly-once proof: a re-executed
        // INC would skip a value, a dropped one would repeat.
        assert_counter_sequence(&workload, &r.results);
    }
    assert!(
        any_retransmitted > 0,
        "the tiny timeout must actually force retransmissions"
    );
    let snaps = cluster
        .wait_converged(Duration::from_secs(60))
        .expect("replicas converge after the retransmission storm");
    // Exactly-once on the replica side too: write count matches the
    // workload despite duplicate deliveries (max over replicas — one
    // that state-transferred executes fewer locally but converged to
    // the same state above).
    let expected_writes = 2 * workload.writes();
    let max_executed = snaps
        .iter()
        .map(|s| s.stats.requests_executed)
        .max()
        .unwrap();
    assert!(
        max_executed >= expected_writes,
        "executed {max_executed} < {expected_writes}"
    );
    cluster.shutdown();
}

/// `pbft-*` threads serving the node that listens on `port` (its
/// threads are named `pbft-<port>-<role>`), or `None` off Linux.
fn node_threads(port: u16) -> Option<usize> {
    let prefix = format!("pbft-{port}-");
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with(&prefix))
            .count(),
    )
}

/// The transport's footprint on a live 4-replica cluster with the direct
/// data plane: at most two threads per replica (the event loop and its
/// dialer), frame counters that count frames rather than socket writes,
/// exactly one connect per topology peer in a clean run, and nothing
/// left behind once the nodes are killed.
#[test]
fn replicas_use_two_threads_and_count_frames_not_writes() {
    let listeners: Vec<std::net::TcpListener> = (0..4)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let mut topo = Topology::localhost(1, 3, 1);
    topo.set_replicas(
        listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect(),
    );
    topo.workers = 0;
    let mut nodes: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| spawn_counter_replica(ReplicaId(i as u32), topo.clone(), listener))
        .collect();

    let workload = Workload::closed(60);
    let ids: Vec<ClientId> = (0..3).map(ClientId).collect();
    let outcomes = run_workers(&ids, |c| run_client(c, &topo, &workload, DEADLINE));
    for (c, outcome) in outcomes {
        let report = outcome.unwrap_or_else(|why| panic!("client {} died: {why}", c.0));
        assert_eq!(report.completed, 60, "client {} fell short", c.0);
        assert_counter_sequence(&workload, &report.results);
    }

    for addr in &topo.replicas {
        if let Some(threads) = node_threads(addr.port()) {
            assert!(
                (1..=2).contains(&threads),
                "replica on port {} runs {threads} threads",
                addr.port()
            );
        }
    }
    for node in &nodes {
        let snap = node.snapshot().expect("replica alive");
        let t = snap.transport;
        assert_eq!(t.connects, 3, "r{}: one connect per peer: {t:?}", snap.id.0);
        assert_eq!(t.framing_errors, 0, "r{}: {t:?}", snap.id.0);
        // Every executed request sent one reply, and every executed batch
        // was prepared here, which multicasts a commit to three peers.
        // (A reply whose client already left counts as dropped.)
        let floor = snap.stats.requests_executed + 3 * snap.stats.batches_executed;
        assert!(
            t.frames_sent + t.frames_dropped >= floor,
            "r{}: {} frames < {floor}: {t:?}",
            snap.id.0,
            t.frames_sent + t.frames_dropped
        );
        assert!(t.writes <= t.frames_sent, "r{}: {t:?}", snap.id.0);
    }
    for node in &mut nodes {
        node.kill();
        assert_eq!(node.residual_state(), (0, 0, 0), "r{} leaked", node.id.0);
    }
}
