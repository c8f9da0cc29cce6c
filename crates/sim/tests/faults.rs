//! Targeted fault regressions for the bugs the chaos campaign is built to
//! flush out: duplicate delivery must not break exactly-once or double
//! count certificates; a replica reconnecting after a long isolation must
//! catch up by state transfer without dragging the group through spurious
//! view changes; a crash–restart must rejoin from durable state; a
//! read-only reply certificate must not form from lagging replicas.

use bft_net::{ChannelConfig, LinkProfile};
use bft_sim::{counter_cluster, Behavior, ClusterConfig, Driver, Fault, OpGen};
use bft_statemachine::CounterService;
use bft_types::{ClientId, NodeId, ReplicaId, SimTime};
use bytes::Bytes;

const CLIENTS: u32 = 8;
const OPS: u64 = 20;

fn inc_op() -> Bytes {
    Bytes::from_static(&[CounterService::OP_INC])
}

fn assert_exactly_once(cluster: &bft_sim::Cluster<CounterService>) {
    for c in 0..CLIENTS as usize {
        let results = cluster.client_results(c);
        assert_eq!(results.len(), OPS as usize, "client {c} completed all ops");
        for (k, (_, result)) in results.iter().enumerate() {
            let mut val = [0u8; 8];
            val.copy_from_slice(&result[..8]);
            assert_eq!(
                u64::from_le_bytes(val),
                k as u64 + 1,
                "client {c} op {k} must execute exactly once"
            );
        }
    }
}

fn assert_committed_journals_agree(cluster: &bft_sim::Cluster<CounterService>) {
    let journals: Vec<_> = (0..4)
        .map(|i| (i, bft_sim::chaos::committed_journal(cluster.replica(i))))
        .collect();
    let divergences = bft_sim::chaos::journal_divergences(&journals);
    assert!(
        divergences.is_empty(),
        "committed journals diverge: {divergences:?}"
    );
}

/// Regression (duplicate-delivery dedup): a channel that duplicates a
/// third of all frames and drops some must not double-execute requests or
/// assemble certificates from double-counted votes.
#[test]
fn duplicating_lossy_channel_preserves_exactly_once() {
    let mut config = ClusterConfig::test(1, CLIENTS);
    config.channel = ChannelConfig {
        drop_prob: 0.05,
        duplicate_prob: 0.35,
        jitter_us: 3_000,
        ..ChannelConfig::reliable()
    };
    config.seed = 11;
    let mut cluster = counter_cluster(config);
    cluster.set_workload(OpGen::fixed(inc_op(), false, OPS));
    assert!(
        cluster.run_to_completion(SimTime(600_000_000)),
        "lossy+duplicating run must complete"
    );
    assert!(
        cluster.channel().stats().duplicated > 100,
        "the channel actually duplicated traffic"
    );
    assert_exactly_once(&cluster);
    assert_committed_journals_agree(&cluster);
}

/// Regression (Isolate/Reconnect timer hygiene): a replica isolated for
/// many view-change-timeout periods while holding queued work must, after
/// reconnecting, catch up via state transfer and stop its view-change
/// timer — not churn through view changes — and the healthy majority must
/// never leave view 0.
#[test]
fn reconnect_after_long_isolation_catches_up_without_view_churn() {
    let mut config = ClusterConfig::test(1, CLIENTS);
    config.seed = 5;
    let mut cluster = counter_cluster(config);
    let victim = NodeId::Replica(ReplicaId(2));
    // Isolated from early on, through ~6 view-change timeouts of load.
    cluster.schedule_fault(SimTime(30_000), Fault::Isolate(victim));
    cluster.schedule_fault(SimTime(1_600_000), Fault::Reconnect(victim));
    cluster.set_workload(OpGen {
        gen: std::rc::Rc::new(|_| (inc_op(), false)),
        ops_per_client: OPS,
        think_us: 12_000,
    });
    assert!(
        cluster.run_to_completion(SimTime(600_000_000)),
        "workload must complete despite the isolation"
    );
    // Drain the catch-up tail so the rejoiner finishes its transfer.
    let tail = SimTime(cluster.now().0 + 2_000_000);
    cluster.run_until(tail);
    assert_exactly_once(&cluster);
    assert_committed_journals_agree(&cluster);
    // The healthy majority never saw a reason to change views.
    for i in [0usize, 1, 3] {
        assert_eq!(
            cluster.replica(i).stats.view_changes_started,
            0,
            "replica {i} started a spurious view change"
        );
        assert_eq!(cluster.replica(i).view().0, 0);
    }
    // The rejoiner may have timed out once while cut off, but must not
    // churn: one view-change at most, and its timer must be quiet now.
    let rejoiner = cluster.replica(2);
    assert!(
        rejoiner.stats.view_changes_started <= 1,
        "rejoining replica churned through {} view changes",
        rejoiner.stats.view_changes_started
    );
    // Catch-up happened: its stable checkpoint tracked the cluster.
    let stable = rejoiner.stable_checkpoint().0;
    assert!(
        stable >= cluster.replica(0).stable_checkpoint().0,
        "rejoiner stable {stable:?} lags replica 0"
    );
}

/// Regression (crash–restart rejoin): a replica that crashes under load
/// and reboots from durable state must rejoin, re-arm its timers, and
/// converge with the group; messages sent while it was down are lost.
#[test]
fn crash_restart_rejoins_from_durable_state() {
    let mut config = ClusterConfig::test(1, CLIENTS);
    config.seed = 9;
    let mut cluster = counter_cluster(config);
    cluster.schedule_fault(SimTime(200_000), Fault::Crash(ReplicaId(1)));
    cluster.schedule_fault(SimTime(1_100_000), Fault::Restart(ReplicaId(1)));
    cluster.set_workload(OpGen {
        gen: std::rc::Rc::new(|_| (inc_op(), false)),
        ops_per_client: OPS,
        think_us: 10_000,
    });
    assert!(
        cluster.run_to_completion(SimTime(600_000_000)),
        "workload must complete across the crash"
    );
    let tail = SimTime(cluster.now().0 + 2_000_000);
    cluster.run_until(tail);
    assert_eq!(cluster.behavior(1), Behavior::Correct);
    assert_exactly_once(&cluster);
    assert_committed_journals_agree(&cluster);
    let rebooted = cluster.replica(1);
    assert!(
        rebooted.stable_checkpoint().0 >= cluster.replica(0).stable_checkpoint().0,
        "rebooted replica caught up to the group's stable checkpoint"
    );
    assert!(
        rebooted.last_executed().0 > 0,
        "rebooted replica resumed executing"
    );
}

/// Regression (restarted-primary catch-up): a primary that crashes after
/// ordering a tail of batches above the stable checkpoint reboots with its
/// log empty (restart rolls volatile state back to the checkpoint). It can
/// neither re-propose those sequence numbers (they are taken — a fresh
/// assignment would equivocate with its pre-crash self) nor fetch them by
/// state transfer (no newer stable checkpoint exists), and the group never
/// view-changes away from a live primary. It must re-learn its own
/// pre-prepares from the copies peers retransmit via §5.2 status messages;
/// a primary that drops incoming pre-prepares wedges at the checkpoint
/// forever, which is exactly how the live chaos soak caught this.
#[test]
fn restarted_primary_relearns_its_own_tail_without_view_change() {
    // 5 clients x 7 unbatched ops = 35 sequence numbers: with a checkpoint
    // interval of 8, the run quiesces with a 3-batch tail above the last
    // stable checkpoint (32), so the restarted primary has something it
    // can only recover via retransmission. (A client x op product that is
    // a multiple of 8 would quiesce exactly on a checkpoint and make the
    // test vacuous.)
    let clients = 5u32;
    let ops = 7u64;
    let mut config = ClusterConfig::test(1, clients);
    config.seed = 13;
    let mut cluster = counter_cluster(config);
    cluster.set_workload(OpGen::fixed(inc_op(), false, ops));
    assert!(
        cluster.run_to_completion(SimTime(600_000_000)),
        "workload must complete before the primary restarts"
    );
    // Let in-flight checkpoint certificates settle before sampling.
    cluster.run_until(SimTime(cluster.now().0 + 500_000));
    let frontier = cluster.replica(0).last_executed();
    let stable = cluster.replica(0).stable_checkpoint().0;
    assert!(
        frontier > stable,
        "test needs committed batches above the stable checkpoint \
         (frontier {frontier}, stable {stable}); adjust ops or the seed"
    );
    cluster.schedule_fault(
        SimTime(cluster.now().0 + 50_000),
        Fault::Crash(ReplicaId(0)),
    );
    cluster.schedule_fault(
        SimTime(cluster.now().0 + 250_000),
        Fault::Restart(ReplicaId(0)),
    );
    // Several status intervals: catch-up is driven by periodic
    // retransmission, not by fresh client traffic.
    let tail = SimTime(cluster.now().0 + 5_000_000);
    cluster.run_until(tail);
    assert_eq!(
        cluster.replica(0).last_executed(),
        frontier,
        "restarted primary must re-learn and re-execute its pre-crash tail"
    );
    assert_committed_journals_agree(&cluster);
    for i in 0..4usize {
        assert_eq!(
            cluster.replica(i).view().0,
            0,
            "replica {i} left view 0: catch-up must not need a view change"
        );
    }
}

/// Issues a fixed list of `(operation, read_only)` pairs, one at a time.
struct Script(std::vec::IntoIter<(Bytes, bool)>);

impl Driver for Script {
    fn next(&mut self, _last: Option<&Bytes>) -> Option<(Bytes, bool)> {
        self.0.next()
    }
}

/// Regression (read-only reply quorum, §5.1.3): an INC completes on f+1
/// non-tentative replies from r0 and r1 while r2 and r3, behind slow
/// inbound replica links, have not executed it yet. A read-only GET that
/// follows is answered by all four replicas from their current state, so
/// two of the replies are stale. The client must wait for 2f+1 matching
/// replies; accepting f+1 would return the stale pair and lose the
/// client's own write.
#[test]
fn read_only_get_after_weak_certificate_sees_the_write() {
    let mut config = ClusterConfig::test(1, 1);
    // Without tentative execution a prepared-but-uncommitted backup has
    // executed nothing, so it serves reads from the pre-INC state.
    config.replica.opts.tentative_execution = false;
    let mut cluster = counter_cluster(config);
    let slow = |extra_latency_us| LinkProfile {
        extra_latency_us,
        ..LinkProfile::clean()
    };
    let replica = |i: u32| NodeId::Replica(ReplicaId(i));
    let client = NodeId::Client(ClientId(0));
    for lagging in [2, 3] {
        for from in (0..4).filter(|&r| r != lagging) {
            cluster.schedule_fault(
                SimTime::ZERO,
                Fault::SetLink(replica(from), replica(lagging), slow(20_000)),
            );
        }
    }
    // The up-to-date replicas answer the client late, so the lagging
    // pair's GET replies arrive first.
    for fresh in [0, 1] {
        cluster.schedule_fault(
            SimTime::ZERO,
            Fault::SetLink(replica(fresh), client, slow(5_000)),
        );
    }
    cluster.set_driver(
        ClientId(0),
        Box::new(Script(
            vec![
                (inc_op(), false),
                (Bytes::from_static(&[CounterService::OP_GET]), true),
            ]
            .into_iter(),
        )),
    );
    while cluster.client_results(0).is_empty() {
        assert!(cluster.now() < SimTime(1_000_000), "INC must complete");
        cluster.run_until(SimTime(cluster.now().0 + 100));
    }
    for lagging in [2, 3] {
        assert_eq!(
            cluster.replica(lagging).last_executed().0,
            0,
            "r{lagging} must not have executed the INC when it completes"
        );
    }
    assert!(
        cluster.run_to_completion(SimTime(10_000_000)),
        "GET must complete"
    );
    let results = cluster.client_results(0);
    assert_eq!(results.len(), 2);
    let value = |r: &Bytes| u64::from_le_bytes(r[..8].try_into().expect("8-byte counter"));
    assert_eq!(value(&results[0].1), 1, "INC result");
    assert_eq!(value(&results[1].1), 1, "GET must see the client's own INC");
}
