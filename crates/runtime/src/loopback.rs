//! An in-process PBFT cluster on 127.0.0.1 ephemeral ports.
//!
//! [`LoopbackCluster`] spawns `3f + 1` replica nodes, each an event loop
//! over its own sockets, talking real TCP through the loopback interface —
//! the smallest deployment that exercises every runtime layer (framing,
//! reconnect, real timers) without leaving the test process. Integration
//! tests drive it with [`crate::client::run_client`] workers and check
//! the same oracle the simulator's chaos campaigns use: identical
//! journals, exactly-once execution, liveness.

use crate::client::{run_client, run_workers, ClientReport, Workload};
use crate::config::Topology;
use crate::inject::FaultPlane;
use crate::node::{spawn_service_replica_faulted, NodeHandle, Snapshot};
use bft_types::{ClientId, ReplicaId};
use std::fmt;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running loopback cluster.
pub struct LoopbackCluster {
    /// The topology all nodes and clients share.
    pub topo: Topology,
    nodes: Vec<Option<NodeHandle>>,
    /// Retained clones of every replica's listener. The listen socket
    /// never closes — a killed replica's port stays bound (the kernel
    /// backlog absorbs peers' reconnects during the dead window), so
    /// [`LoopbackCluster::restart`] can bring the node back on its old
    /// address without racing `TIME_WAIT` for the port.
    listeners: Vec<TcpListener>,
    /// Chaos-mode fault plane shared by all nodes (and restarted ones).
    faults: Option<Arc<FaultPlane>>,
}

/// Why [`LoopbackCluster::wait_converged`] gave up: the per-replica
/// frontier/digest/view picture at the timeout, so a chaos failure is
/// debuggable without rerunning the schedule.
#[derive(Clone)]
pub struct ConvergeTimeout {
    /// How long the wait ran.
    pub waited: Duration,
    /// Final snapshots of the live replicas (dead ones are absent).
    pub snaps: Vec<Snapshot>,
    /// Replicas that were dead (killed, never restarted) at the timeout.
    pub dead: Vec<u32>,
}

impl fmt::Display for ConvergeTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster failed to converge within {:.1}s:",
            self.waited.as_secs_f64()
        )?;
        for s in &self.snaps {
            writeln!(
                f,
                "  r{}: view={}{} frontier={} last_exec={} digest={:?} journal={} entries\n      blocked: {}",
                s.id.0,
                s.view,
                if s.view_active { "" } else { " (changing)" },
                s.committed_frontier.0,
                s.last_exec.0,
                s.state_digest,
                s.journal.len(),
                s.exec_blocker,
            )?;
        }
        for r in &self.dead {
            writeln!(f, "  r{r}: dead")?;
        }
        Ok(())
    }
}

impl fmt::Debug for ConvergeTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ConvergeTimeout {}

/// A non-panicking convergence outcome for chaos campaigns: either the
/// wait timed out (laggards, lost liveness) or the safety oracle itself
/// tripped (divergent committed journals — waiting cannot repair that).
#[derive(Debug)]
pub enum ConvergeFailure {
    /// No agreement before the deadline; diagnostics attached.
    Timeout(ConvergeTimeout),
    /// Journal divergence description from
    /// [`LoopbackCluster::check_journal_agreement`].
    Safety(String),
}

impl LoopbackCluster {
    /// Boots `3f + 1` replicas on ephemeral loopback ports.
    ///
    /// The `PBFT_WORKERS` environment variable (when set to a positive
    /// integer) turns on the MAC worker pool for every node — CI uses it
    /// to run the whole loopback suite under the threaded data plane
    /// without touching each test.
    pub fn start(f: usize, clients: u32) -> LoopbackCluster {
        let workers = std::env::var("PBFT_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        Self::start_tuned(f, clients, workers, None)
    }

    /// [`LoopbackCluster::start`] with explicit data-plane tuning:
    /// `workers` MAC pool threads per node (0 = single-threaded direct
    /// path) and an optional primary `pipeline_depth` override (None
    /// keeps the topology default).
    pub fn start_tuned(
        f: usize,
        clients: u32,
        workers: usize,
        pipeline_depth: Option<u64>,
    ) -> LoopbackCluster {
        Self::start_with(f, clients, move |topo| {
            topo.workers = workers;
            if let Some(depth) = pipeline_depth {
                topo.pipeline_depth = depth;
            }
        })
    }

    /// The fully general constructor: binds the listeners, builds the
    /// default loopback topology, then lets `tune` rewrite any knob
    /// (workers, pipeline depth, view-change timeout, ...) before the
    /// nodes boot.
    pub fn start_with(f: usize, clients: u32, tune: impl FnOnce(&mut Topology)) -> LoopbackCluster {
        Self::start_chaos(f, clients, None, tune)
    }

    /// [`LoopbackCluster::start_with`] with an optional [`FaultPlane`]
    /// wired into every node's transport — the realnet chaos runner's
    /// entry point. Client drivers must share the same plane (via
    /// [`crate::client::ClientHooks`]) for client↔replica faults.
    pub fn start_chaos(
        f: usize,
        clients: u32,
        faults: Option<Arc<FaultPlane>>,
        tune: impl FnOnce(&mut Topology),
    ) -> LoopbackCluster {
        let n = 3 * f + 1;
        // Bind every listener first so the topology is complete before
        // any node dials a peer.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let mut topo = Topology::localhost(f, clients, 1);
        topo.set_replicas(
            listeners
                .iter()
                .map(|l| l.local_addr().expect("addr"))
                .collect(),
        );
        // Small checkpoint interval so loopback tests cross checkpoint
        // and garbage-collection boundaries quickly.
        topo.checkpoint_interval = 16;
        tune(&mut topo);
        let nodes = listeners
            .iter()
            .enumerate()
            .map(|(i, listener)| {
                Some(spawn_service_replica_faulted(
                    ReplicaId(i as u32),
                    topo.clone(),
                    listener.try_clone().expect("clone listener"),
                    faults.clone(),
                ))
            })
            .collect();
        LoopbackCluster {
            topo,
            nodes,
            listeners,
            faults,
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.topo.replicas.len()
    }

    /// The cluster's topology, for custom client drivers (the Andrew
    /// benchmark drives [`crate::bfs_driver::run_andrew_mux`] directly).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Runs `clients` concurrent client workers (ids `0..clients`) and
    /// returns their reports.
    ///
    /// A worker that panics no longer poisons the whole run: every
    /// surviving worker's report is still collected, and the panic names
    /// the dead worker(s) and their reason instead of surfacing as an
    /// anonymous `.join()` failure.
    pub fn run_clients(
        &self,
        clients: u32,
        workload: Workload,
        deadline: Duration,
    ) -> Vec<ClientReport> {
        let ids: Vec<ClientId> = (0..clients).map(ClientId).collect();
        let outcomes = run_workers(&ids, |c| run_client(c, &self.topo, &workload, deadline));
        let mut reports = Vec::with_capacity(outcomes.len());
        let mut failures = Vec::new();
        for (c, outcome) in outcomes {
            match outcome {
                Ok(report) => reports.push(report),
                Err(why) => failures.push(format!("client {} panicked: {why}", c.0)),
            }
        }
        assert!(
            failures.is_empty(),
            "{}/{} client workers died ({} reported): {}",
            failures.len(),
            clients,
            reports.len(),
            failures.join("; ")
        );
        reports
    }

    /// Kills replica `r` abruptly (fail-stop).
    pub fn kill(&mut self, r: ReplicaId) {
        if let Some(mut node) = self.nodes[r.0 as usize].take() {
            node.kill();
        }
    }

    /// Restarts a killed replica on its original address: a fresh node
    /// (empty state, view 0) boots on a clone of the retained listener
    /// and catches up through status retransmission or, once the cluster
    /// has checkpointed past it, state transfer (§5.3.2). No-op when the
    /// replica is still alive.
    pub fn restart(&mut self, r: ReplicaId) {
        let i = r.0 as usize;
        if self.nodes[i].is_some() {
            return;
        }
        let listener = self.listeners[i]
            .try_clone()
            .expect("clone retained listener");
        self.nodes[i] = Some(spawn_service_replica_faulted(
            r,
            self.topo.clone(),
            listener,
            self.faults.clone(),
        ));
    }

    /// Snapshot of replica `r`, or `None` when it was killed.
    pub fn snapshot(&self, r: ReplicaId) -> Option<Snapshot> {
        self.nodes[r.0 as usize].as_ref().and_then(|n| n.snapshot())
    }

    /// Snapshots of every live replica.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        (0..self.n())
            .filter_map(|i| self.snapshot(ReplicaId(i as u32)))
            .collect()
    }

    /// Waits until every live replica reports the same state digest at
    /// the same committed frontier, with their committed journals in
    /// agreement wherever they overlap. Laggards catch up through
    /// status retransmission — or, when they fell behind the stable
    /// checkpoint, through state transfer (§5.3.2), which is why the
    /// oracle cannot demand bit-identical journals: a state-transferred
    /// replica legitimately has a gap for the range it fetched as pages
    /// instead of executing locally. Returns the converged snapshots, or
    /// a [`ConvergeTimeout`] carrying every live replica's frontier,
    /// digest, and view — but panics immediately on an actual safety
    /// violation (two replicas committing different digests for one
    /// sequence number), which waiting can never repair.
    pub fn wait_converged(&self, timeout: Duration) -> Result<Vec<Snapshot>, ConvergeTimeout> {
        self.try_wait_converged(timeout).map_err(|e| match e {
            ConvergeFailure::Timeout(t) => t,
            ConvergeFailure::Safety(divergence) => panic!("safety violation: {divergence}"),
        })
    }

    /// [`LoopbackCluster::wait_converged`] that reports a safety
    /// divergence instead of panicking — the chaos runner records it as
    /// an oracle violation to be shrunk and replayed.
    pub fn try_wait_converged(&self, timeout: Duration) -> Result<Vec<Snapshot>, ConvergeFailure> {
        let started = Instant::now();
        let deadline = started + timeout;
        loop {
            let snaps = self.snapshots();
            if !snaps.is_empty() {
                if let Err(divergence) = Self::check_journal_agreement(&snaps) {
                    return Err(ConvergeFailure::Safety(divergence));
                }
                let converged = snaps.windows(2).all(|w| {
                    w[0].committed_frontier == w[1].committed_frontier
                        && w[0].state_digest == w[1].state_digest
                });
                if converged {
                    return Ok(snaps);
                }
            }
            if Instant::now() >= deadline {
                let dead = (0..self.n() as u32)
                    .filter(|&i| !snaps.iter().any(|s| s.id.0 == i))
                    .collect();
                return Err(ConvergeFailure::Timeout(ConvergeTimeout {
                    waited: started.elapsed(),
                    snaps,
                    dead,
                }));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// The cross-replica safety oracle: every pair of committed journals
    /// must agree wherever their sequence numbers overlap (replicas may
    /// lag; they must never diverge). Returns an error description on
    /// violation.
    pub fn check_journal_agreement(snaps: &[Snapshot]) -> Result<(), String> {
        for a in snaps {
            for b in snaps {
                if a.id.0 >= b.id.0 {
                    continue;
                }
                let ja = a.committed_journal();
                let jb = b.committed_journal();
                for (seq, da) in &ja {
                    if jb.get(seq).is_some_and(|db| db != da) {
                        return Err(format!(
                            "committed journals of r{} and r{} disagree at seq {seq}",
                            a.id.0, b.id.0
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Shuts every node down.
    pub fn shutdown(mut self) {
        for node in self.nodes.iter_mut() {
            if let Some(mut node) = node.take() {
                node.kill();
            }
        }
    }
}

impl Drop for LoopbackCluster {
    fn drop(&mut self) {
        for node in self.nodes.iter_mut() {
            if let Some(mut node) = node.take() {
                node.kill();
            }
        }
    }
}
