//! The cluster under test and the tracing wrappers around its layers.
//!
//! Every workload runs against f = 1 (four replicas) on 127.0.0.1
//! ephemeral ports, in this process, with **no injected message delay**:
//! latency is processor time plus thread hand-offs, not a network. The
//! benchmark boots the nodes itself through `spawn_replica`, so a traced
//! run can hand each node a [`Traced`] service that records a span around
//! every call into the service layer; the untraced run hands over the
//! bare service and is otherwise identical.

use crate::spans::Recorder;
use crate::workload::{op_id_of, Workload, BFS_BUCKETS, CLIENTS};
use bft_runtime::node::spawn_replica;
use bft_runtime::{LoopbackCluster, NodeHandle, Snapshot, StorageKind, Topology};
use bft_statemachine::{CounterService, Service};
use bft_storage::{CheckpointSnapshot, Storage, StorageError, WalRecord};
use bft_types::{ReplicaId, Requester, SeqNo, Wire};
use bytes::Bytes;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Batches the primary keeps in flight.
pub const PIPELINE_DEPTH: u64 = 4;
/// Sequence numbers between checkpoints.
pub const CHECKPOINT_INTERVAL: u64 = 128;
/// Base view-change timeout, ms: long enough that a replica starved by
/// the saturated 2-cpu host does not start a view change mid-run.
pub const VIEW_CHANGE_MS: u64 = 2000;
/// Client retransmission timeout. The product derives it as half the
/// view-change timeout, which the long timeout above would stretch to a
/// second; this is about what the product's default configuration gives
/// (125 ms). It matters because a read-only op whose fast-path replies
/// disagree waits for this timer before it is retried as an ordered op,
/// and one such wait holds up a whole Andrew phase.
pub const CLIENT_RETRANSMIT: Duration = Duration::from_millis(150);

/// A service that records one span around `execute` (keyed by the op id
/// in the payload) and around the checkpoint page calls.
pub struct Traced<S> {
    inner: S,
    rec: Recorder,
}

impl<S> Traced<S> {
    pub fn new(inner: S, rec: Recorder) -> Self {
        Traced { inner, rec }
    }
}

impl<S: Service> Service for Traced<S> {
    fn execute(&mut self, requester: Requester, op: &[u8], nondet: &[u8]) -> Bytes {
        let op_id = op_id_of(op);
        // Inside the replay the enclosing protocol step is the parent;
        // on the live path the client's request span (whose id is the op
        // id) is.
        let parent = match self.rec.ambient() {
            0 => op_id,
            step => step,
        };
        let inner = &mut self.inner;
        self.rec.time("service.execute", parent, op_id, || {
            inner.execute(requester, op, nondet)
        })
    }
    fn is_read_only(&self, op: &[u8]) -> bool {
        self.inner.is_read_only(op)
    }
    fn has_access(&self, requester: Requester, op: &[u8]) -> bool {
        self.inner.has_access(requester, op)
    }
    fn propose_nondet(&self, seq: SeqNo) -> Bytes {
        self.inner.propose_nondet(seq)
    }
    fn check_nondet(&self, nondet: &[u8]) -> bool {
        self.inner.check_nondet(nondet)
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn get_page(&self, index: u64) -> Bytes {
        self.rec.time("service.page", self.rec.ambient(), 0, || {
            self.inner.get_page(index)
        })
    }
    fn put_page(&mut self, index: u64, data: &[u8]) {
        self.inner.put_page(index, data)
    }
    fn take_dirty(&mut self) -> Vec<u64> {
        let inner = &mut self.inner;
        self.rec
            .time("service.page", self.rec.ambient(), 0, || inner.take_dirty())
    }
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
}

/// Exact counts a [`TracedStorage`] keeps beside its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageCounts {
    pub appends: u64,
    pub append_bytes: u64,
    pub syncs: u64,
    pub snapshots: u64,
}

/// A storage engine that records one span per append, sync and snapshot
/// write, and counts records and bytes.
pub struct TracedStorage<T> {
    inner: T,
    rec: Recorder,
    counts: std::rc::Rc<std::cell::Cell<StorageCounts>>,
    scratch: Vec<u8>,
}

impl<T> TracedStorage<T> {
    pub fn new(
        inner: T,
        rec: Recorder,
        counts: std::rc::Rc<std::cell::Cell<StorageCounts>>,
    ) -> Self {
        TracedStorage {
            inner,
            rec,
            counts,
            scratch: Vec::new(),
        }
    }

    fn bump(&self, f: impl FnOnce(&mut StorageCounts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }
}

impl<T: Storage> Storage for TracedStorage<T> {
    fn append(&mut self, rec: &WalRecord) -> Result<(), StorageError> {
        // Sized outside the span: the count must not cost the layer time.
        self.scratch.clear();
        rec.encode(&mut self.scratch);
        let bytes = self.scratch.len() as u64;
        self.bump(|c| {
            c.appends += 1;
            c.append_bytes += bytes;
        });
        let inner = &mut self.inner;
        self.rec.time("storage.append", self.rec.ambient(), 0, || {
            inner.append(rec)
        })
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.bump(|c| c.syncs += 1);
        let inner = &mut self.inner;
        self.rec
            .time("storage.sync", self.rec.ambient(), 0, || inner.sync())
    }
    fn write_snapshot(&mut self, snap: &CheckpointSnapshot) -> Result<(), StorageError> {
        self.bump(|c| c.snapshots += 1);
        let inner = &mut self.inner;
        self.rec
            .time("storage.snapshot", self.rec.ambient(), 0, || {
                inner.write_snapshot(snap)
            })
    }
    fn load_snapshot(&mut self) -> Result<Option<CheckpointSnapshot>, StorageError> {
        self.inner.load_snapshot()
    }
    fn truncate_below(&mut self, watermark: SeqNo) -> Result<(), StorageError> {
        self.inner.truncate_below(watermark)
    }
    fn replay(&mut self) -> Box<dyn Iterator<Item = WalRecord> + '_> {
        self.inner.replay()
    }
}

/// The topology every workload shares, before addresses are filled in.
pub fn base_topology(workload: Workload, seed: u64) -> Topology {
    let mut topo = Topology::localhost(1, CLIENTS, 1);
    // The seed picks the session keys, so MACs and authenticators differ
    // from seed to seed like the payloads do.
    topo.key_seed = seed;
    topo.workers = 0;
    topo.pipeline_depth = PIPELINE_DEPTH;
    topo.checkpoint_interval = CHECKPOINT_INTERVAL;
    topo.view_change_ms = VIEW_CHANGE_MS;
    topo.service = workload.service();
    topo.storage = workload.storage();
    topo
}

/// The counter service sized as the product's own nodes size it.
pub fn counter_service(topo: &Topology) -> CounterService {
    CounterService::new(topo.clients + (3 * topo.f + 1) as u32)
}

/// A running four-replica cluster.
pub struct LiveCluster {
    pub topo: Topology,
    nodes: Vec<NodeHandle>,
    data_dir: Option<PathBuf>,
}

impl LiveCluster {
    /// Binds four ephemeral listeners, then boots the nodes. With a
    /// recorder the nodes run the [`Traced`] service. `storage = wal`
    /// gets a fresh directory under `scratch`.
    pub fn boot(workload: Workload, seed: u64, rec: Option<&Recorder>, scratch: &Path) -> Self {
        let listeners: Vec<TcpListener> = (0..4)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
            .collect();
        let mut topo = base_topology(workload, seed);
        topo.set_replicas(
            listeners
                .iter()
                .map(|l| l.local_addr().expect("listener address"))
                .collect(),
        );
        let data_dir = (topo.storage == StorageKind::Wal).then(|| fresh_dir(scratch, "wal"));
        topo.data_dir = data_dir.as_ref().map(|d| d.display().to_string());

        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let id = ReplicaId(i as u32);
                let topo = topo.clone();
                match (workload.service(), rec.cloned()) {
                    (bft_runtime::ServiceKind::Counter, None) => {
                        spawn_replica(id, topo, listener, counter_service)
                    }
                    (bft_runtime::ServiceKind::Counter, Some(rec)) => {
                        spawn_replica(id, topo, listener, move |t: &Topology| {
                            Traced::new(counter_service(t), rec)
                        })
                    }
                    (bft_runtime::ServiceKind::Bfs, None) => {
                        spawn_replica(id, topo, listener, |_: &Topology| {
                            bfs::BfsService::new_realtime(BFS_BUCKETS)
                        })
                    }
                    (bft_runtime::ServiceKind::Bfs, Some(rec)) => {
                        spawn_replica(id, topo, listener, move |_: &Topology| {
                            Traced::new(bfs::BfsService::new_realtime(BFS_BUCKETS), rec)
                        })
                    }
                }
            })
            .collect();
        LiveCluster {
            topo,
            nodes,
            data_dir,
        }
    }

    /// A snapshot of every replica; an error if one does not answer.
    pub fn snapshots(&self) -> Result<Vec<Snapshot>, String> {
        self.nodes
            .iter()
            .map(|n| {
                n.snapshot()
                    .ok_or_else(|| format!("replica {} does not answer", n.id.0))
            })
            .collect()
    }

    /// The convergence half of the oracle: waits until all four replicas
    /// report one state digest at one committed frontier, with their
    /// committed journals agreeing wherever they overlap.
    pub fn wait_converged(&self, timeout: Duration) -> Result<Vec<Snapshot>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let snaps = self.snapshots()?;
            LoopbackCluster::check_journal_agreement(&snaps)?;
            let same = snaps.windows(2).all(|w| {
                w[0].committed_frontier == w[1].committed_frontier
                    && w[0].state_digest == w[1].state_digest
            });
            if same {
                return Ok(snaps);
            }
            if Instant::now() >= deadline {
                let picture: Vec<String> = snaps
                    .iter()
                    .map(|s| {
                        format!(
                            "r{} view {} frontier {} exec {} ({})",
                            s.id.0, s.view, s.committed_frontier.0, s.last_exec.0, s.exec_blocker
                        )
                    })
                    .collect();
                return Err(format!(
                    "replicas did not converge within {timeout:?}: {}",
                    picture.join("; ")
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops every node (joining its threads) and removes the data
    /// directory.
    pub fn shutdown(mut self) {
        for node in &mut self.nodes {
            node.kill();
        }
        if let Some(dir) = self.data_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A new, empty directory under `scratch`, unique within this process.
pub fn fresh_dir(scratch: &Path, label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // Relaxed: the counter publishes nothing but itself.
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("{label}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("create scratch directory {}: {e}", dir.display()));
    dir
}
