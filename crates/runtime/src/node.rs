//! The replica event loop: one protocol thread owning a
//! [`bft_core::Replica`] and its transport [`Endpoint`] — the
//! simulator's step loop transplanted onto a real harness through
//! [`ReplicaDriver`]. Each iteration answers snapshot requests, fires
//! due timers, flushes, then [`Endpoint::poll`]s until a socket is
//! ready, a wake-up arrives, or the next timer is due, and steps the
//! replica over every payload that arrived: sends append encoded frames
//! to per-connection backlogs, timer actions re-arm the [`RtTimers`]
//! wheel, and the next flush writes each backlog once. The replica is
//! constructed *inside* the thread: protocol state shares `Rc` bodies.
//!
//! Threads per node: this one, the endpoint's dialer, and the `workers`
//! [`MacPool`] threads when the pool is on; their results wake this
//! same loop through the endpoint's [`crate::transport::Waker`].

use crate::clock::RtTimers;
use crate::config::{ServiceKind, Topology};
use crate::inject::FaultPlane;
use crate::pool::MacPool;
use crate::transport::{Endpoint, Probe, StatsSnapshot, Waker};
use bft_core::{Action, AuthVerdict, Input, Replica, ReplicaDriver, ReplicaStats, Target, TimerId};
use bft_crypto::Digest;
use bft_statemachine::{CounterService, Service};
use bft_types::framing::frame_bytes;
use bft_types::{Message, NodeId, ReplicaId, Requester, SeqNo, Wire};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Idle poll interval: the loop wakes at least this often to check the
/// shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// A point-in-time copy of the replica state harness oracles compare.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Replica id.
    pub id: ReplicaId,
    /// Current view number.
    pub view: u64,
    /// Whether the current view is active.
    pub view_active: bool,
    /// Last executed sequence number.
    pub last_exec: SeqNo,
    /// Highest sequence number with everything below committed.
    pub committed_frontier: SeqNo,
    /// Root digest of the replicated state.
    pub state_digest: Digest,
    /// The raw execution journal, re-executions after rollbacks
    /// included. Compare across replicas through
    /// [`Snapshot::committed_journal`], not directly: a replica that
    /// lived through a view change legitimately carries extra
    /// re-execution entries.
    pub journal: Vec<(SeqNo, Digest)>,
    /// Protocol counters.
    pub stats: ReplicaStats,
    /// Transport counters.
    pub transport: StatsSnapshot,
    /// Why the next sequence number is not executing (stall forensics
    /// for convergence-timeout diagnostics).
    pub exec_blocker: String,
}

impl Snapshot {
    /// The committed prefix of the journal, normalized exactly like the
    /// simulator's safety oracle (`bft_sim::chaos::committed_journal`):
    /// the final digest per sequence number at or below the committed
    /// frontier. This is the object to compare across replicas.
    pub fn committed_journal(&self) -> std::collections::BTreeMap<u64, Digest> {
        let mut map = std::collections::BTreeMap::new();
        for &(seq, digest) in &self.journal {
            if seq <= self.committed_frontier {
                map.insert(seq.0, digest);
            }
        }
        map
    }
}

/// Handle to a spawned replica node.
pub struct NodeHandle {
    /// Replica id.
    pub id: ReplicaId,
    /// The address the node listens on.
    pub addr: SocketAddr,
    /// Snapshot requests to the node thread.
    snapshots: Sender<Sender<Snapshot>>,
    /// Wakes the node's loop so requests are answered at once.
    waker: Waker,
    probe: Arc<Probe>,
    alive: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl NodeHandle {
    /// Requests a state snapshot from the node thread. `None` when the
    /// node is dead.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let (tx, rx) = mpsc::channel();
        self.snapshots.send(tx).ok()?;
        self.waker.wake();
        rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    /// Kills the node abruptly (fail-stop): sockets close, the protocol
    /// thread exits without any farewell messages. Idempotent.
    pub fn kill(&mut self) {
        self.alive.store(false, Ordering::Relaxed);
        self.waker.wake();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Leak check after [`NodeHandle::kill`]: `(running node and
    /// transport threads, open sockets, return routes)`.
    pub fn residual_state(&self) -> (u64, usize, usize) {
        let (threads, sockets, routes) = self.probe.residual_state();
        (threads + u64::from(self.join.is_some()), sockets, routes)
    }

    /// Blocks until the node thread exits (a server main-loop `join`).
    pub fn join(mut self) {
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns replica `id` of `topo` on `listener`, building its service
/// with `make_service` inside the node thread.
pub fn spawn_replica<S, F>(
    id: ReplicaId,
    topo: Topology,
    listener: TcpListener,
    make_service: F,
) -> NodeHandle
where
    S: Service,
    F: FnOnce(&Topology) -> S + Send + 'static,
{
    spawn_replica_faulted(id, topo, listener, make_service, None)
}

/// [`spawn_replica`] with an optional [`FaultPlane`] wired into the
/// node's transport, for chaos campaigns against live clusters.
pub fn spawn_replica_faulted<S, F>(
    id: ReplicaId,
    topo: Topology,
    listener: TcpListener,
    make_service: F,
    faults: Option<Arc<FaultPlane>>,
) -> NodeHandle
where
    S: Service,
    F: FnOnce(&Topology) -> S + Send + 'static,
{
    let addr = listener.local_addr().expect("listener addr");
    let peers: Vec<(NodeId, SocketAddr)> = topo
        .replicas
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != id.0 as usize)
        .map(|(i, addr)| (NodeId::Replica(ReplicaId(i as u32)), *addr))
        .collect();
    let endpoint = Endpoint::new(vec![NodeId::Replica(id)], Some(listener), peers, faults)
        .expect("open replica endpoint");
    let waker = endpoint.waker();
    let probe = endpoint.probe();
    let alive = Arc::new(AtomicBool::new(true));
    let alive2 = Arc::clone(&alive);
    let (snapshot_tx, snapshot_rx) = mpsc::channel();
    let join = std::thread::Builder::new()
        .name(endpoint.thread_name("node"))
        .spawn(move || {
            let keys = topo.keys();
            let config = topo.replica_config();
            let service = make_service(&topo);
            let mut replica = Replica::new(id, config.clone(), service, &keys, topo.key_seed);

            // Storage selection happens before the event loop starts:
            // `wal` nodes recover from disk and persist from the first
            // input; `mem` nodes attach nothing, so the hot path pays
            // zero storage cost (the pre-storage behavior).
            let boot = match topo.storage {
                crate::config::StorageKind::Mem => replica.boot(),
                crate::config::StorageKind::Wal => {
                    let dir = std::path::Path::new(
                        topo.data_dir.as_deref().expect("wal requires data_dir"),
                    )
                    .join(format!("replica-{}", id.0));
                    let mut storage = bft_storage::WalStorage::open(&dir).unwrap_or_else(|e| {
                        panic!("replica {}: open WAL at {}: {e:?}", id.0, dir.display())
                    });
                    let boot = replica.recover(&mut storage);
                    replica.attach_storage(Box::new(storage));
                    boot
                }
            };
            let pool = (topo.workers > 0).then(|| {
                let name = endpoint.thread_name("mac");
                MacPool::start(topo.workers, id, &config, &keys, &name, endpoint.waker())
            });
            let io = NodeIo {
                me: id,
                n: topo.replicas.len(),
                endpoint,
                pool,
                timers: RtTimers::new(),
            };
            run_node(replica, boot, io, snapshot_rx, &alive2);
        })
        .expect("spawn node thread");
    NodeHandle {
        id,
        addr,
        snapshots: snapshot_tx,
        waker,
        probe,
        alive,
        join: Some(join),
    }
}

/// Spawns a replica running the [`bft_statemachine::CounterService`] —
/// the default service of `pbft-node` and the loopback tests.
pub fn spawn_counter_replica(id: ReplicaId, topo: Topology, listener: TcpListener) -> NodeHandle {
    let mut topo = topo;
    topo.service = ServiceKind::Counter;
    spawn_service_replica(id, topo, listener)
}

/// Checkpoint pages for the live BFS service. More pages than the
/// simulator's 64 so state-transfer fetches stay small under the Andrew
/// write volume.
pub const BFS_LIVE_BUCKETS: u64 = 128;

/// Spawns a replica running whatever service the topology's `service`
/// key selects — the dispatch point shared by `pbft-node` and the
/// loopback harness (including restarts, so a restarted BFS node never
/// comes back as a counter).
pub fn spawn_service_replica_faulted(
    id: ReplicaId,
    topo: Topology,
    listener: TcpListener,
    faults: Option<Arc<FaultPlane>>,
) -> NodeHandle {
    let bfs = |_: &Topology| bfs::BfsService::new_realtime(BFS_LIVE_BUCKETS);
    let counter = |t: &Topology| CounterService::new(t.clients + (3 * t.f + 1) as u32);
    match topo.service {
        ServiceKind::Counter => spawn_replica_faulted(id, topo, listener, counter, faults),
        ServiceKind::Bfs => spawn_replica_faulted(id, topo, listener, bfs, faults),
    }
}

/// [`spawn_service_replica_faulted`] without fault injection.
pub fn spawn_service_replica(id: ReplicaId, topo: Topology, listener: TcpListener) -> NodeHandle {
    spawn_service_replica_faulted(id, topo, listener, None)
}

/// The event loop. Direct (`io.pool` is `None`): payloads step the
/// replica as they arrive. Pooled: payloads go to the [`MacPool`] for
/// verification and step the replica, with the workers' verdicts, in
/// arrival order once verified; outbound frames leave in the order the
/// replica produced them.
fn run_node<S: Service>(
    mut replica: Replica<S>,
    boot: Vec<Action>,
    mut io: NodeIo,
    snapshots: Receiver<Sender<Snapshot>>,
    alive: &AtomicBool,
) {
    io.apply(boot);
    let mut inbox = Vec::new();
    while alive.load(Ordering::Relaxed) {
        for reply in snapshots.try_iter() {
            let _ = reply.send(take_snapshot(&replica, io.me, io.endpoint.probe().stats()));
        }
        io.fire_timers(&mut replica);
        io.flush();
        let wait = io.timers.until_next().unwrap_or(IDLE_POLL).min(IDLE_POLL);
        io.endpoint.poll(wait, &mut inbox);
        let verified = match &mut io.pool {
            Some(pool) => {
                for payload in inbox.drain(..) {
                    pool.verify(payload);
                }
                pool.verified()
            }
            None => Vec::new(),
        };
        for payload in inbox.drain(..) {
            io.deliver(&mut replica, &payload, None);
        }
        for (payload, verdict) in verified {
            io.deliver(&mut replica, &payload, Some(verdict));
        }
    }
    if let Some(pool) = io.pool.take() {
        pool.shutdown();
    }
    io.endpoint.shutdown();
    alive.store(false, Ordering::Relaxed);
}

/// Everything the loop drives besides the replica.
struct NodeIo {
    me: ReplicaId,
    n: usize,
    endpoint: Endpoint,
    pool: Option<MacPool>,
    timers: RtTimers<TimerId>,
}

impl NodeIo {
    /// Decodes one checksum-verified payload and steps the replica with
    /// it (and the pool's verdict, when it has one). Undecodable payloads
    /// are dropped: the transport already verified the checksum, so
    /// this means a peer speaking garbage, not line noise.
    fn deliver<S: Service>(
        &mut self,
        replica: &mut Replica<S>,
        payload: &[u8],
        verdict: Option<AuthVerdict>,
    ) {
        let mut slice = payload;
        let Ok(msg) = Message::decode(&mut slice) else {
            return;
        };
        if !slice.is_empty() {
            return;
        }
        let actions = match verdict {
            None => replica.step(Input::Deliver(msg)),
            Some(verdict) => replica.step_verified(Input::Deliver(msg), verdict),
        };
        self.apply(actions);
    }

    fn fire_timers<S: Service>(&mut self, replica: &mut Replica<S>) {
        while let Some(timer) = self.timers.pop_due() {
            let actions = replica.step(Input::Timer(timer));
            self.apply(actions);
        }
    }

    /// Interprets replica actions: sends encode once and fan out to the
    /// endpoint's backlogs — or, pooled, deferred-authenticator messages
    /// go to workers as `(variant, content, nonce)` jobs and everything
    /// else takes its place in the pool's output order; timer actions
    /// hit the wheel.
    fn apply(&mut self, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let dests = resolve_dests(self.me, &to, self.n);
                    match &mut self.pool {
                        None => {
                            let frame = frame_bytes(&msg);
                            for dest in dests {
                                self.endpoint.send(dest, &frame);
                            }
                        }
                        Some(_) if dests.is_empty() => {}
                        Some(pool) => match msg.deferred_auth_parts() {
                            Some((variant, content, nonce)) => {
                                pool.send_deferred(variant, content, nonce, dests)
                            }
                            None => pool.send_ready(frame_bytes(&msg), dests),
                        },
                    }
                }
                Action::SetTimer { id, after } => self.timers.set(id, after),
                Action::CancelTimer { id } => self.timers.cancel(id),
            }
        }
    }

    /// Moves the pool's in-order output to the endpoint and writes every
    /// backlog.
    fn flush(&mut self) {
        if let Some(pool) = &mut self.pool {
            let endpoint = &mut self.endpoint;
            pool.release(|frame, dests| {
                for &dest in dests {
                    endpoint.send(dest, frame);
                }
            });
        }
        self.endpoint.flush();
    }
}

/// Expands an action [`Target`] into concrete transport destinations.
fn resolve_dests(me: ReplicaId, to: &Target, n: usize) -> Vec<NodeId> {
    match to {
        Target::Replica(r) => vec![NodeId::Replica(*r)],
        Target::AllReplicas => (0..n as u32)
            .map(ReplicaId)
            .filter(|r| *r != me)
            .map(NodeId::Replica)
            .collect(),
        Target::Requester(Requester::Client(c)) => vec![NodeId::Client(*c)],
        Target::Requester(Requester::Replica(r)) => vec![NodeId::Replica(*r)],
        Target::Node(node) => vec![*node],
    }
}

/// Builds the oracle snapshot handed back over the control channel.
fn take_snapshot<S: Service>(
    replica: &Replica<S>,
    me: ReplicaId,
    transport: StatsSnapshot,
) -> Snapshot {
    let next = SeqNo(ReplicaDriver::last_executed(replica).0 + 1);
    let exec_blocker = match replica.debug_fetch() {
        Some(fetch) => format!("fetch: {fetch}"),
        None => replica.debug_exec_blocker(next),
    };
    Snapshot {
        id: me,
        view: replica.current_view().0,
        view_active: replica.view_active(),
        last_exec: ReplicaDriver::last_executed(replica),
        committed_frontier: ReplicaDriver::committed_frontier(replica),
        state_digest: ReplicaDriver::state_digest(replica),
        journal: ReplicaDriver::journal(replica).to_vec(),
        stats: replica.stats,
        transport,
        exec_blocker,
    }
}
