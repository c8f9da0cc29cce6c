//! The real-network client: [`bft_core::ClientProxy`]s over the TCP
//! transport, driven by one multiplexed event loop that serves the load
//! generator `pbft-client`, the tests, the chaos runner and the
//! benchmark alike.
//!
//! The workload mix mirrors the benchmark and chaos campaigns: padded
//! counter increments with a configurable sprinkle of read-only reads
//! (the §5.1.3 fast path). Closed-loop clients issue the next operation
//! when the previous completes (plus think time); open-loop clients pace
//! invocations against the wall clock — if the system falls behind the
//! configured rate, the next invocation fires as soon as the previous
//! reply certificate lands, so sustained overload degrades to a closed
//! loop rather than queueing unboundedly (one in-flight operation per
//! client, as the protocol requires).

use crate::clock::RtTimers;
use crate::config::Topology;
use crate::inject::{FaultPlane, StormSignal};
use crate::transport::Endpoint;
use bft_core::{Action, ClientProxy, CompletedOp, Input, Target, TimerId};
use bft_statemachine::CounterService;
use bft_types::framing::frame_bytes;
use bft_types::{ClientId, Message, NodeId, ReplicaId, SimDuration, Timestamp, Wire};
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a client paces its operations.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Issue the next operation when the previous completes, after an
    /// optional think time.
    Closed {
        /// Pause between completion and the next invocation.
        think: Duration,
    },
    /// Target a fixed invocation rate per client (best effort: the loop
    /// never holds more than one operation in flight).
    Open {
        /// Interval between scheduled invocations.
        interval: Duration,
    },
}

/// One client's workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Operations to issue.
    pub ops: u64,
    /// Operation payload size in bytes (first byte selects the op).
    pub op_bytes: usize,
    /// Every k-th operation is a read-only `GET` (0 = never).
    pub read_every: u64,
    /// Pacing mode.
    pub mode: LoadMode,
    /// Override of the client retransmission timeout (tests force
    /// retransmission storms by making this tiny).
    pub retransmit: Option<Duration>,
}

impl Workload {
    /// A tight closed loop of `ops` mixed operations.
    pub fn closed(ops: u64) -> Self {
        Workload {
            ops,
            op_bytes: 128,
            read_every: 4,
            mode: LoadMode::Closed {
                think: Duration::ZERO,
            },
            retransmit: None,
        }
    }

    /// The `(operation, read_only)` pair for the k-th op, reusing the
    /// benchmark mix: padded INC with every `read_every`-th op a GET.
    pub fn op(&self, k: u64) -> (Bytes, bool) {
        let read = self.read_every > 0 && k % self.read_every == self.read_every - 1;
        let code = if read {
            CounterService::OP_GET
        } else {
            CounterService::OP_INC
        };
        let mut body = vec![code];
        body.resize(self.op_bytes.max(1), 0xb7);
        (Bytes::from(body), read)
    }

    /// Number of `INC` (write) operations in the first `ops` operations.
    pub fn writes(&self) -> u64 {
        (0..self.ops).filter(|&k| !self.op(k).1).count() as u64
    }
}

/// What one client observed.
#[derive(Clone, Debug)]
pub struct ClientReport {
    /// The client id.
    pub client: ClientId,
    /// Operations that completed with a full reply certificate.
    pub completed: u64,
    /// Operations that needed at least one retransmission.
    pub retransmitted: u64,
    /// Retransmissions of the operation still in flight when the driver
    /// returned (0 if none): a client stuck on one op shows how often it
    /// resent it, which `retransmitted` cannot.
    pub pending_retransmissions: u32,
    /// Per-operation latency, microseconds, in completion order.
    pub latencies_us: Vec<u64>,
    /// `(timestamp, result)` per completed operation.
    pub results: Vec<(Timestamp, Vec<u8>)>,
    /// Wall time from first invocation to last completion.
    pub wall: Duration,
}

impl ClientReport {
    /// Completed operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.wall.as_secs_f64()
    }

    /// The p-th latency percentile in microseconds (0.0 ..= 1.0).
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }

    /// Mean latency in microseconds.
    pub fn latency_mean_us(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        self.latencies_us.iter().sum::<u64>() as f64 / self.latencies_us.len() as f64
    }
}

/// Chaos-mode wiring for a client driver: an optional [`FaultPlane`] on
/// its transport and an optional [`StormSignal`] whose epoch bumps
/// force-fire the armed retransmission timers (the live analogue of the
/// simulator's synchronized retransmission storm).
#[derive(Clone, Default)]
pub struct ClientHooks {
    /// Fault table shared with the cluster's transports.
    pub faults: Option<Arc<FaultPlane>>,
    /// Retransmission-storm trigger, polled every loop iteration.
    pub storm: Option<Arc<StormSignal>>,
}

/// Runs one client against the cluster until the workload completes or
/// `deadline` passes. Returns what completed either way.
pub fn run_client(
    id: ClientId,
    topo: &Topology,
    workload: &Workload,
    deadline: Duration,
) -> ClientReport {
    run_client_with(id, topo, workload, deadline, &ClientHooks::default())
}

/// [`run_client`] with chaos hooks attached: the shared driver over the
/// single slot `id`, with the workload as its [`OpSource`].
pub fn run_client_with(
    id: ClientId,
    topo: &Topology,
    workload: &Workload,
    deadline: Duration,
    hooks: &ClientHooks,
) -> ClientReport {
    let mut source = WorkloadSource {
        workload,
        next_k: 0,
        started: Instant::now(),
    };
    let mut reports = drive(
        &[id],
        topo,
        &mut source,
        workload.retransmit,
        deadline,
        hooks,
    );
    reports.pop().expect("one report per slot")
}

/// One instruction from an [`OpSource`] to the multiplexed driver.
pub enum NextOp {
    /// Invoke `op`; `tag` identifies it in [`OpSource::done`].
    Invoke {
        /// Encoded operation body.
        op: Bytes,
        /// Whether to mark the request read-only (§5.1.3 fast path).
        read_only: bool,
        /// Opaque tag returned on completion.
        tag: u64,
    },
    /// Nothing issuable for this slot right now (an in-flight dependency
    /// must complete first); the driver polls again next iteration.
    Wait,
    /// The slot has no further work, ever.
    Finished,
}

/// A supply of operations for the multiplexed driver — the seam that
/// lets one event loop run the counter workload mix, the BFS Andrew
/// script and the benchmark's own sources.
pub trait OpSource {
    /// Next instruction for idle slot `slot`.
    fn next(&mut self, slot: usize, now: Instant) -> NextOp;
    /// Records the completion of the op tagged `tag` on `slot`; returns
    /// the earliest instant the slot may invoke again (pacing).
    fn done(&mut self, slot: usize, tag: u64, op: &CompletedOp, latency: Duration) -> Instant;
    /// True once every slot's work is complete (driver exit condition).
    fn finished(&self) -> bool;
}

/// One client's counter workload as an [`OpSource`]: an op cursor over
/// [`Workload::op`], with closed/open-loop pacing.
struct WorkloadSource<'a> {
    workload: &'a Workload,
    next_k: u64,
    started: Instant,
}

impl OpSource for WorkloadSource<'_> {
    fn next(&mut self, _slot: usize, _now: Instant) -> NextOp {
        if self.finished() {
            return NextOp::Finished;
        }
        let (op, read_only) = self.workload.op(self.next_k);
        NextOp::Invoke {
            op,
            read_only,
            tag: self.next_k,
        }
    }

    fn done(&mut self, _slot: usize, _tag: u64, _op: &CompletedOp, _lat: Duration) -> Instant {
        self.next_k += 1;
        match self.workload.mode {
            LoadMode::Closed { think } => Instant::now() + think,
            LoadMode::Open { interval } => self.started + interval * (self.next_k as u32),
        }
    }

    fn finished(&self) -> bool {
        self.next_k >= self.workload.ops
    }
}

/// Drives many logical clients from ONE thread over ONE transport, with
/// an [`OpSource`] deciding what each idle client invokes next.
///
/// The endpoint greets as every client id, so all of them share the
/// same four sockets: requests from different clients coalesce into
/// batched writes, and each replica's replies to the whole group come
/// back over a single connection and are drained in one wake-up. That
/// keeps the per-client socket and wake-up cost out of the load
/// generator, which is what lets the benchmark drive high client counts
/// without the generator itself becoming the bottleneck. Protocol
/// semantics are unchanged — each logical client is a full
/// [`ClientProxy`] with its own timestamps, retransmission timer, and
/// reply certificate.
pub fn run_mux_sources(
    ids: &[ClientId],
    topo: &Topology,
    source: &mut dyn OpSource,
    retransmit: Option<Duration>,
    deadline: Duration,
) -> Vec<ClientReport> {
    drive(
        ids,
        topo,
        source,
        retransmit,
        deadline,
        &ClientHooks::default(),
    )
}

/// One logical client of the driver.
struct Slot {
    proxy: ClientProxy,
    report: ClientReport,
    /// Invocation time and tag of the in-flight op (None = idle).
    invoked: Option<(Instant, u64)>,
    /// Earliest time the next op may be invoked (pacing).
    ready_at: Instant,
    /// The source reported this slot has no further work.
    halted: bool,
    /// The last retransmission-storm epoch this client acted on.
    storm_seen: u64,
}

impl Slot {
    fn new(client: ClientId, proxy: ClientProxy, ready_at: Instant, storm_seen: u64) -> Slot {
        Slot {
            report: ClientReport {
                client,
                completed: 0,
                retransmitted: 0,
                pending_retransmissions: 0,
                latencies_us: Vec::new(),
                results: Vec::new(),
                wall: Duration::ZERO,
            },
            proxy,
            invoked: None,
            ready_at,
            halted: false,
            storm_seen,
        }
    }

    /// Feeds `input` to the proxy of slot `i` (this one), applies what it
    /// emits, and books a completion into the report.
    fn step(&mut self, i: usize, input: Input, io: &mut Io, source: &mut dyn OpSource) {
        let (actions, done) = self.proxy.on_input(input);
        io.apply(i, actions);
        let Some(done) = done else { return };
        let (invoked, tag) = self.invoked.take().expect("completion without invocation");
        let latency = invoked.elapsed();
        self.report.completed += 1;
        if done.retransmissions > 0 {
            self.report.retransmitted += 1;
        }
        self.report.latencies_us.push(latency.as_micros() as u64);
        self.report
            .results
            .push((done.timestamp, done.result.to_vec()));
        self.ready_at = source.done(i, tag, &done, latency);
    }
}

/// The driver's I/O: one endpoint for every identity, and one timer
/// wheel whose ids are namespaced by slot index.
struct Io {
    endpoint: Endpoint,
    timers: RtTimers<(usize, TimerId)>,
    n: usize,
}

impl Io {
    fn apply(&mut self, slot: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => dispatch_send(&mut self.endpoint, to, &msg, self.n),
                Action::SetTimer { id, after } => self.timers.set((slot, id), after),
                Action::CancelTimer { id } => self.timers.cancel((slot, id)),
            }
        }
    }
}

/// The one client event loop behind [`run_client_with`] and
/// [`run_mux_sources`]: fire storms and due timers, invoke on every idle
/// ready slot, flush, poll, step every reply.
fn drive(
    ids: &[ClientId],
    topo: &Topology,
    source: &mut dyn OpSource,
    retransmit: Option<Duration>,
    deadline: Duration,
    hooks: &ClientHooks,
) -> Vec<ClientReport> {
    let keys = topo.keys();
    let mut client_config = topo.client_config();
    if let Some(rt) = retransmit {
        client_config.retransmit_timeout = SimDuration::from_micros(rt.as_micros() as u64);
    }
    let identities = ids.iter().map(|&c| NodeId::Client(c)).collect();
    let mut io = Io {
        endpoint: client_endpoint(identities, topo, hooks.faults.clone()),
        timers: RtTimers::new(),
        n: topo.replicas.len(),
    };
    let mut inbox = Vec::new();

    let started = Instant::now();
    let hard_deadline = started + deadline;
    let mut slots: Vec<Slot> = ids
        .iter()
        .map(|&c| {
            let epoch = hooks.storm.as_ref().map_or(0, |s| s.epoch(c));
            let proxy = ClientProxy::new(c, client_config.clone(), &keys);
            Slot::new(c, proxy, started, epoch)
        })
        .collect();
    let index: std::collections::HashMap<ClientId, usize> =
        ids.iter().enumerate().map(|(i, &c)| (c, i)).collect();

    while !source.finished() && Instant::now() < hard_deadline {
        // A storm epoch bump force-fires the client's armed timers: its
        // in-flight request rebroadcasts immediately, synchronized
        // across every client the storm covers.
        if let Some(storm) = &hooks.storm {
            for (i, slot) in slots.iter_mut().enumerate() {
                let epoch = storm.epoch(slot.report.client);
                if epoch != slot.storm_seen {
                    slot.storm_seen = epoch;
                    for (_, tid) in io.timers.drain_armed(|&(s, _)| s == i) {
                        slot.step(i, Input::Timer(tid), &mut io, source);
                    }
                }
            }
        }
        // Fire due client retransmission timers.
        while let Some((i, tid)) = io.timers.pop_due() {
            slots[i].step(i, Input::Timer(tid), &mut io, source);
        }
        // Invoke the next op on every idle, ready client.
        let now = Instant::now();
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.halted || slot.invoked.is_some() || now < slot.ready_at {
                continue;
            }
            match source.next(i, now) {
                NextOp::Invoke { op, read_only, tag } => {
                    slot.invoked = Some((Instant::now(), tag));
                    let actions = slot.proxy.invoke(op, read_only);
                    io.apply(i, actions);
                }
                NextOp::Wait => {}
                NextOp::Finished => slot.halted = true,
            }
        }
        // Send what this round produced, then take every reply that is
        // ready in one wake-up.
        io.endpoint.flush();
        let wait = poll_wait(&mut io.timers, next_wake(&slots, now));
        io.endpoint.poll(wait, &mut inbox);
        for payload in inbox.drain(..) {
            let mut slice = payload.as_slice();
            let Ok(msg) = Message::decode(&mut slice) else {
                continue;
            };
            let target = match &msg {
                Message::Reply(r) => match r.requester {
                    bft_types::Requester::Client(c) => index.get(&c).copied(),
                    _ => None,
                },
                _ => None,
            };
            if let Some(i) = target {
                slots[i].step(i, Input::Deliver(msg), &mut io, source);
            }
        }
    }

    let wall = started.elapsed();
    io.endpoint.flush();
    io.endpoint.shutdown();
    slots
        .into_iter()
        .map(|s| ClientReport {
            wall,
            pending_retransmissions: s.proxy.pending_retransmissions(),
            ..s.report
        })
        .collect()
}

/// Runs one worker thread per id in `ids` and collects every worker's
/// outcome. A panicking worker must not poison the whole run: the
/// survivors' results still come back, and the caller learns exactly
/// which worker died and what it said on the way down (instead of a
/// bare `.join().expect(..)` re-panic that discards both).
pub fn run_workers<T, F>(ids: &[ClientId], f: F) -> Vec<(ClientId, Result<T, String>)>
where
    T: Send,
    F: Fn(ClientId) -> T + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ids
            .iter()
            .map(|&c| (c, scope.spawn(move || f(c))))
            .collect();
        // Join everything manually: scope would re-raise the first panic
        // and abandon the other workers' reports.
        handles
            .into_iter()
            .map(|(c, h)| (c, h.join().map_err(panic_message)))
            .collect()
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// A client driver's endpoint: no listener, every replica dialed.
fn client_endpoint(
    identities: Vec<NodeId>,
    topo: &Topology,
    faults: Option<Arc<FaultPlane>>,
) -> Endpoint {
    let peers = topo
        .replicas
        .iter()
        .enumerate()
        .map(|(i, addr)| (NodeId::Replica(ReplicaId(i as u32)), *addr))
        .collect();
    Endpoint::new(identities, None, peers, faults).expect("open client endpoint")
}

/// The earliest pacing instant still ahead of `now` among idle, unhalted
/// slots: it bounds the poll, so `Closed { think }` and `Open { interval }`
/// pacing wake on time. A `ready_at` already past never shortens the
/// wait — that slot was offered an invocation at `now` and its source
/// answered `Wait`, so waking for it would only spin the loop — and a
/// slot with an op in flight wakes on its reply or its timer instead.
fn next_wake(slots: &[Slot], now: Instant) -> Option<Instant> {
    slots
        .iter()
        .filter(|s| !s.halted && s.invoked.is_none() && s.ready_at > now)
        .map(|s| s.ready_at)
        .min()
}

/// How long the driver may sleep in `poll`: until its next
/// retransmission timer or paced invocation (`wake`), and never more
/// than 20 ms (storms and `Wait` answers are rechecked between polls).
fn poll_wait(timers: &mut RtTimers<(usize, TimerId)>, wake: Option<Instant>) -> Duration {
    let idle = Duration::from_millis(20);
    let timer = timers.until_next().unwrap_or(idle).min(idle);
    match wake {
        Some(at) => timer.min(at.saturating_duration_since(Instant::now())),
        None => timer,
    }
}

/// Encodes `msg` once and queues it toward every destination `to` names.
fn dispatch_send(endpoint: &mut Endpoint, to: Target, msg: &Message, n: usize) {
    let frame = frame_bytes(msg);
    match to {
        Target::Replica(r) => endpoint.send(NodeId::Replica(r), &frame),
        Target::AllReplicas => {
            for i in 0..n {
                endpoint.send(NodeId::Replica(ReplicaId(i as u32)), &frame);
            }
        }
        Target::Requester(r) => endpoint.send(bft_core::authn::requester_node(r), &frame),
        Target::Node(node) => endpoint.send(node, &frame),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_mix_alternates_reads() {
        let w = Workload::closed(8);
        // read_every = 4: ops 3 and 7 are reads.
        let reads: Vec<bool> = (0..8).map(|k| w.op(k).1).collect();
        assert_eq!(
            reads,
            vec![false, false, false, true, false, false, false, true]
        );
        assert_eq!(w.writes(), 6);
        let (op, _) = w.op(0);
        assert_eq!(op.len(), 128);
        assert_eq!(op[0], CounterService::OP_INC);
        let (op, ro) = w.op(3);
        assert_eq!(op[0], CounterService::OP_GET);
        assert!(ro);
    }

    /// Regression for the worker-poisoning bug: one panicking worker
    /// used to take down the whole run via `.join().expect(..)`; now its
    /// panic message is captured and the other workers still report.
    #[test]
    fn run_workers_reports_panics_without_poisoning() {
        let ids: Vec<ClientId> = (0..3).map(ClientId).collect();
        let outcomes = run_workers(&ids, |c| {
            if c.0 == 1 {
                panic!("worker {} exploded", c.0);
            }
            c.0 * 10
        });
        assert_eq!(outcomes[0], (ClientId(0), Ok(0)));
        assert_eq!(outcomes[2], (ClientId(2), Ok(20)));
        let err = outcomes[1].1.as_ref().expect_err("worker 1 panicked");
        assert!(err.contains("worker 1 exploded"), "got: {err}");
    }

    #[test]
    fn report_percentiles() {
        let mut r = ClientReport {
            client: ClientId(0),
            completed: 4,
            retransmitted: 0,
            pending_retransmissions: 0,
            latencies_us: vec![40, 10, 30, 20],
            results: Vec::new(),
            wall: Duration::from_secs(2),
        };
        assert_eq!(r.latency_percentile_us(0.0), 10);
        assert_eq!(r.latency_percentile_us(1.0), 40);
        assert_eq!(r.latency_percentile_us(0.5), 30);
        assert!((r.latency_mean_us() - 25.0).abs() < 1e-9);
        assert!((r.ops_per_sec() - 2.0).abs() < 1e-9);
        r.latencies_us.clear();
        assert_eq!(r.latency_percentile_us(0.5), 0);
    }

    /// The poll-deadline rule: a future `ready_at` of an idle slot bounds
    /// the wait; a past one, a slot with an op in flight or a halted slot
    /// does not.
    #[test]
    fn paced_slot_bounds_the_poll_wait() {
        let topo = Topology::localhost(1, 1, 1);
        let keys = topo.keys();
        let now = Instant::now();
        let slot = |ready_at| {
            let proxy = ClientProxy::new(ClientId(0), topo.client_config(), &keys);
            Slot::new(ClientId(0), proxy, ready_at, 0)
        };
        let mut timers = RtTimers::<(usize, TimerId)>::new();
        let soon = now + Duration::from_millis(5);

        let paced = [slot(now - Duration::from_millis(1)), slot(soon)];
        assert_eq!(next_wake(&paced, now), Some(soon));
        assert!(poll_wait(&mut timers, next_wake(&paced, now)) <= Duration::from_millis(5));

        let past = [slot(now), slot(now - Duration::from_millis(1))];
        assert_eq!(next_wake(&past, now), None);
        assert_eq!(poll_wait(&mut timers, None), Duration::from_millis(20));

        let mut busy = slot(soon);
        busy.invoked = Some((now, 0));
        let mut halted = slot(soon);
        halted.halted = true;
        assert_eq!(next_wake(&[busy, halted], now), None);

        // An armed timer due before the paced slot still wins.
        timers.set((0, TimerId::ClientRetransmit), SimDuration::from_millis(1));
        let wait = poll_wait(&mut timers, Some(now + Duration::from_secs(1)));
        assert!(wait <= Duration::from_millis(1), "{wait:?}");
    }
}
