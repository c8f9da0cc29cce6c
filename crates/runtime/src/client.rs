//! The real-network client: a [`bft_core::ClientProxy`] over the TCP
//! transport, plus the open/closed-loop load generator `pbft-client`
//! and the `realnet` benchmark share.
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

/// [`run_client`] with chaos hooks attached.
pub fn run_client_with(
    id: ClientId,
    topo: &Topology,
    workload: &Workload,
    deadline: Duration,
    hooks: &ClientHooks,
) -> ClientReport {
    let keys = topo.keys();
    let mut client_config = topo.client_config();
    if let Some(rt) = workload.retransmit {
        client_config.retransmit_timeout = SimDuration::from_micros(rt.as_micros() as u64);
    }
    let mut proxy = ClientProxy::new(id, client_config, &keys);
    let mut endpoint = client_endpoint(vec![NodeId::Client(id)], topo, hooks.faults.clone());
    let mut inbox = Vec::new();
    let mut timers = RtTimers::<TimerId>::new();
    let mut storm_seen = hooks.storm.as_ref().map(|s| s.epoch(id)).unwrap_or(0);

    let started = Instant::now();
    let hard_deadline = started + deadline;
    let mut report = ClientReport {
        client: id,
        completed: 0,
        retransmitted: 0,
        latencies_us: Vec::with_capacity(workload.ops as usize),
        results: Vec::with_capacity(workload.ops as usize),
        wall: Duration::ZERO,
    };

    'ops: for k in 0..workload.ops {
        // Pacing.
        match workload.mode {
            LoadMode::Closed { think } => {
                if k > 0 && !think.is_zero() {
                    std::thread::sleep(think);
                }
            }
            LoadMode::Open { interval } => {
                let slot = started + interval * (k as u32);
                let now = Instant::now();
                if slot > now {
                    std::thread::sleep(slot - now);
                }
            }
        }
        let (op, read_only) = workload.op(k);
        let invoked = Instant::now();
        let actions = proxy.invoke(op, read_only);
        apply_client_actions(actions, &mut endpoint, &mut timers, topo.replicas.len());

        // Wait for the reply certificate.
        let done: Option<CompletedOp> = 'wait: loop {
            if Instant::now() >= hard_deadline {
                break None;
            }
            // A storm epoch bump force-fires every armed timer: the
            // in-flight request rebroadcasts immediately, synchronized
            // across every client the storm covers.
            if let Some(storm) = &hooks.storm {
                let epoch = storm.epoch(id);
                if epoch != storm_seen {
                    storm_seen = epoch;
                    let mut finished = None;
                    for timer in timers.drain_armed() {
                        let (actions, done) = proxy.on_input(Input::Timer(timer));
                        apply_client_actions(
                            actions,
                            &mut endpoint,
                            &mut timers,
                            topo.replicas.len(),
                        );
                        finished = finished.or(done);
                    }
                    if finished.is_some() {
                        break finished;
                    }
                }
            }
            // Client retransmission timer.
            if let Some(timer) = timers.pop_due() {
                let (actions, done) = proxy.on_input(Input::Timer(timer));
                apply_client_actions(actions, &mut endpoint, &mut timers, topo.replicas.len());
                if done.is_some() {
                    break done;
                }
            }
            endpoint.flush();
            endpoint.poll(poll_wait(&mut timers), &mut inbox);
            for payload in inbox.drain(..) {
                let mut slice = payload.as_slice();
                let Ok(msg) = Message::decode(&mut slice) else {
                    continue;
                };
                let (actions, done) = proxy.on_input(Input::Deliver(msg));
                apply_client_actions(actions, &mut endpoint, &mut timers, topo.replicas.len());
                if done.is_some() {
                    break 'wait done;
                }
            }
        };
        match done {
            Some(op) => {
                report.completed += 1;
                if op.retransmissions > 0 {
                    report.retransmitted += 1;
                }
                report
                    .latencies_us
                    .push(invoked.elapsed().as_micros() as u64);
                report.results.push((op.timestamp, op.result.to_vec()));
            }
            None => break 'ops, // Deadline: report what we have.
        }
    }
    report.wall = started.elapsed();
    endpoint.flush();
    endpoint.shutdown();
    report
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

/// A supply of operations for [`run_mux_sources`] — the seam that lets
/// the multiplexed driver run both the counter benchmark mix and the
/// BFS Andrew script without duplicating the event loop.
pub trait OpSource {
    /// Next instruction for idle slot `slot`.
    fn next(&mut self, slot: usize, now: Instant) -> NextOp;
    /// Records the completion of the op tagged `tag` on `slot`; returns
    /// the earliest instant the slot may invoke again (pacing).
    fn done(&mut self, slot: usize, tag: u64, op: &CompletedOp, latency: Duration) -> Instant;
    /// True once every slot's work is complete (driver exit condition).
    fn finished(&self) -> bool;
}

/// Drives many logical clients from ONE thread over ONE transport.
///
/// The endpoint greets as every client id, so all of them share the
/// same four sockets: requests from different clients coalesce into
/// batched writes, and each replica's replies to the whole group come
/// back over a single connection and are drained in one wake-up. That
/// keeps the per-client socket and wake-up cost out of the load
/// generator, which is what lets the benchmark drive high client counts
/// without the generator itself becoming the bottleneck. Protocol
/// semantics are unchanged — each logical
/// client is a full [`ClientProxy`] with its own timestamps,
/// retransmission timer, and reply certificate.
pub fn run_mux_clients(
    ids: &[ClientId],
    topo: &Topology,
    workload: &Workload,
    deadline: Duration,
) -> Vec<ClientReport> {
    /// The counter benchmark mix as an [`OpSource`]: per-slot op cursors
    /// over [`Workload::op`], with closed/open-loop pacing.
    struct WorkloadSource<'a> {
        workload: &'a Workload,
        next_k: Vec<u64>,
        started: Instant,
    }
    impl OpSource for WorkloadSource<'_> {
        fn next(&mut self, slot: usize, _now: Instant) -> NextOp {
            let k = self.next_k[slot];
            if k >= self.workload.ops {
                return NextOp::Finished;
            }
            let (op, read_only) = self.workload.op(k);
            NextOp::Invoke {
                op,
                read_only,
                tag: k,
            }
        }
        fn done(&mut self, slot: usize, _tag: u64, _op: &CompletedOp, _lat: Duration) -> Instant {
            self.next_k[slot] += 1;
            match self.workload.mode {
                LoadMode::Closed { think } => Instant::now() + think,
                LoadMode::Open { interval } => self.started + interval * (self.next_k[slot] as u32),
            }
        }
        fn finished(&self) -> bool {
            self.next_k.iter().all(|&k| k >= self.workload.ops)
        }
    }
    let mut source = WorkloadSource {
        workload,
        next_k: vec![0; ids.len()],
        started: Instant::now(),
    };
    run_mux_sources(ids, topo, &mut source, workload.retransmit, deadline)
}

/// The generic multiplexed driver behind [`run_mux_clients`]: one thread,
/// one multi-identity transport, one timer wheel, and an [`OpSource`]
/// deciding what each idle logical client invokes next.
pub fn run_mux_sources(
    ids: &[ClientId],
    topo: &Topology,
    source: &mut dyn OpSource,
    retransmit: Option<Duration>,
    deadline: Duration,
) -> Vec<ClientReport> {
    struct Slot {
        proxy: ClientProxy,
        report: ClientReport,
        /// Invocation time and tag of the in-flight op (None = idle).
        invoked: Option<(Instant, u64)>,
        /// Earliest time the next op may be invoked (pacing).
        ready_at: Instant,
        /// The source reported this slot has no further work.
        halted: bool,
    }

    /// Books a completed op into its slot and paces the next invocation.
    fn record_completion(slot: &mut Slot, i: usize, source: &mut dyn OpSource, done: CompletedOp) {
        let (invoked, tag) = slot.invoked.take().expect("completion without invocation");
        let latency = invoked.elapsed();
        slot.report.completed += 1;
        if done.retransmissions > 0 {
            slot.report.retransmitted += 1;
        }
        slot.report.latencies_us.push(latency.as_micros() as u64);
        slot.report
            .results
            .push((done.timestamp, done.result.to_vec()));
        slot.ready_at = source.done(i, tag, &done, latency);
    }

    let keys = topo.keys();
    let mut client_config = topo.client_config();
    if let Some(rt) = retransmit {
        client_config.retransmit_timeout = SimDuration::from_micros(rt.as_micros() as u64);
    }
    let identities = ids.iter().map(|&c| NodeId::Client(c)).collect();
    let mut endpoint = client_endpoint(identities, topo, None);
    let mut inbox = Vec::new();
    let n = topo.replicas.len();
    let mut timers = RtTimers::<(usize, TimerId)>::new();

    let started = Instant::now();
    let hard_deadline = started + deadline;
    let mut slots: Vec<Slot> = ids
        .iter()
        .map(|&c| Slot {
            proxy: ClientProxy::new(c, client_config.clone(), &keys),
            report: ClientReport {
                client: c,
                completed: 0,
                retransmitted: 0,
                latencies_us: Vec::new(),
                results: Vec::new(),
                wall: Duration::ZERO,
            },
            invoked: None,
            ready_at: started,
            halted: false,
        })
        .collect();
    let index: std::collections::HashMap<ClientId, usize> =
        ids.iter().enumerate().map(|(i, &c)| (c, i)).collect();

    while !source.finished() && Instant::now() < hard_deadline {
        // Fire due client retransmission timers.
        while let Some((i, tid)) = timers.pop_due() {
            let (actions, done) = slots[i].proxy.on_input(Input::Timer(tid));
            apply_mux_actions(i, actions, &mut endpoint, &mut timers, n);
            if let Some(done) = done {
                record_completion(&mut slots[i], i, source, done);
            }
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
                    apply_mux_actions(i, actions, &mut endpoint, &mut timers, n);
                }
                NextOp::Wait => {}
                NextOp::Finished => slot.halted = true,
            }
        }
        // Send what this round produced, then take every reply that is
        // ready in one wake-up.
        endpoint.flush();
        endpoint.poll(poll_wait(&mut timers), &mut inbox);
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
                let (actions, done) = slots[i].proxy.on_input(Input::Deliver(msg));
                apply_mux_actions(i, actions, &mut endpoint, &mut timers, n);
                if let Some(done) = done {
                    record_completion(&mut slots[i], i, source, done);
                }
            }
        }
    }

    let wall = started.elapsed();
    for slot in &mut slots {
        slot.report.wall = wall;
    }
    endpoint.flush();
    endpoint.shutdown();
    slots.into_iter().map(|s| s.report).collect()
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

/// How long a driver may sleep in `poll`: until its next retransmission
/// timer, and never more than 20 ms (pacing and storms are checked
/// between polls).
fn poll_wait<T: Copy + Eq + std::hash::Hash>(timers: &mut RtTimers<T>) -> Duration {
    let idle = Duration::from_millis(20);
    timers.until_next().unwrap_or(idle).min(idle)
}

fn apply_client_actions(
    actions: Vec<Action>,
    endpoint: &mut Endpoint,
    timers: &mut RtTimers<TimerId>,
    n: usize,
) {
    for action in actions {
        match action {
            Action::Send { to, msg } => dispatch_send(endpoint, to, &msg, n),
            Action::SetTimer { id, after } => timers.set(id, after),
            Action::CancelTimer { id } => timers.cancel(id),
        }
    }
}

/// [`apply_client_actions`] for the multiplexed driver: timer ids are
/// namespaced by the slot index so many proxies share one timer wheel.
fn apply_mux_actions(
    slot: usize,
    actions: Vec<Action>,
    endpoint: &mut Endpoint,
    timers: &mut RtTimers<(usize, TimerId)>,
    n: usize,
) {
    for action in actions {
        match action {
            Action::Send { to, msg } => dispatch_send(endpoint, to, &msg, n),
            Action::SetTimer { id, after } => timers.set((slot, id), after),
            Action::CancelTimer { id } => timers.cancel((slot, id)),
        }
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
}
