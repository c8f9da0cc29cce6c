//! The deterministic discrete-event cluster harness.
//!
//! Replicas and clients are pure event handlers; the harness owns the
//! virtual clock, the multicast channel automaton, per-node CPU accounting
//! (Chapter 7's cost model), timers, fault injection, and metrics. Given a
//! seed, every run is bit-identical.

use crate::behavior::Behavior;
use crate::metrics::Metrics;
use bft_core::{
    Action, ClientConfig, ClientProxy, Input, Replica, ReplicaConfig, ReplicaDriver, Target,
    TimerId,
};
use bft_fxhash::FastMap;
use bft_net::{Channel, ChannelConfig, EventWheel, Frame, LinkProfile};
use bft_statemachine::Service;
use bft_types::{
    Auth, ClientId, Message, NodeId, ReplicaId, Requester, SimDuration, SimTime, Timestamp,
};
use bytes::Bytes;

/// Cluster-level configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Replica protocol configuration.
    pub replica: ReplicaConfig,
    /// Network fault configuration.
    pub channel: ChannelConfig,
    /// Master seed.
    pub seed: u64,
    /// Number of client proxies to instantiate.
    pub clients: u32,
}

impl ClusterConfig {
    /// A small reliable cluster for tests.
    pub fn test(f: usize, clients: u32) -> Self {
        let mut replica = ReplicaConfig::test(f);
        replica.num_clients = clients.max(replica.num_clients);
        ClusterConfig {
            replica,
            channel: ChannelConfig::reliable(),
            seed: 42,
            clients,
        }
    }
}

/// A scheduled fault.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Change a replica's behavior.
    SetBehavior(ReplicaId, Behavior),
    /// Cut a node off from the network.
    Isolate(NodeId),
    /// Reconnect an isolated node.
    Reconnect(NodeId),
    /// Corrupt a state page at a replica (detected by recovery).
    CorruptPage(ReplicaId, u64, Bytes),
    /// Fire a replica's watchdog immediately (forced recovery).
    ForceRecovery(ReplicaId),
    /// Split the network into groups that cannot exchange messages; nodes
    /// (e.g. clients) absent from every group stay connected to all.
    Partition(Vec<Vec<NodeId>>),
    /// Remove any group partition.
    HealPartition,
    /// Degrade one directed link with loss/duplication/jitter/latency.
    SetLink(NodeId, NodeId, LinkProfile),
    /// Restore one directed link to the global channel configuration.
    ClearLink(NodeId, NodeId),
    /// Crash a replica (fail-stop): it stops processing, its timers die,
    /// and in-flight messages addressed to it are lost.
    Crash(ReplicaId),
    /// Reboot a crashed replica from durable state
    /// ([`bft_core::Replica::restart`]); it rejoins via retransmission and
    /// state transfer.
    Restart(ReplicaId),
    /// Fire a client's retransmission timer immediately: the client
    /// rebroadcasts its in-flight request to every replica (a
    /// retransmission storm when scheduled for many clients at once).
    ClientRetransmitNow(ClientId),
}

#[derive(Clone, Debug)]
enum EventKind {
    /// Delivery of a shared-body frame: an n-way broadcast schedules n of
    /// these holding one reference-counted message between them.
    Deliver {
        to: NodeId,
        frame: Frame,
        /// The destination's restart epoch at send time: a crash in
        /// between invalidates the delivery (the incarnation that owned
        /// the receive queue is gone).
        epoch: u64,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        gen: u64,
    },
    ClientStart {
        client: ClientId,
        /// The previous operation's result, when this event resumes a
        /// closed loop after think time (drivers may resolve their next
        /// operation from it).
        last: Option<Bytes>,
    },
    Fault(Fault),
}

/// A closed-loop workload driver: asked for the next operation whenever
/// the client is idle, fed the previous operation's result (scripted
/// workloads like the Andrew benchmark resolve handles from replies).
pub trait Driver {
    /// Returns the next `(operation, read_only)` or `None` when done.
    fn next(&mut self, last_result: Option<&Bytes>) -> Option<(Bytes, bool)>;
}

/// One operation spec for the closed-loop workload.
#[derive(Clone)]
pub struct OpGen {
    /// Produces the (operation bytes, read-only flag) for the k-th op.
    pub gen: std::rc::Rc<dyn Fn(u64) -> (Bytes, bool)>,
    /// Operations each client will issue.
    pub ops_per_client: u64,
    /// Client think time between an operation's completion and the next
    /// invocation (0 = tight closed loop). Long-running workloads use this
    /// to span a fault timeline instead of finishing before it starts.
    pub think_us: u64,
}

impl std::fmt::Debug for OpGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OpGen(ops={}, think={}us)",
            self.ops_per_client, self.think_us
        )
    }
}

impl OpGen {
    /// A fixed operation repeated `ops` times.
    pub fn fixed(op: Bytes, read_only: bool, ops: u64) -> Self {
        OpGen {
            gen: std::rc::Rc::new(move |_| (op.clone(), read_only)),
            ops_per_client: ops,
            think_us: 0,
        }
    }
}

struct OpGenDriver {
    gen: OpGen,
    issued: u64,
}

impl Driver for OpGenDriver {
    fn next(&mut self, _last: Option<&Bytes>) -> Option<(Bytes, bool)> {
        if self.issued >= self.gen.ops_per_client {
            return None;
        }
        let op = (self.gen.gen)(self.issued);
        self.issued += 1;
        Some(op)
    }
}

struct ClientSlot {
    proxy: ClientProxy,
    driver: Option<Box<dyn Driver>>,
    /// True once the driver returned `None`.
    done: bool,
    invoke_time: SimTime,
    results: Vec<(Timestamp, Bytes)>,
    /// Delay between completing one operation and invoking the next.
    think: SimDuration,
}

/// Wall-clock time spent inside each engine component, in nanoseconds of
/// *real* time (virtual-time metrics live in [`Metrics`]). Deliberately
/// not part of `Metrics`: fingerprints print `Metrics` and must stay
/// bit-identical whether or not profiling ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineProfile {
    /// Event-queue operations (push, peek, pop).
    pub sched_ns: u64,
    /// Replica protocol handlers (`Replica::on_input`).
    pub replica_ns: u64,
    /// Client proxy handlers and workload drivers.
    pub client_ns: u64,
    /// Channel routing (fault injection, latency draws) and frame setup.
    pub route_ns: u64,
    /// Cost-model evaluation (verify/generate CPU charges).
    pub cost_ns: u64,
}

impl EngineProfile {
    /// Total profiled nanoseconds across all components.
    pub fn total_ns(&self) -> u64 {
        self.sched_ns + self.replica_ns + self.client_ns + self.route_ns + self.cost_ns
    }
}

/// The simulated cluster.
pub struct Cluster<S: Service> {
    /// Configuration.
    pub config: ClusterConfig,
    time: SimTime,
    /// Future events, ordered by `(time, push order)` — a timer wheel
    /// over a slab arena (see [`bft_net::wheel`]); push-order ties keep
    /// same-tick dispatch deterministic.
    events: EventWheel<EventKind>,
    replicas: Vec<Replica<S>>,
    behaviors: Vec<Behavior>,
    clients: Vec<ClientSlot>,
    channel: Channel,
    busy_until: FastMap<NodeId, SimTime>,
    timer_gen: FastMap<(NodeId, TimerId), u64>,
    completions: Vec<SimTime>,
    /// Collected metrics.
    pub metrics: Metrics,
    /// Wall-clock component breakdown; populated only after
    /// [`Cluster::enable_profiling`].
    pub profile: EngineProfile,
    profile_enabled: bool,
}

impl<S: Service> Cluster<S> {
    /// Builds a cluster; `services` must have one entry per replica.
    pub fn new(config: ClusterConfig, services: Vec<S>) -> Self {
        assert_eq!(
            services.len(),
            config.replica.group.n,
            "one service instance per replica"
        );
        let keys = bft_core::ClusterKeys::generate(
            config.replica.group,
            config.replica.num_clients,
            config.replica.sig_modulus_bits,
            config.seed,
        );
        let replicas: Vec<Replica<S>> = services
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let mut r = Replica::new(
                    ReplicaId(i as u32),
                    config.replica.clone(),
                    s,
                    &keys,
                    config.seed,
                );
                // The simulator's crash model keeps the replica object
                // (and thus its in-memory engine) across reboots: exactly
                // MemStorage semantics. The hooks produce no actions and
                // touch no RNG, so fingerprints stay bit-identical.
                r.attach_storage(Box::new(bft_storage::MemStorage::new()));
                r
            })
            .collect();
        let client_cfg = ClientConfig::from_replica(&config.replica);
        let clients = (0..config.clients)
            .map(|c| ClientSlot {
                proxy: ClientProxy::new(ClientId(c), client_cfg.clone(), &keys),
                driver: None,
                done: true,
                invoke_time: SimTime::ZERO,
                results: Vec::new(),
                think: SimDuration::ZERO,
            })
            .collect();
        let channel = Channel::new(config.channel.clone(), config.seed ^ 0xc4a77e1);
        let behaviors = vec![Behavior::Correct; config.replica.group.n];
        let mut cluster = Cluster {
            time: SimTime::ZERO,
            events: EventWheel::new(),
            replicas,
            behaviors,
            clients,
            channel,
            busy_until: FastMap::default(),
            timer_gen: FastMap::default(),
            completions: Vec::new(),
            metrics: Metrics::default(),
            profile: EngineProfile::default(),
            profile_enabled: false,
            config,
        };
        // Boot every replica (through the driver trait the real-network
        // runtime shares).
        for i in 0..cluster.replicas.len() {
            let actions = cluster.replicas[i].boot();
            let node = NodeId::Replica(ReplicaId(i as u32));
            cluster.apply_actions(node, SimTime::ZERO, actions);
        }
        cluster
    }

    /// Sets a replica's behavior immediately.
    pub fn set_behavior(&mut self, r: ReplicaId, b: Behavior) {
        self.behaviors[r.0 as usize] = b;
    }

    /// Schedules a fault at a future virtual time.
    pub fn schedule_fault(&mut self, at: SimTime, fault: Fault) {
        self.push_event(at, EventKind::Fault(fault));
    }

    /// Assigns a closed-loop workload to every client and schedules the
    /// first invocations at time zero.
    pub fn set_workload(&mut self, gen: OpGen) {
        let think = SimDuration::from_micros(gen.think_us);
        for c in 0..self.clients.len() {
            self.clients[c].think = think;
            self.set_driver(
                ClientId(c as u32),
                Box::new(OpGenDriver {
                    gen: gen.clone(),
                    issued: 0,
                }),
            );
        }
    }

    /// Assigns a custom driver to one client and schedules its first
    /// invocation now.
    pub fn set_driver(&mut self, client: ClientId, driver: Box<dyn Driver>) {
        let slot = &mut self.clients[client.0 as usize];
        slot.driver = Some(driver);
        slot.done = false;
        self.push_event(self.time, EventKind::ClientStart { client, last: None });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Read access to a replica.
    pub fn replica(&self, i: usize) -> &Replica<S> {
        &self.replicas[i]
    }

    /// Mutable access to a replica (test assertions / fault setup).
    pub fn replica_mut(&mut self, i: usize) -> &mut Replica<S> {
        &mut self.replicas[i]
    }

    /// Results collected by a client, in completion order.
    pub fn client_results(&self, c: usize) -> &[(Timestamp, Bytes)] {
        &self.clients[c].results
    }

    /// Read access to the channel (stats, link state).
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// The behavior currently assigned to a replica.
    pub fn behavior(&self, r: usize) -> Behavior {
        self.behaviors[r]
    }

    /// Completion timestamps across all clients (for gap analysis).
    pub fn completion_times(&self) -> &[SimTime] {
        &self.completions
    }

    /// Total clients still busy or holding unfinished drivers.
    pub fn outstanding_ops(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| u64::from(!c.done || c.proxy.busy()))
            .sum()
    }

    /// Turns on the wall-clock component breakdown (see
    /// [`Cluster::profile`]). Off by default: the timing calls cost a few
    /// nanoseconds per event, and benchmarks want clean numbers unless
    /// they ask for the breakdown.
    pub fn enable_profiling(&mut self) {
        self.profile_enabled = true;
    }

    #[inline]
    fn prof_start(&self) -> Option<std::time::Instant> {
        self.profile_enabled.then(std::time::Instant::now)
    }

    #[inline]
    fn prof_end(acc: &mut u64, t: Option<std::time::Instant>) {
        if let Some(t) = t {
            *acc += t.elapsed().as_nanos() as u64;
        }
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let t = self.prof_start();
        self.events.push(at, kind);
        Self::prof_end(&mut self.profile.sched_ns, t);
    }

    /// Pops the next event if it is due at or before `deadline`.
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, EventKind)> {
        let t = self.prof_start();
        let ev = match self.events.next_at() {
            Some(at) if at <= deadline => Some(self.events.pop().expect("positioned")),
            _ => None,
        };
        Self::prof_end(&mut self.profile.sched_ns, t);
        ev
    }

    /// Runs until `deadline` or until the event queue empties.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((at, kind)) = self.pop_due(deadline) {
            self.time = at;
            self.metrics.events_processed += 1;
            self.dispatch(at, kind);
        }
        self.time = self.time.max(deadline);
        self.metrics.end_time = self.time;
    }

    /// Runs until all client workloads complete or `deadline` passes.
    /// Returns true when every operation completed.
    pub fn run_to_completion(&mut self, deadline: SimTime) -> bool {
        loop {
            if self.outstanding_ops() == 0 {
                break;
            }
            let Some((at, kind)) = self.pop_due(deadline) else {
                break;
            };
            self.time = at;
            self.metrics.events_processed += 1;
            self.dispatch(at, kind);
        }
        self.metrics.end_time = self.time;
        self.outstanding_ops() == 0
    }

    fn dispatch(&mut self, at: SimTime, kind: EventKind) {
        match kind {
            EventKind::Deliver { to, frame, epoch } => {
                if epoch != self.channel.epoch(to) {
                    return; // The receiving incarnation crashed meanwhile.
                }
                self.deliver(to, frame, at)
            }
            EventKind::Timer { node, id, gen } => {
                let current = self.timer_gen.get(&(node, id)).copied().unwrap_or(0);
                if gen != current {
                    return; // Canceled or re-armed (lazy tombstone check).
                }
                self.handle_input(node, Input::Timer(id), at);
            }
            EventKind::ClientStart { client, last } => self.client_advance(client, at, last),
            EventKind::Fault(f) => self.apply_fault(f, at),
        }
    }

    /// Invalidates every armed timer of a node (crash semantics).
    fn cancel_node_timers(&mut self, node: NodeId) {
        for ((n, _), gen) in self.timer_gen.iter_mut() {
            if *n == node {
                *gen += 1;
            }
        }
    }

    fn apply_fault(&mut self, fault: Fault, at: SimTime) {
        match fault {
            Fault::SetBehavior(r, b) => self.behaviors[r.0 as usize] = b,
            Fault::Isolate(n) => self.channel.isolate(n),
            Fault::Reconnect(n) => self.channel.reconnect(n),
            Fault::CorruptPage(r, page, value) => {
                // Clamp into the replica's page range (service pages plus
                // the client-table page) so schedules stay valid across
                // services with different state sizes.
                let replica = &mut self.replicas[r.0 as usize];
                let page = page % replica.debug_num_pages();
                replica.corrupt_state_page(page, value);
            }
            Fault::ForceRecovery(r) => {
                self.handle_input(NodeId::Replica(r), Input::WatchdogInterrupt, at);
            }
            Fault::Partition(groups) => self.channel.partition(&groups),
            Fault::HealPartition => self.channel.heal_partition(),
            Fault::SetLink(from, to, profile) => self.channel.set_link(from, to, profile),
            Fault::ClearLink(from, to) => self.channel.clear_link(from, to),
            Fault::Crash(r) => {
                let node = NodeId::Replica(r);
                self.behaviors[r.0 as usize] = Behavior::Crashed;
                self.channel.crash(node);
                self.cancel_node_timers(node);
                self.busy_until.remove(&node);
            }
            Fault::Restart(r) => {
                let node = NodeId::Replica(r);
                self.behaviors[r.0 as usize] = Behavior::Correct;
                // Stray timers from the previous incarnation must not fire
                // into the rebooted one.
                self.cancel_node_timers(node);
                let actions = self.replicas[r.0 as usize].reboot();
                self.apply_actions(node, at, actions);
            }
            Fault::ClientRetransmitNow(c) => {
                if self.clients[c.0 as usize].proxy.busy() {
                    self.handle_input(
                        NodeId::Client(c),
                        Input::Timer(TimerId::ClientRetransmit),
                        at,
                    );
                }
            }
        }
    }

    fn client_advance(&mut self, client: ClientId, at: SimTime, last: Option<Bytes>) {
        let slot = &mut self.clients[client.0 as usize];
        if slot.done || slot.proxy.busy() {
            return;
        }
        let Some(driver) = slot.driver.as_mut() else {
            slot.done = true;
            return;
        };
        match driver.next(last.as_ref()) {
            Some((op, read_only)) => {
                slot.invoke_time = at;
                let actions = slot.proxy.invoke(op, read_only);
                self.apply_actions(NodeId::Client(client), at, actions);
            }
            None => slot.done = true,
        }
    }

    /// Cost of verifying a message's authentication, per the cost model.
    fn verify_cost(&self, msg: &Message, size: usize) -> f64 {
        let cost = self.channel.cost();
        let auth_cost = |a: &Auth| match a {
            Auth::None => 0.0,
            Auth::Mac(_) | Auth::Authenticator(_) => cost.mac.eval(64),
            Auth::Signature(_) | Auth::CounterSig(_) => cost.verify_us,
        };
        let base = cost.recv.eval(size) + cost.digest.eval(size);
        base + match msg {
            Message::Request(m) => auth_cost(&m.auth),
            Message::Reply(m) => auth_cost(&m.auth),
            Message::PrePrepare(m) => auth_cost(&m.auth),
            Message::Prepare(m) => auth_cost(&m.auth),
            Message::Commit(m) => auth_cost(&m.auth),
            Message::Checkpoint(m) => auth_cost(&m.auth),
            Message::ViewChange(m) => auth_cost(&m.auth),
            Message::ViewChangeAck(m) => auth_cost(&m.auth),
            Message::NewView(m) => auth_cost(&m.auth),
            Message::NotCommitted(m) => auth_cost(&m.auth),
            Message::NotCommittedPrimary(m) => auth_cost(&m.auth),
            Message::ViewChangePk(m) => auth_cost(&m.auth),
            Message::NewViewPk(m) => auth_cost(&m.auth),
            Message::StatusActive(m) => auth_cost(&m.auth),
            Message::StatusPending(m) => auth_cost(&m.auth),
            Message::Fetch(m) => auth_cost(&m.auth),
            Message::MetaData(m) => auth_cost(&m.auth),
            Message::Data(_) => 0.0,
            Message::NewKey(m) => auth_cost(&m.auth),
            Message::QueryStable(m) => auth_cost(&m.auth),
            Message::ReplyStable(m) => auth_cost(&m.auth),
        }
    }

    /// Cost of generating the authentication on an outgoing message.
    fn generate_cost(&self, msg: &Message, size: usize) -> f64 {
        let cost = self.channel.cost();
        let auth_cost = |a: &Auth| match a {
            Auth::None => 0.0,
            Auth::Mac(_) => cost.mac.eval(64),
            Auth::Authenticator(a) => a.len() as f64 * cost.mac.eval(64),
            Auth::Signature(_) | Auth::CounterSig(_) => cost.sign_us,
        };
        let base = cost.digest.eval(size);
        base + match msg {
            Message::Request(m) => auth_cost(&m.auth),
            Message::Reply(m) => auth_cost(&m.auth),
            Message::PrePrepare(m) => auth_cost(&m.auth),
            Message::Prepare(m) => auth_cost(&m.auth),
            Message::Commit(m) => auth_cost(&m.auth),
            Message::Checkpoint(m) => auth_cost(&m.auth),
            Message::ViewChange(m) => auth_cost(&m.auth),
            Message::ViewChangeAck(m) => auth_cost(&m.auth),
            Message::NewView(m) => auth_cost(&m.auth),
            Message::NotCommitted(m) => auth_cost(&m.auth),
            Message::NotCommittedPrimary(m) => auth_cost(&m.auth),
            Message::ViewChangePk(m) => auth_cost(&m.auth),
            Message::NewViewPk(m) => auth_cost(&m.auth),
            Message::StatusActive(m) => auth_cost(&m.auth),
            Message::StatusPending(m) => auth_cost(&m.auth),
            Message::Fetch(m) => auth_cost(&m.auth),
            Message::MetaData(m) => auth_cost(&m.auth),
            Message::Data(_) => 0.0,
            Message::NewKey(m) => auth_cost(&m.auth),
            Message::QueryStable(m) => auth_cost(&m.auth),
            Message::ReplyStable(m) => auth_cost(&m.auth),
        }
    }

    fn deliver(&mut self, to: NodeId, frame: Frame, at: SimTime) {
        // The frame carries the size measured once at send time; delivery
        // re-encodes nothing.
        let size = frame.wire_size();
        self.metrics
            .record_message(frame.message().type_name(), size);
        if let NodeId::Replica(r) = to {
            if !self.behaviors[r.0 as usize].receives() {
                return; // Crashed.
            }
        }
        let t = self.prof_start();
        let verify_us = self.verify_cost(frame.message(), size);
        Self::prof_end(&mut self.profile.cost_ns, t);
        // The last delivery of a broadcast takes the body without copying;
        // earlier ones clone structurally (payloads and cached digests are
        // refcount-shared either way).
        self.handle_input_with_cost(to, Input::Deliver(frame.into_message()), at, verify_us);
    }

    fn handle_input(&mut self, node: NodeId, input: Input, at: SimTime) {
        self.handle_input_with_cost(node, input, at, 0.0);
    }

    fn handle_input_with_cost(&mut self, node: NodeId, input: Input, at: SimTime, pre_us: f64) {
        // CPU serialization: a node processes one event at a time.
        let start = self
            .busy_until
            .get(&node)
            .copied()
            .unwrap_or(SimTime::ZERO)
            .max(at);
        let mut cpu_us = pre_us;
        let actions = match node {
            NodeId::Replica(r) => {
                let idx = r.0 as usize;
                if !self.behaviors[idx].receives() {
                    return;
                }
                let t = self.prof_start();
                let before = self.replicas[idx].stats;
                let actions = self.replicas[idx].step(input);
                let after = self.replicas[idx].stats;
                Self::prof_end(&mut self.profile.replica_ns, t);
                let executed = after.requests_executed - before.requests_executed;
                cpu_us += executed as f64 * self.channel.cost().execute_us;
                // Checkpoint cost: digest of modified pages, approximated
                // by one page digest per checkpoint (§8.4.1 measures the
                // real cost via the criterion bench).
                let ckpts = after.checkpoints_taken - before.checkpoints_taken;
                cpu_us += ckpts as f64 * self.channel.cost().digest.eval(4096);
                actions
            }
            NodeId::Client(c) => {
                let idx = c.0 as usize;
                let t = self.prof_start();
                let (actions, done) = self.clients[idx].proxy.on_input(input);
                Self::prof_end(&mut self.profile.client_ns, t);
                // Apply this event's actions (including the CancelTimer of
                // a completed operation) BEFORE the closed loop invokes the
                // next operation, which arms a fresh retransmit timer.
                let done_at = start + SimDuration::from_micros(cpu_us as u64);
                self.busy_until.insert(node, done_at);
                self.apply_actions(node, done_at, actions);
                if let Some(op) = done {
                    let latency = start.since(self.clients[idx].invoke_time);
                    self.clients[idx]
                        .results
                        .push((op.timestamp, op.result.clone()));
                    self.metrics
                        .record_completion(start, latency, op.retransmissions > 0);
                    self.completions.push(start);
                    // Closed loop: ask the driver for the next operation,
                    // after the configured think time when one is set.
                    let think = self.clients[idx].think;
                    if think > SimDuration::ZERO {
                        self.push_event(
                            done_at + think,
                            EventKind::ClientStart {
                                client: c,
                                last: Some(op.result),
                            },
                        );
                    } else {
                        self.client_advance(c, done_at, Some(op.result));
                    }
                }
                return;
            }
        };
        let done_at = start + SimDuration::from_micros(cpu_us as u64);
        self.busy_until.insert(node, done_at);
        self.apply_actions(node, done_at, actions);
    }

    fn apply_actions(&mut self, from: NodeId, at: SimTime, actions: Vec<Action>) {
        let mut send_at = at;
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let dests: Vec<NodeId> = match to {
                        Target::Replica(r) => vec![NodeId::Replica(r)],
                        Target::AllReplicas => self
                            .config
                            .replica
                            .group
                            .replicas()
                            .map(NodeId::Replica)
                            .filter(|n| *n != from)
                            .collect(),
                        Target::Requester(Requester::Client(c)) => vec![NodeId::Client(c)],
                        Target::Requester(Requester::Replica(r)) => vec![NodeId::Replica(r)],
                        Target::Node(n) => vec![n],
                    };
                    // Fault injection may rewrite the message per
                    // destination; correct senders share one frame (body
                    // encoded and refcounted once) across the whole fan-out.
                    let mutator = match from {
                        NodeId::Replica(r) => {
                            let b = self.behaviors[r.0 as usize];
                            (b != Behavior::Correct).then_some((r.0 as usize, b))
                        }
                        NodeId::Client(_) => None,
                    };
                    let (shared, mutation_src) = match mutator {
                        None => (Some(Frame::new(msg)), None),
                        Some(_) => (None, Some(msg)),
                    };
                    // Authentication generation is charged once per send
                    // action (an authenticator is computed once for a
                    // multicast).
                    let mut first = true;
                    for dest in dests {
                        let frame = if let Some(frame) = &shared {
                            frame.clone()
                        } else {
                            let (idx, b) = mutator.expect("set when no shared frame");
                            let base = mutation_src.as_ref().expect("kept for mutation").clone();
                            match b.mutate(&mut self.replicas[idx], dest, base) {
                                Some(m) => Frame::new(m),
                                None => continue,
                            }
                        };
                        if first {
                            let t = self.prof_start();
                            let gen_us = self.generate_cost(frame.message(), frame.wire_size());
                            Self::prof_end(&mut self.profile.cost_ns, t);
                            send_at = send_at + SimDuration::from_micros(gen_us as u64);
                            first = false;
                        }
                        let t = self.prof_start();
                        let deliveries =
                            self.channel
                                .route(send_at, from, &[dest], frame.wire_size());
                        Self::prof_end(&mut self.profile.route_ns, t);
                        for d in deliveries {
                            let epoch = self.channel.epoch(d.to);
                            self.push_event(
                                d.at,
                                EventKind::Deliver {
                                    to: d.to,
                                    frame: frame.clone(),
                                    epoch,
                                },
                            );
                        }
                    }
                    // Sender CPU advances past the sends.
                    self.busy_until.insert(from, send_at);
                }
                Action::SetTimer { id, after } => {
                    let gen = self.timer_gen.entry((from, id)).or_insert(0);
                    *gen += 1;
                    let gen = *gen;
                    self.push_event(
                        at + after,
                        EventKind::Timer {
                            node: from,
                            id,
                            gen,
                        },
                    );
                }
                Action::CancelTimer { id } => {
                    *self.timer_gen.entry((from, id)).or_insert(0) += 1;
                }
            }
        }
    }
}

/// Builds a cluster of [`bft_statemachine::CounterService`] replicas — the
/// workhorse configuration for protocol tests.
pub fn counter_cluster(config: ClusterConfig) -> Cluster<bft_statemachine::CounterService> {
    let n = config.replica.group.n;
    let clients = config.replica.num_clients;
    let services = (0..n)
        .map(|_| bft_statemachine::CounterService::new(clients + n as u32))
        .collect();
    Cluster::new(config, services)
}

/// Builds a cluster of [`bft_statemachine::MemService`] replicas — the
/// micro-benchmark configuration of §8.1.
pub fn mem_cluster(config: ClusterConfig, pages: u64) -> Cluster<bft_statemachine::MemService> {
    let n = config.replica.group.n;
    let services = (0..n)
        .map(|_| bft_statemachine::MemService::new(pages))
        .collect();
    Cluster::new(config, services)
}
