//! The workload replayed in-process, one span per call into each layer.
//!
//! Four replicas and the workload's clients are stepped directly through
//! `ReplicaDriver` and `ClientProxy` on this thread, under a small seeded
//! scheduler (virtual per-message delay, per-link FIFO). Nothing here is
//! timed end to end: the replay exists to give
//!
//! * exact, seed-repeatable counts — messages, bytes, storage records
//!   and barriers per committed op;
//! * wall time inside each layer's functions, from spans that nest the
//!   way the calls do (`core.step` ⊃ `service.execute`, `storage.append`,
//!   `storage.sync`, `storage.snapshot`), so a layer's self time excludes
//!   the layers it calls;
//! * the workload's own messages, for the `types` replay to encode,
//!   decode and frame.
//!
//! Timers are not run: with no loss and no faults nothing in the normal
//! case waits on one (the periodic status multicast of the live nodes is
//! therefore not in these counts).

use crate::cluster::{base_topology, counter_service, StorageCounts, Traced, TracedStorage};
use crate::spans::Recorder;
use crate::workload::{
    andrew_expected, AndrewFeed, CounterFeed, FeedStep, Mix, OpFeed, SplitMix, Workload,
    BFS_BUCKETS, CLIENTS,
};
use bft_core::{Action, ClientProxy, Input, Replica, ReplicaDriver, Target};
use bft_statemachine::Service;
use bft_storage::WalStorage;
use bft_types::{ClientId, Message, NodeId, ReplicaId};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::rc::Rc;

/// Counter ops replayed per client on the saturated workloads.
pub const OPS_PER_CLIENT: u64 = 60;
/// Counter ops replayed, one at a time, for the open-loop workload.
pub const OPEN_OPS: u64 = 1500;
/// Andrew scale replayed (the live workload's script, shortened).
pub const ANDREW_REPLAY_SCALE: u32 = 6;

/// One message a node sent, and to how many destinations.
pub struct Sent {
    pub msg: Message,
    pub dests: u32,
}

/// What a replay produced besides its spans.
pub struct Replayed {
    /// Client ops completed with a correct reply.
    pub ops: u64,
    pub wrong: u64,
    /// Messages delivered and their encoded bytes.
    pub msgs: u64,
    pub bytes: u64,
    pub by_type: BTreeMap<&'static str, (u64, u64)>,
    pub sends: Vec<Sent>,
    /// Summed over the four replicas.
    pub storage: StorageCounts,
    /// Every replica ended on the same state digest.
    pub converged: bool,
}

enum Event {
    Deliver { to: NodeId, msg: Message },
    Invoke { slot: usize },
}

struct Harness<S: Service, F: OpFeed> {
    replicas: Vec<Replica<S>>,
    proxies: Vec<ClientProxy>,
    feed: F,
    rec: Recorder,
    rng: SplitMix,
    now: u64,
    seq: u64,
    queue: BTreeMap<(u64, u64), Event>,
    link_last: HashMap<(NodeId, NodeId), u64>,
    /// Tag of each client's op in flight.
    tags: Vec<Option<u64>>,
    /// Slots the feed told to wait; re-polled after every completion.
    waiting: Vec<usize>,
    /// Virtual µs a client pauses between ops (spreads the open-loop
    /// mirror out so ops do not batch).
    think_us: u64,
    budget: u64,
    out: Replayed,
}

impl<S: Service, F: OpFeed> Harness<S, F> {
    fn push(&mut self, at: u64, event: Event) {
        self.seq += 1;
        self.queue.insert((at, self.seq), event);
    }

    /// Queues `msg` from `from` to `to` after a seeded delay, never
    /// overtaking an earlier message on the same link.
    fn post(&mut self, from: NodeId, to: NodeId, msg: Message) {
        let delay = 100 + self.rng.next_u64() % 50;
        let last = self.link_last.entry((from, to)).or_insert(0);
        let at = (self.now + delay).max(*last + 1);
        *last = at;
        self.push(at, Event::Deliver { to, msg });
    }

    fn apply(&mut self, from: NodeId, actions: Vec<Action>) {
        let n = self.replicas.len() as u32;
        for action in actions {
            // Timer actions are dropped: see the module comment.
            let Action::Send { to, msg } = action else {
                continue;
            };
            let dests: Vec<NodeId> = match to {
                Target::Replica(r) => vec![NodeId::Replica(r)],
                Target::AllReplicas => (0..n)
                    .map(|r| NodeId::Replica(ReplicaId(r)))
                    .filter(|d| *d != from)
                    .collect(),
                Target::Requester(r) => vec![bft_core::authn::requester_node(r)],
                Target::Node(node) => vec![node],
            };
            let size = msg.wire_size() as u64;
            let entry = self.out.by_type.entry(msg.type_name()).or_insert((0, 0));
            entry.0 += dests.len() as u64;
            entry.1 += size * dests.len() as u64;
            self.out.msgs += dests.len() as u64;
            self.out.bytes += size * dests.len() as u64;
            for &dest in &dests {
                self.post(from, dest, msg.clone());
            }
            self.out.sends.push(Sent {
                msg,
                dests: dests.len() as u32,
            });
        }
    }

    fn invoke(&mut self, slot: usize) {
        if self.tags[slot].is_some() || self.budget == 0 {
            return;
        }
        match self.feed.next(slot) {
            FeedStep::Op { op, read_only, tag } => {
                self.budget -= 1;
                self.tags[slot] = Some(tag);
                let proxy = &mut self.proxies[slot];
                let actions = self
                    .rec
                    .time("core.client", 0, tag, || proxy.invoke(op, read_only));
                self.apply(NodeId::Client(ClientId(slot as u32)), actions);
            }
            FeedStep::Wait => self.waiting.push(slot),
            FeedStep::Done => {}
        }
    }

    fn deliver(&mut self, to: NodeId, msg: Message) {
        match to {
            NodeId::Replica(r) => {
                let replica = &mut self.replicas[r.0 as usize];
                let actions = self
                    .rec
                    .time_as_parent("core.step", 0, || replica.step(Input::Deliver(msg)));
                self.apply(to, actions);
            }
            NodeId::Client(c) => {
                let slot = c.0 as usize;
                let proxy = &mut self.proxies[slot];
                let tag = self.tags[slot].unwrap_or(0);
                let (actions, done) = self.rec.time("core.client", 0, tag, || {
                    proxy.on_input(Input::Deliver(msg))
                });
                self.apply(to, actions);
                let Some(done) = done else { return };
                let tag = self.tags[slot].take().expect("reply without a request");
                match self.feed.done(slot, tag, &done.result) {
                    Ok(()) => self.out.ops += 1,
                    Err(_) => self.out.wrong += 1,
                }
                let at = self.now + self.think_us;
                self.push(at, Event::Invoke { slot });
                for waiter in std::mem::take(&mut self.waiting) {
                    self.push(at, Event::Invoke { slot: waiter });
                }
            }
        }
    }

    /// Runs until nothing is queued: every op the budget allowed is
    /// answered and the protocol's trailing messages are delivered.
    fn run(mut self) -> Replayed {
        let clients = self.proxies.len();
        for slot in 0..clients {
            // Staggered starts, so the paused clients stay spread out.
            let at = slot as u64 * self.think_us / clients as u64;
            self.push(at, Event::Invoke { slot });
        }
        while let Some(((at, _), event)) = self.queue.pop_first() {
            self.now = at;
            match event {
                Event::Deliver { to, msg } => self.deliver(to, msg),
                Event::Invoke { slot } => self.invoke(slot),
            }
        }
        let digests: Vec<_> = self.replicas.iter().map(|r| r.state_digest()).collect();
        self.out.converged = digests.windows(2).all(|w| w[0] == w[1]);
        self.out
    }
}

/// Replays `workload` with `seed`. Each replica runs the [`Traced`]
/// service and persists through a traced `WalStorage` in a fresh
/// directory under `scratch`, whatever the workload's own storage
/// setting: the `mem` workloads report what durability would cost on
/// their message shapes, and `core.step` self time excludes it.
pub fn replay(workload: Workload, seed: u64, rec: &Recorder, scratch: &Path) -> Replayed {
    match workload {
        Workload::BfsAndrew => {
            let script = bfs::generate_script(&bfs::AndrewConfig {
                scale: ANDREW_REPLAY_SCALE,
                ..bfs::AndrewConfig::default()
            });
            let expected = Rc::new(andrew_expected(&script));
            let budget = script.len() as u64;
            let feed = AndrewFeed::new(seed, script, expected);
            build(workload, seed, rec, scratch, feed, 0, budget, || {
                bfs::BfsService::new(BFS_BUCKETS)
            })
        }
        Workload::CounterOpen => {
            let feed = CounterFeed::new(seed, Mix::HalfBySeed, CLIENTS as usize);
            // Each client pauses long enough that ops arrive one at a
            // time, as they do below saturation on the live path.
            let think_us = 2_000 * CLIENTS as u64;
            let topo = base_topology(workload, seed);
            build(
                workload,
                seed,
                rec,
                scratch,
                feed,
                think_us,
                OPEN_OPS,
                move || counter_service(&topo),
            )
        }
        Workload::CounterSat | Workload::CounterWalSat => {
            let feed = CounterFeed::new(seed, Mix::EveryFourth, CLIENTS as usize);
            let budget = OPS_PER_CLIENT * CLIENTS as u64;
            let topo = base_topology(workload, seed);
            build(workload, seed, rec, scratch, feed, 0, budget, move || {
                counter_service(&topo)
            })
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn build<S: Service, F: OpFeed>(
    workload: Workload,
    seed: u64,
    rec: &Recorder,
    scratch: &Path,
    feed: F,
    think_us: u64,
    budget: u64,
    make_service: impl Fn() -> S,
) -> Replayed {
    let topo = base_topology(workload, seed);
    let keys = topo.keys();
    let dir = crate::cluster::fresh_dir(scratch, "replay");
    let counts = Rc::new(Cell::new(StorageCounts::default()));
    let replicas: Vec<Replica<Traced<S>>> = (0..4u32)
        .map(|i| {
            let service = Traced::new(make_service(), rec.clone());
            let mut replica = Replica::new(
                ReplicaId(i),
                topo.replica_config(),
                service,
                &keys,
                topo.key_seed,
            );
            let mut storage = WalStorage::open(dir.join(format!("replica-{i}")))
                .unwrap_or_else(|e| panic!("open replay WAL under {}: {e}", dir.display()));
            // A fresh directory recovers to the initial state; the
            // returned start-up actions only arm timers.
            let _ = ReplicaDriver::recover(&mut replica, &mut storage);
            replica.attach_storage(Box::new(TracedStorage::new(
                storage,
                rec.clone(),
                counts.clone(),
            )));
            replica
        })
        .collect();
    let proxies: Vec<ClientProxy> = (0..CLIENTS)
        .map(|c| ClientProxy::new(ClientId(c), topo.client_config(), &keys))
        .collect();
    let harness = Harness {
        tags: vec![None; proxies.len()],
        replicas,
        proxies,
        feed,
        rec: rec.clone(),
        rng: SplitMix(seed ^ 0x5c4e_d01e),
        now: 0,
        seq: 0,
        queue: BTreeMap::new(),
        link_last: HashMap::new(),
        waiting: Vec::new(),
        think_us,
        budget,
        out: Replayed {
            ops: 0,
            wrong: 0,
            msgs: 0,
            bytes: 0,
            by_type: BTreeMap::new(),
            sends: Vec::new(),
            storage: StorageCounts::default(),
            converged: false,
        },
    };
    let mut out = harness.run();
    out.storage = counts.get();
    let _ = std::fs::remove_dir_all(dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of the test's own inside the repository (ignored by
    /// git, like the runs' scratch space), removed when the test ends.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(label: &str) -> TestDir {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../.bench_data")
                .join(format!("test-{label}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("test scratch");
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
            if let Some(parent) = self.0.parent() {
                let _ = std::fs::remove_dir(parent);
            }
        }
    }

    #[test]
    fn replay_counts_repeat_exactly_for_a_seed() {
        let scratch = TestDir::new("counts");
        let run = |seed| {
            let rec = Recorder::new();
            let out = replay(Workload::CounterOpen, seed, &rec, &scratch.0);
            assert_eq!(out.wrong, 0);
            assert!(out.converged, "replicas end on one state digest");
            assert_eq!(out.ops, OPEN_OPS);
            (out.msgs, out.bytes, out.storage, out.by_type)
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn replay_spans_nest_storage_and_service_under_steps() {
        let rec = Recorder::new();
        let scratch = TestDir::new("spans");
        let out = replay(Workload::CounterSat, 2, &rec, &scratch.0);
        assert_eq!(out.ops, OPS_PER_CLIENT * CLIENTS as u64);
        assert!(out.storage.appends > 0 && out.storage.syncs > 0);
        let spans = rec.snapshot();
        let steps: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == "core.step")
            .map(|s| s.id)
            .collect();
        let nested = spans
            .iter()
            .filter(|s| s.name == "service.execute" || s.name.starts_with("storage."));
        let mut seen = 0;
        for s in nested {
            assert!(steps.contains(&s.parent), "{} has a step as parent", s.name);
            seen += 1;
        }
        assert!(seen > 0);
        let totals = crate::spans::totals_by_name(&spans);
        assert!(totals["core.step"].self_ns < totals["core.step"].total_ns);
    }
}
