//! The four workloads: what each sends, and how its replies are checked.
//!
//! A workload is a seeded supply of operations (an [`OpFeed`]) plus the
//! cluster settings it runs against. The feed also holds the oracle for
//! single replies: it knows what each operation must return and reports a
//! wrong answer as a failure. Pacing, timing and slicing live in
//! `live.rs`; the same feeds drive the in-process replay in `replay.rs`,
//! so both paths see the same message shapes.

use bfs::andrew::PathResolver;
use bfs::{generate_script, AndrewConfig, NfsReply, ScriptScheduler, ScriptedOp};
use bft_runtime::{ServiceKind, StorageKind};
use bft_statemachine::{CounterService, Service};
use bft_types::{ClientId, Requester};
use bytes::Bytes;

/// Logical clients multiplexed onto the one driver thread.
pub const CLIENTS: u32 = 64;
/// Counter operation size, bytes (op code + seeded filler + op id).
pub const OP_BYTES: usize = 128;
/// Every op slower than this misses the latency limit (`slo_ok_share`).
pub const SLO_LIMIT_MS: f64 = 20.0;
/// Fixed arrival rate of `counter_open`, ops/s: calibrated once to about
/// a fifth of `counter_sat.ops_per_s` on the 2-cpu reference host and
/// then frozen, so the workload stays below saturation and later runs
/// are comparable.
pub const OPEN_RATE_PER_S: f64 = 3000.0;
/// Andrew scale of `bfs_andrew`: one pass is `149 * scale` operations.
pub const ANDREW_SCALE: u32 = 50;
/// Checkpoint pages of the BFS service, as the live nodes configure it.
pub const BFS_BUCKETS: u64 = bft_runtime::node::BFS_LIVE_BUCKETS;

/// SplitMix64: the one generator behind every seeded choice here, so a
/// seed reproduces the inputs whatever the vendored `rand` does.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// The `n`-th value of the stream seeded with `seed`, without state.
    pub fn nth(seed: u64, n: u64) -> u64 {
        SplitMix(seed ^ n.wrapping_mul(0xd605_bbb5_8c8a_bc1b)).next_u64()
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CounterSat,
    CounterWalSat,
    CounterOpen,
    BfsAndrew,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CounterSat,
        Workload::CounterWalSat,
        Workload::CounterOpen,
        Workload::BfsAndrew,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CounterSat => "counter_sat",
            Workload::CounterWalSat => "counter_wal_sat",
            Workload::CounterOpen => "counter_open",
            Workload::BfsAndrew => "bfs_andrew",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn service(self) -> ServiceKind {
        match self {
            Workload::BfsAndrew => ServiceKind::Bfs,
            _ => ServiceKind::Counter,
        }
    }

    pub fn storage(self) -> StorageKind {
        match self {
            Workload::CounterWalSat => StorageKind::Wal,
            _ => StorageKind::Mem,
        }
    }

    /// Open loop (arrivals on a schedule) or closed loop (each client
    /// sends its next op when the previous one completes).
    pub fn open_loop(self) -> bool {
        self == Workload::CounterOpen
    }

    /// One line for the result file: what the traffic is.
    pub fn traffic(self) -> String {
        match self {
            Workload::CounterSat | Workload::CounterWalSat => format!(
                "closed loop, {CLIENTS} clients, {OP_BYTES} B counter ops, every 4th op of a client read-only"
            ),
            Workload::CounterOpen => format!(
                "open loop, Poisson arrivals at {OPEN_RATE_PER_S} ops/s over {CLIENTS} clients, {OP_BYTES} B counter ops, half read-only by seed, latency from the due instant"
            ),
            Workload::BfsAndrew => format!(
                "closed loop, {CLIENTS} clients, Andrew script scale {ANDREW_SCALE} in RPC-replay mode, one pass per slice on a fresh cluster"
            ),
        }
    }
}

/// What a feed wants the calling client slot to do.
pub enum FeedStep {
    Op {
        op: Bytes,
        read_only: bool,
        /// Returned to [`OpFeed::done`]; also the op id in the payload.
        tag: u64,
    },
    /// Nothing issuable until an in-flight op completes.
    Wait,
    /// No further work for any slot.
    Done,
}

/// A seeded supply of operations that also checks each reply.
pub trait OpFeed {
    /// Next operation for idle client `slot`.
    fn next(&mut self, slot: usize) -> FeedStep;
    /// Checks the reply to the op tagged `tag`; `Err` says why it is wrong.
    fn done(&mut self, slot: usize, tag: u64, result: &[u8]) -> Result<(), String>;
    /// One last ordered operation per slot, issued after the measured
    /// window, whose reply must reflect every acknowledged write.
    fn closing(&mut self, slot: usize) -> Option<(Bytes, u64)>;
    /// True once a finite feed has had every op answered.
    fn exhausted(&self) -> bool {
        false
    }
}

/// Which counter ops are reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every 4th op of each client (the mix earlier benchmarks used).
    EveryFourth,
    /// Half of all ops, chosen by the seed.
    HalfBySeed,
}

#[derive(Clone, Debug, Default)]
struct CounterSlot {
    issued: u64,
    /// Acknowledged increments: the value the service must hold.
    value: u64,
    pending_read: bool,
}

/// Counter traffic: padded `INC`s with a share of read-only `GET`s. The
/// n-th op issued has a payload, an op id and (for [`Mix::HalfBySeed`]) a
/// read/write choice that depend on `(seed, n)` alone.
pub struct CounterFeed {
    seed: u64,
    mix: Mix,
    issued: u64,
    slots: Vec<CounterSlot>,
}

impl CounterFeed {
    pub fn new(seed: u64, mix: Mix, clients: usize) -> CounterFeed {
        CounterFeed {
            seed,
            mix,
            issued: 0,
            slots: vec![CounterSlot::default(); clients],
        }
    }

    /// `[code][seeded filler][op id]`, `OP_BYTES` long. The counter
    /// service reads the first byte only; the op id rides in the last
    /// eight so a tracing wrapper can key its spans by it.
    pub fn payload(seed: u64, n: u64, read: bool) -> (Bytes, u64) {
        let op_id = SplitMix::nth(seed, n) | 1;
        let mut body = Vec::with_capacity(OP_BYTES);
        body.push(if read {
            CounterService::OP_GET
        } else {
            CounterService::OP_INC
        });
        let mut filler = SplitMix(op_id);
        while body.len() < OP_BYTES - 8 {
            body.extend_from_slice(&filler.next_u64().to_le_bytes());
        }
        body.truncate(OP_BYTES - 8);
        body.extend_from_slice(&op_id.to_le_bytes());
        (Bytes::from(body), op_id)
    }

    fn is_read(&self, slot: usize, n: u64) -> bool {
        match self.mix {
            Mix::EveryFourth => self.slots[slot].issued % 4 == 3,
            Mix::HalfBySeed => SplitMix::nth(self.seed ^ 0x5eed_c011, n) & 1 == 1,
        }
    }

    /// Acknowledged increments of `slot` so far.
    #[cfg(test)]
    pub fn acked_value(&self, slot: usize) -> u64 {
        self.slots[slot].value
    }
}

impl OpFeed for CounterFeed {
    fn next(&mut self, slot: usize) -> FeedStep {
        let n = self.issued;
        let read = self.is_read(slot, n);
        let (op, op_id) = Self::payload(self.seed, n, read);
        self.issued += 1;
        self.slots[slot].issued += 1;
        self.slots[slot].pending_read = read;
        FeedStep::Op {
            op,
            read_only: read,
            tag: op_id,
        }
    }

    fn done(&mut self, slot: usize, _tag: u64, result: &[u8]) -> Result<(), String> {
        let s = &mut self.slots[slot];
        let expect = if s.pending_read { s.value } else { s.value + 1 };
        let got = <[u8; 8]>::try_from(result)
            .map(u64::from_le_bytes)
            .map_err(|_| format!("counter reply of {} bytes", result.len()))?;
        if got != expect {
            return Err(format!(
                "client {slot}: counter read {got}, expected {expect}"
            ));
        }
        s.value = expect;
        Ok(())
    }

    fn closing(&mut self, slot: usize) -> Option<(Bytes, u64)> {
        let (op, op_id) = Self::payload(self.seed, u64::MAX - slot as u64, true);
        self.slots[slot].pending_read = true;
        Some((op, op_id))
    }
}

/// The Andrew script of `bfs_andrew`, fixed by the benchmark (the seed
/// picks op ids and session keys, not file contents: the script *is* the
/// workload).
pub fn andrew_script() -> Vec<ScriptedOp> {
    generate_script(&AndrewConfig {
        scale: ANDREW_SCALE,
        ..AndrewConfig::default()
    })
}

/// A reply with everything that legitimately differs between a
/// concurrent replicated run and a sequential local one blanked: inode
/// numbers (creation order) and modification times (the primary's clock).
pub fn mask_reply(reply: NfsReply) -> NfsReply {
    match reply {
        NfsReply::Handle(_) => NfsReply::Handle(0),
        NfsReply::Attrs(mut a) => {
            a.mtime = 0;
            NfsReply::Attrs(a)
        }
        NfsReply::Entries(es) => NfsReply::Entries(es.into_iter().map(|(n, _)| (n, 0)).collect()),
        other => other,
    }
}

/// Executes `script` sequentially on a local [`bfs::BfsService`] and
/// returns each op's masked reply: what the replicated run must answer.
pub fn andrew_expected(script: &[ScriptedOp]) -> Vec<NfsReply> {
    let mut service = bfs::BfsService::new(BFS_BUCKETS);
    let mut resolver = PathResolver::new();
    let client = Requester::Client(ClientId(0));
    script
        .iter()
        .enumerate()
        .map(|(i, sop)| {
            let op = resolver.concretize(&sop.kind).encode();
            let bytes = service.execute(client, &op, &(i as u64 + 1).to_le_bytes());
            let reply = NfsReply::decode(&bytes).expect("local BFS reply decodes");
            assert!(
                !matches!(reply, NfsReply::Err(_)),
                "Andrew op {i} fails locally: {:?} -> {reply:?}",
                sop.kind
            );
            resolver.learn(&sop.kind, &reply);
            mask_reply(reply)
        })
        .collect()
}

/// Andrew traffic: every idle client pulls the next ready op of one
/// shared dependency-aware scheduler; each reply is compared with the
/// sequential local execution of the same script.
pub struct AndrewFeed {
    seed: u64,
    sched: ScriptScheduler,
    read_only: Vec<bool>,
    expected: std::rc::Rc<Vec<NfsReply>>,
}

impl AndrewFeed {
    pub fn new(
        seed: u64,
        script: Vec<ScriptedOp>,
        expected: std::rc::Rc<Vec<NfsReply>>,
    ) -> AndrewFeed {
        assert_eq!(script.len(), expected.len());
        AndrewFeed {
            seed,
            read_only: script.iter().map(|s| s.read_only).collect(),
            sched: ScriptScheduler::new(script),
            expected,
        }
    }

    pub fn completed(&self) -> usize {
        self.sched.completed()
    }
}

impl OpFeed for AndrewFeed {
    fn next(&mut self, _slot: usize) -> FeedStep {
        if self.sched.is_finished() {
            return FeedStep::Done;
        }
        let Some((idx, op, read_only)) = self.sched.next_ready() else {
            return FeedStep::Wait;
        };
        // The op id trails the encoded op (the decoder stops at the end
        // of the op and ignores the rest); its low bits are the script
        // index, which is how `done` finds the expected reply.
        let op_id = (SplitMix::nth(self.seed, idx as u64) << 24) | idx as u64 | 1 << 63;
        let mut body = op.encode().to_vec();
        body.extend_from_slice(&op_id.to_le_bytes());
        FeedStep::Op {
            op: Bytes::from(body),
            read_only,
            tag: op_id,
        }
    }

    fn done(&mut self, _slot: usize, tag: u64, result: &[u8]) -> Result<(), String> {
        let idx = (tag & 0xff_ffff) as usize;
        let reply =
            NfsReply::decode(result).ok_or_else(|| format!("op {idx}: undecodable reply"))?;
        if matches!(reply, NfsReply::Err(_)) {
            return Err(format!("op {idx}: {reply:?}"));
        }
        // Unblocks dependents (and learns inode numbers) before the
        // comparison, so one wrong answer does not also stall the pass.
        self.sched.complete(idx, &reply);
        let masked = mask_reply(reply);
        if masked != self.expected[idx] {
            return Err(format!(
                "op {idx} (read_only={}): replicated {masked:?} != local {:?}",
                self.read_only[idx], self.expected[idx]
            ));
        }
        Ok(())
    }

    fn closing(&mut self, _slot: usize) -> Option<(Bytes, u64)> {
        None
    }

    fn exhausted(&self) -> bool {
        self.sched.is_finished()
    }
}

/// The op id a tracing wrapper reads back out of a payload.
pub fn op_id_of(payload: &[u8]) -> u64 {
    payload
        .len()
        .checked_sub(8)
        .and_then(|at| <[u8; 8]>::try_from(&payload[at..]).ok())
        .map(u64::from_le_bytes)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(feed: &mut CounterFeed, n: usize) -> Vec<(Vec<u8>, bool, u64)> {
        (0..n)
            .map(|i| match feed.next(i % 3) {
                FeedStep::Op { op, read_only, tag } => (op.to_vec(), read_only, tag),
                _ => panic!("counter feed never waits"),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_payloads_ids_and_read_positions() {
        for mix in [Mix::EveryFourth, Mix::HalfBySeed] {
            let a = drain(&mut CounterFeed::new(11, mix, 3), 200);
            let b = drain(&mut CounterFeed::new(11, mix, 3), 200);
            assert_eq!(a, b, "{mix:?}");
            let c = drain(&mut CounterFeed::new(12, mix, 3), 200);
            assert_ne!(a, c, "another seed gives other inputs ({mix:?})");
        }
    }

    #[test]
    fn payload_shape_and_op_id() {
        let (op, id) = CounterFeed::payload(5, 9, false);
        assert_eq!(op.len(), OP_BYTES);
        assert_eq!(op[0], CounterService::OP_INC);
        assert_eq!(op_id_of(&op), id);
        assert_ne!(id, 0);
        let (read, _) = CounterFeed::payload(5, 9, true);
        assert_eq!(read[0], CounterService::OP_GET);
        assert_eq!(op_id_of(&[1, 2, 3]), 0, "short payloads carry no id");
    }

    #[test]
    fn mixes_have_the_stated_read_share() {
        let ops = drain(&mut CounterFeed::new(3, Mix::EveryFourth, 3), 240);
        // Slots are fed round-robin here, so each client's 4th op is a read.
        assert_eq!(ops.iter().filter(|o| o.1).count(), 60);
        let ops = drain(&mut CounterFeed::new(3, Mix::HalfBySeed, 3), 4000);
        let reads = ops.iter().filter(|o| o.1).count();
        assert!((1800..2200).contains(&reads), "{reads} of 4000 are reads");
    }

    #[test]
    fn counter_feed_checks_replies_against_acknowledged_writes() {
        let mut feed = CounterFeed::new(1, Mix::EveryFourth, 1);
        let mut service = CounterService::new(4);
        let client = Requester::Client(ClientId(0));
        for _ in 0..8 {
            let FeedStep::Op { op, tag, .. } = feed.next(0) else {
                panic!()
            };
            let reply = service.execute(client, &op, &[]);
            feed.done(0, tag, &reply).expect("correct reply accepted");
        }
        assert_eq!(feed.acked_value(0), 6, "8 ops, every 4th a read");
        let (op, tag) = feed.closing(0).expect("counter has a closing read");
        let reply = service.execute(client, &op, &[]);
        feed.done(0, tag, &reply)
            .expect("closing read sees all writes");
        // A lost write shows as a wrong closing read.
        let mut fresh = CounterService::new(4);
        let stale = fresh.execute(client, &op, &[]);
        assert!(feed.done(0, tag, &stale).is_err());
        assert!(feed.done(0, tag, b"bad-op").is_err());
    }

    #[test]
    fn andrew_feed_accepts_a_correct_service_and_rejects_a_wrong_reply() {
        let script = generate_script(&AndrewConfig::tiny());
        let expected = std::rc::Rc::new(andrew_expected(&script));
        let mut feed = AndrewFeed::new(7, script.clone(), expected.clone());
        let mut service = bfs::BfsService::new(8);
        let client = Requester::Client(ClientId(1));
        let mut t = 1000u64;
        let mut tags = Vec::new();
        loop {
            match feed.next(0) {
                FeedStep::Op { op, tag, .. } => {
                    assert_eq!(op_id_of(&op), tag);
                    t += 17;
                    let reply = service.execute(client, &op, &t.to_le_bytes());
                    feed.done(0, tag, &reply)
                        .expect("same script, same answers");
                    tags.push(tag);
                }
                FeedStep::Wait => panic!("sequential run never waits"),
                FeedStep::Done => break,
            }
        }
        assert_eq!(feed.completed(), script.len());
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), script.len(), "op ids are unique");

        let mut feed = AndrewFeed::new(7, script, expected);
        let FeedStep::Op { tag, .. } = feed.next(0) else {
            panic!()
        };
        let wrong = NfsReply::Handle(0).encode();
        let wrong = if feed.expected[0] == NfsReply::Handle(0) {
            NfsReply::Ok.encode()
        } else {
            wrong
        };
        assert!(feed.done(0, tag, &wrong).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
