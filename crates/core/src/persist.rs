//! Durable storage integration: the §4.3 must-be-durable set and crash
//! recovery from it.
//!
//! A replica with an attached [`bft_storage::Storage`] engine appends a
//! WAL record at each action point whose loss would violate safety after
//! a crash:
//!
//! - every executed batch (enough to redo the execution: encoded
//!   requests + the agreed non-determinism),
//! - every committed-frontier advance (promotes tentative executions),
//! - every view-change start and new-view install (view number, active
//!   flag, certificate) — synced *before* the view-change message goes
//!   out, so the replica can never vote in a view it would forget,
//! - every stable checkpoint (a compressed snapshot of the state pages
//!   and reply table, after which the log truncates to the watermark).
//!
//! [`Replica::recover`] inverts this: install the newest intact
//! snapshot (verifying its root digest before trusting the disk),
//! restore the view state, then deterministically re-execute the
//! contiguous committed batches above the snapshot. Prepared-but-
//! uncommitted slots are *not* resurrected — their commit evidence died
//! with the volatile log, exactly as in [`Replica::restart`] — and are
//! redone through ordinary retransmission.
//!
//! Storage failures panic: a replica that cannot write its durable set
//! must crash rather than keep running undurably (fail-stop is the
//! §4.3 model; a silent downgrade would let more than f replicas lose
//! state).

use crate::actions::{Action, Outbox};
use crate::replica::Replica;
use crate::store::StoredBatch;
use bft_crypto::Digest;
use bft_statemachine::Service;
use bft_storage::{CheckpointSnapshot, Storage, WalRecord};
use bft_types::{Message, Request, SeqNo, View, Wire};
use bytes::Bytes;
use std::collections::BTreeMap;

impl<S: Service> Replica<S> {
    /// Attaches a storage engine: subsequent action points append their
    /// durable records through it. `None` (the default) makes every
    /// persistence hook a no-op — the deterministic simulator's crash
    /// model and the zero-cost `storage = mem` runtime default.
    pub fn attach_storage(&mut self, storage: Box<dyn Storage>) {
        self.storage = Some(storage);
    }

    /// Detaches and returns the storage engine, if any.
    pub fn detach_storage(&mut self) -> Option<Box<dyn Storage>> {
        self.storage.take()
    }

    /// Whether a storage engine is attached.
    pub fn has_storage(&self) -> bool {
        self.storage.is_some()
    }

    fn storage_append(&mut self, rec: &WalRecord) {
        if let Some(st) = self.storage.as_mut() {
            if let Err(e) = st.append(rec) {
                panic!("replica {}: WAL append failed: {e}", self.id.0);
            }
        }
    }

    fn storage_sync(&mut self) {
        if let Some(st) = self.storage.as_mut() {
            if let Err(e) = st.sync() {
                panic!("replica {}: WAL sync failed: {e}", self.id.0);
            }
        }
    }

    /// Appends the redo record for a batch about to execute. Called from
    /// the execution engine before the batch is applied (write-ahead).
    pub(crate) fn persist_batch(
        &mut self,
        seq: SeqNo,
        digest: Digest,
        tentative: bool,
        batch: &StoredBatch,
    ) {
        let requests: Vec<Bytes> = batch
            .requests
            .iter()
            .map(|rd| {
                Bytes::from(
                    self.requests
                        .get(rd)
                        .expect("checked by batch_ready")
                        .encoded(),
                )
            })
            .collect();
        let rec = WalRecord::Batch {
            seq,
            view: self.view,
            digest,
            committed: !tentative,
            requests,
            nondet: batch.nondet.clone(),
        };
        self.storage_append(&rec);
    }

    /// Appends the committed-frontier advance (promotes tentative
    /// executions at or below `upto` to committed on replay).
    pub(crate) fn persist_commit(&mut self, upto: SeqNo) {
        self.storage_append(&WalRecord::Commit { upto });
    }

    /// Makes a pending view change durable before its message leaves the
    /// replica (§4.3: a replica must not forget a view it voted in).
    pub(crate) fn persist_view_change(&mut self, view: View) {
        if self.storage.is_none() {
            return;
        }
        self.storage_append(&WalRecord::View {
            view,
            active: false,
        });
        self.storage_sync();
    }

    /// Makes an installed new view durable: the active view number plus
    /// the certificate that justifies it (served to laggards on replay).
    pub(crate) fn persist_installed_view(&mut self, cert: Bytes) {
        if self.storage.is_none() {
            return;
        }
        let view = self.view;
        self.storage_append(&WalRecord::View { view, active: true });
        self.storage_append(&WalRecord::NewViewCert { view, cert });
        self.storage_sync();
    }

    /// The new-view certificate for the current view, encoded as its
    /// wire message, if this replica holds one.
    fn encoded_new_view_cert(&self) -> Option<Bytes> {
        if let Some(nv) = self.vc.new_view.as_ref().filter(|nv| nv.view == self.view) {
            return Some(Bytes::from(Message::NewView(nv.clone()).encoded()));
        }
        if let Some(nv) = self
            .vc_pk
            .new_view
            .as_ref()
            .filter(|nv| nv.view == self.view)
        {
            return Some(Bytes::from(Message::NewViewPk(nv.clone()).encoded()));
        }
        None
    }

    /// Persists a stable checkpoint this replica holds the state for:
    /// writes the compressed snapshot, truncates the WAL below the
    /// watermark, and re-baselines the fresh segment with the stable
    /// marker and the current view state (the truncation contract).
    pub(crate) fn persist_stable_checkpoint(&mut self, seq: SeqNo, digest: Digest) {
        if self.storage.is_none() {
            return;
        }
        let n = self.tree.num_pages();
        let mut pages = Vec::with_capacity(n as usize);
        for i in 0..n {
            let (Some(body), Some((lm, _))) =
                (self.tree.page_at(seq, i), self.tree.page_info_at(seq, i))
            else {
                return; // Checkpoint not retained (already GC'd): skip.
            };
            pages.push((lm, body));
        }
        let snap = CheckpointSnapshot {
            seq,
            root: digest,
            pages,
        };
        {
            let st = self.storage.as_mut().expect("checked above");
            if let Err(e) = st.write_snapshot(&snap) {
                panic!("replica {}: snapshot write failed: {e}", self.id.0);
            }
            if let Err(e) = st.truncate_below(seq) {
                panic!("replica {}: WAL truncation failed: {e}", self.id.0);
            }
        }
        self.storage_append(&WalRecord::Stable { seq, digest });
        let (view, active) = (self.view, self.view_active);
        self.storage_append(&WalRecord::View { view, active });
        if let Some(cert) = self.encoded_new_view_cert() {
            self.storage_append(&WalRecord::NewViewCert { view, cert });
        }
        self.storage_sync();
    }

    /// Rebuilds replica state from a storage engine after a process-level
    /// crash and returns the startup actions.
    ///
    /// Expects the in-memory state to be at genesis (a freshly
    /// constructed replica — the reboot-from-disk path) or at the state
    /// the engine's snapshot describes. The engine is read, never
    /// written: attach it *after* recovery so redo cannot re-append its
    /// own records.
    ///
    /// Recovery is redo-based: install the newest intact snapshot
    /// (verified against its root digest), restore the latest view
    /// state and certificate, then re-execute the contiguous committed
    /// batches above the snapshot with a discarded outbox — replies were
    /// delivered long ago; the reply table rebuilds as a side effect.
    pub fn recover(&mut self, storage: &mut dyn Storage) -> Vec<Action> {
        self.shutdown_volatile();
        // Redo must not re-append to an attached engine.
        let saved = self.storage.take();

        // 1. Snapshot.
        let mut base = self.ckpt.stable().0;
        if let Ok(Some(snap)) = storage.load_snapshot() {
            if self.install_snapshot(&snap) {
                base = snap.seq;
            }
        }

        // 2. Replay the log. Later records win: a seq re-executed in a
        // newer view overwrites the older batch record.
        let mut batches: BTreeMap<u64, (Digest, bool, Vec<Bytes>, Bytes)> = BTreeMap::new();
        let mut frontier = base;
        let mut max_seen = base;
        let mut view_state: Option<(View, bool)> = None;
        let mut certs: Vec<(View, Bytes)> = Vec::new();
        for rec in storage.replay() {
            match rec {
                WalRecord::Batch {
                    seq,
                    digest,
                    committed,
                    requests,
                    nondet,
                    ..
                } => {
                    max_seen = max_seen.max(seq);
                    if committed {
                        frontier = frontier.max(seq);
                    }
                    if seq > base {
                        batches.insert(seq.0, (digest, committed, requests, nondet));
                    }
                }
                WalRecord::Commit { upto } => frontier = frontier.max(upto),
                WalRecord::Stable { seq, .. } => frontier = frontier.max(seq),
                WalRecord::View { view, active } => view_state = Some((view, active)),
                WalRecord::NewViewCert { view, cert } => certs.push((view, cert)),
            }
        }

        // 3. View state: the latest record wins; reinstate the matching
        // certificate so the recovered replica can serve it to laggards.
        if let Some((view, active)) = view_state {
            if view >= self.view {
                self.view = view;
                self.view_active = active;
            }
        }
        if let Some((_, cert)) = certs.iter().rev().find(|(v, _)| *v == self.view) {
            match Message::decode(&mut &cert[..]) {
                Ok(Message::NewView(nv)) => self.vc.new_view = Some(nv),
                Ok(Message::NewViewPk(nv)) => self.vc_pk.new_view = Some(nv),
                _ => {}
            }
        }

        // 4. Redo the contiguous committed batches above the snapshot.
        // A gap means the commit evidence for everything after it died
        // with the crash; retransmission re-orders those batches.
        let mut out = Outbox::new();
        let mut redone = base;
        'redo: for seq in base.0 + 1..=frontier.0 {
            let Some((digest, _, encoded_reqs, nondet)) = batches.get(&seq) else {
                break;
            };
            let mut requests = Vec::with_capacity(encoded_reqs.len());
            for bytes in encoded_reqs {
                let Ok(req) = Request::decode(&mut &bytes[..]) else {
                    break 'redo; // Undecodable body: treat as torn.
                };
                requests.push(req);
            }
            self.redo_batch(SeqNo(seq), *digest, &requests, &nondet.clone(), &mut out);
            redone = SeqNo(seq);
        }
        drop(out); // Replies were delivered before the crash.

        self.committed_frontier = redone;
        self.executing_seq = redone;
        // A recovering primary must never reuse an assigned seqno.
        self.seqno = self.seqno.max(max_seen);
        self.storage = saved;
        self.start()
    }

    /// Installs a snapshot's pages into the state tree, verifying the
    /// rebuilt root against the certified digest before trusting it.
    /// Returns `false` (leaving the replica at its pre-call state) when
    /// the snapshot does not fit or fails verification — the replica
    /// boots fresh and state-transfers instead, which is safe but slow.
    fn install_snapshot(&mut self, snap: &CheckpointSnapshot) -> bool {
        if snap.seq.0 == 0 || snap.pages.len() as u64 != self.tree.num_pages() {
            return false;
        }
        for (i, (lm, body)) in snap.pages.iter().enumerate() {
            self.tree.install_page(i as u64, body.clone(), *lm);
        }
        let root = self.tree.rebuild_at(snap.seq);
        if root != snap.root {
            // CRC passed but the semantics are wrong (disk bug, foreign
            // data_dir): rebuild the genesis tree from the service and
            // reply table so the replica boots fresh.
            let mut pages: Vec<Bytes> = (0..self.service.num_pages())
                .map(|i| self.service.get_page(i))
                .collect();
            pages.push(self.client_table.to_page());
            self.tree = crate::partition_tree::PartitionTree::new(pages, 256);
            return false;
        }
        self.ckpt.force_stable(snap.seq, root);
        self.log.advance_low(snap.seq);
        self.sync_state_from_tree();
        self.last_exec = snap.seq;
        self.committed_frontier = snap.seq;
        self.executing_seq = snap.seq;
        true
    }

    /// Re-executes one recovered batch (the redo side of
    /// [`Replica::persist_batch`]): same journal entry, same service
    /// calls, same checkpoint schedule as the original execution.
    fn redo_batch(
        &mut self,
        seq: SeqNo,
        digest: Digest,
        requests: &[Request],
        nondet: &Bytes,
        out: &mut Outbox,
    ) {
        self.executing_seq = seq;
        self.journal.push((seq, digest));
        for req in requests {
            self.execute_request(req, nondet, false, out);
        }
        self.collect_dirty_pages();
        self.last_exec = seq;
        self.stats.batches_executed += 1;
        if seq.0.is_multiple_of(self.config.checkpoint_interval) {
            self.take_checkpoint(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authn::ClusterKeys;
    use crate::config::ReplicaConfig;
    use bft_statemachine::CounterService;
    use bft_storage::MemStorage;
    use bft_types::{Auth, ClientId, Requester, Timestamp};

    fn replica(id: u32) -> Replica<CounterService> {
        let config = ReplicaConfig::test(1);
        let keys = ClusterKeys::generate(config.group, config.num_clients, 128, 3);
        let service = CounterService::new(config.num_clients + config.group.n as u32);
        Replica::new(bft_types::ReplicaId(id), config, service, &keys, 7)
    }

    fn request(client: u32, t: u64) -> Request {
        Request {
            requester: Requester::Client(ClientId(client)),
            timestamp: Timestamp(t),
            operation: Bytes::from_static(b"add 3"),
            read_only: false,
            replier: None,
            auth: Auth::None,
            digest_memo: bft_types::DigestMemo::new(),
        }
    }

    /// Execute batches through the persistence hooks on one replica,
    /// then recover a *fresh* replica object from the same engine — the
    /// process-reboot model — and compare state and journal.
    #[test]
    fn fresh_replica_recovers_executed_state() {
        let mut engine = MemStorage::new();
        let (journal, digest, frontier) = {
            let mut r = replica(1);
            r.attach_storage(Box::new(MemStorage::new()));
            let mut out = Outbox::new();
            for (i, t) in [(1u64, 1u64), (2, 2), (3, 3)] {
                let req = request(0, t);
                let rd = r.requests.insert(req);
                let bd = bft_crypto::digest(&i.to_le_bytes());
                r.batches.insert(
                    bd,
                    StoredBatch {
                        requests: vec![rd],
                        nondet: Bytes::new(),
                    },
                );
                let b = r.batches.get(&bd).unwrap().clone();
                r.persist_batch(SeqNo(i), bd, false, &b);
                r.redo_batch(SeqNo(i), bd, &[request(0, t)], &Bytes::new(), &mut out);
                r.persist_commit(SeqNo(i));
            }
            // Move the engine's records over to the "disk" the fresh
            // replica will read.
            let mut st = r.detach_storage().unwrap();
            for rec in st.replay() {
                engine.append(&rec).unwrap();
            }
            (r.journal.clone(), r.state_digest(), r.last_executed())
        };
        assert_eq!(frontier, SeqNo(3));
        let mut fresh = replica(1);
        let actions = fresh.recover(&mut engine);
        assert!(!actions.is_empty(), "recovery arms the status timer");
        assert_eq!(fresh.journal, journal);
        assert_eq!(fresh.state_digest(), digest);
        assert_eq!(fresh.committed_frontier(), SeqNo(3));
        assert_eq!(fresh.last_executed(), SeqNo(3));
    }

    /// Tentative batches without commit evidence are not redone (the
    /// restart() hole, preserved): recovery stops at the frontier.
    #[test]
    fn tentative_tail_is_dropped() {
        let mut engine = MemStorage::new();
        engine
            .append(&WalRecord::Batch {
                seq: SeqNo(1),
                view: View(0),
                digest: bft_crypto::digest(b"b1"),
                committed: true,
                requests: vec![Bytes::from(request(0, 1).encoded())],
                nondet: Bytes::new(),
            })
            .unwrap();
        engine
            .append(&WalRecord::Batch {
                seq: SeqNo(2),
                view: View(0),
                digest: bft_crypto::digest(b"b2"),
                committed: false,
                requests: vec![Bytes::from(request(0, 2).encoded())],
                nondet: Bytes::new(),
            })
            .unwrap();
        let mut r = replica(2);
        r.recover(&mut engine);
        assert_eq!(r.last_executed(), SeqNo(1));
        assert_eq!(r.committed_frontier(), SeqNo(1));
        assert_eq!(r.journal.len(), 1);
    }

    /// A Commit record promotes a tentatively-executed batch on replay.
    #[test]
    fn commit_record_promotes_tentative_batch() {
        let mut engine = MemStorage::new();
        engine
            .append(&WalRecord::Batch {
                seq: SeqNo(1),
                view: View(0),
                digest: bft_crypto::digest(b"b1"),
                committed: false,
                requests: vec![Bytes::from(request(0, 1).encoded())],
                nondet: Bytes::new(),
            })
            .unwrap();
        engine
            .append(&WalRecord::Commit { upto: SeqNo(1) })
            .unwrap();
        let mut r = replica(0);
        r.recover(&mut engine);
        assert_eq!(r.last_executed(), SeqNo(1));
        assert_eq!(r.journal.len(), 1);
    }

    /// View state survives: the latest View record sets view + active,
    /// and recovery never regresses the view.
    #[test]
    fn view_state_restored() {
        let mut engine = MemStorage::new();
        engine
            .append(&WalRecord::View {
                view: View(1),
                active: true,
            })
            .unwrap();
        engine
            .append(&WalRecord::View {
                view: View(2),
                active: false,
            })
            .unwrap();
        let mut r = replica(3);
        r.recover(&mut engine);
        assert_eq!(r.view(), View(2));
        assert!(!r.view_is_active());
    }

    /// A snapshot whose root digest does not match its pages is refused
    /// and the replica boots fresh (genesis state intact).
    #[test]
    fn corrupt_snapshot_refused() {
        let mut r = replica(1);
        let genesis = r.state_digest();
        let n = r.debug_num_pages();
        let pages: Vec<(SeqNo, Bytes)> = (0..n)
            .map(|_| (SeqNo(16), Bytes::from(vec![0xab; 64])))
            .collect();
        let mut engine = MemStorage::new();
        engine
            .write_snapshot(&CheckpointSnapshot {
                seq: SeqNo(16),
                root: bft_crypto::digest(b"not the real root"),
                pages,
            })
            .unwrap();
        r.recover(&mut engine);
        assert_eq!(r.last_executed(), SeqNo(0));
        assert_eq!(r.state_digest(), genesis, "genesis tree rebuilt");
    }

    /// End-to-end through the real hooks: drive a replica via the normal
    /// execution engine with storage attached, snapshot at the stable
    /// checkpoint, and recover a fresh object from the engine.
    #[test]
    fn snapshot_plus_redo_reproduces_state() {
        let mut r = replica(1);
        r.attach_storage(Box::new(MemStorage::new()));
        let mut out = Outbox::new();
        // Execute 20 batches through redo_batch (which shares the
        // execution/checkpoint schedule with execute_batch) with the
        // write-ahead hook, as the engine would.
        for i in 1..=20u64 {
            let bd = bft_crypto::digest(&i.to_le_bytes());
            let req = request(0, i);
            let rd = r.requests.insert(req);
            r.batches.insert(
                bd,
                StoredBatch {
                    requests: vec![rd],
                    nondet: Bytes::new(),
                },
            );
            let b = r.batches.get(&bd).unwrap().clone();
            r.persist_batch(SeqNo(i), bd, false, &b);
            r.redo_batch(SeqNo(i), bd, &[request(0, i)], &Bytes::new(), &mut out);
            r.persist_commit(SeqNo(i));
        }
        // Checkpoint interval in the test config.
        let interval = r.config.checkpoint_interval;
        let stable = SeqNo(20 - 20 % interval);
        let d = r.ckpt.own_digest(stable).expect("checkpoint taken");
        r.ckpt.force_stable(stable, d);
        r.persist_stable_checkpoint(stable, d);
        let mut engine = r.detach_storage().unwrap();
        let want_digest = r.state_digest();
        let want_tail: Vec<(SeqNo, Digest)> = r
            .journal
            .iter()
            .copied()
            .filter(|(s, _)| *s > stable)
            .collect();

        let mut fresh = replica(1);
        fresh.recover(engine.as_mut());
        assert_eq!(fresh.state_digest(), want_digest);
        assert_eq!(fresh.last_executed(), SeqNo(20));
        assert_eq!(fresh.stable_checkpoint(), (stable, d));
        // The journal restarts above the snapshot; the tail matches.
        assert_eq!(fresh.journal, want_tail);
    }

    fn counter_op(client: u32, t: u64, op: u8) -> Request {
        Request {
            operation: Bytes::from(vec![op]),
            ..request(client, t)
        }
    }

    /// Executes a committed one-request batch at `seq` on the live path
    /// (write-ahead record, execution, checkpoint schedule).
    fn run_batch(r: &mut Replica<CounterService>, seq: u64, req: Request) {
        let rd = r.requests.insert(req);
        let bd = bft_crypto::digest(&[&seq.to_le_bytes()[..], rd.as_bytes()].concat());
        r.batches.insert(
            bd,
            StoredBatch {
                requests: vec![rd],
                nondet: Bytes::new(),
            },
        );
        r.execute_batch(SeqNo(seq), bd, false, &mut Outbox::new());
        r.persist_commit(SeqNo(seq));
    }

    /// Pages dirtied by batches a rollback undoes must not reach the
    /// next checkpoint: after increments are rolled back, a history of
    /// reads alone checkpoints to the digest of a replica that only ever
    /// ran the reads (a stale pending page would bump its `lm`).
    #[test]
    fn rollback_drops_pages_pending_from_undone_batches() {
        let mut r = replica(1);
        let interval = r.config.checkpoint_interval;
        for seq in 1..interval {
            run_batch(&mut r, seq, counter_op(0, seq, CounterService::OP_INC));
        }
        r.rollback_to_checkpoint(SeqNo(0));
        assert_eq!(r.last_executed(), SeqNo(0));
        let mut fresh = replica(1);
        for seq in 1..=interval {
            let read = counter_op(1, seq, CounterService::OP_GET);
            run_batch(&mut r, seq, read.clone());
            run_batch(&mut fresh, seq, read);
        }
        let want = fresh.ckpt.own_digest(SeqNo(interval));
        assert!(want.is_some(), "checkpoint taken");
        assert_eq!(r.ckpt.own_digest(SeqNo(interval)), want);
        assert_ne!(want, Some(fresh.ckpt.stable().1), "reads change the table");
    }

    /// WAL recovery redoes batches across a checkpoint boundary above the
    /// snapshot and reaches the checkpoint digests the writer took on the
    /// live path, including the next checkpoint, which pages pending from
    /// the redo tail enter.
    #[test]
    fn recovery_redo_across_a_checkpoint_matches_the_writer() {
        let mut r = replica(1);
        let k = r.config.checkpoint_interval;
        r.attach_storage(Box::new(MemStorage::new()));
        let op = |seq: u64| {
            let code = if seq.is_multiple_of(3) {
                CounterService::OP_GET
            } else {
                CounterService::OP_INC
            };
            counter_op((seq % 2) as u32, seq, code)
        };
        for seq in 1..=2 * k + k / 2 {
            run_batch(&mut r, seq, op(seq));
            if seq == k {
                let d = r.ckpt.own_digest(SeqNo(k)).expect("checkpoint taken");
                r.ckpt.force_stable(SeqNo(k), d);
                r.log.advance_low(SeqNo(k));
                r.persist_stable_checkpoint(SeqNo(k), d);
            }
        }
        let mut engine = r.detach_storage().unwrap();
        let mut fresh = replica(1);
        fresh.recover(engine.as_mut());
        assert_eq!(fresh.stable_checkpoint().0, SeqNo(k), "from the snapshot");
        assert_eq!(fresh.last_executed(), SeqNo(2 * k + k / 2));
        let redone = SeqNo(2 * k);
        assert!(r.ckpt.own_digest(redone).is_some());
        assert_eq!(fresh.ckpt.own_digest(redone), r.ckpt.own_digest(redone));
        for seq in 2 * k + k / 2 + 1..=3 * k {
            run_batch(&mut r, seq, op(seq));
            run_batch(&mut fresh, seq, op(seq));
        }
        let next = SeqNo(3 * k);
        assert!(r.ckpt.own_digest(next).is_some());
        assert_eq!(fresh.ckpt.own_digest(next), r.ckpt.own_digest(next));
    }

    /// Corrupting one page keeps the pages executed since the last
    /// checkpoint pending: they still enter the next checkpoint, and the
    /// corrupted page, which no batch rewrites, keeps its old digest
    /// until the recovery state check recomputes it.
    #[test]
    fn corruption_keeps_pages_executed_since_the_checkpoint() {
        let two_pages = || {
            let config = ReplicaConfig::test(1);
            let keys = ClusterKeys::generate(config.group, config.num_clients, 128, 3);
            Replica::new(
                bft_types::ReplicaId(1),
                config,
                CounterService::new(1024),
                &keys,
                7,
            )
        };
        let (mut r, mut clean) = (two_pages(), two_pages());
        assert_eq!(r.service.num_pages(), 2);
        let k = r.config.checkpoint_interval;
        for seq in 1..k {
            let inc = counter_op(0, seq, CounterService::OP_INC);
            run_batch(&mut r, seq, inc.clone());
            run_batch(&mut clean, seq, inc);
        }
        r.corrupt_state_page(1, Bytes::from_static(b"rot"));
        let read = counter_op(0, k, CounterService::OP_GET);
        run_batch(&mut r, k, read.clone());
        run_batch(&mut clean, k, read);
        let want = clean.ckpt.own_digest(SeqNo(k));
        assert!(want.is_some(), "checkpoint taken");
        assert_eq!(r.ckpt.own_digest(SeqNo(k)), want);
    }
}
