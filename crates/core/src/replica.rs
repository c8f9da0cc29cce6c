//! The replica state machine: state, dispatch, and the execution engine.
//!
//! A [`Replica`] is a pure event handler (§6.1): [`Replica::on_input`]
//! consumes a message or timer and returns actions. Normal-case message
//! handlers live in [`crate::normal`], view changes in
//! [`crate::viewchange`] and [`crate::viewchange_pk`], state transfer in
//! [`crate::state_transfer`], retransmission in [`crate::status`], and
//! proactive recovery in [`crate::recovery`].
//!
//! Service pages enter the partition tree at checkpoints, as in the
//! paper's replication library: after each batch the replica only notes
//! which pages the service dirtied (plus the client-table page) in
//! `pending_pages`, and just before each checkpoint it encodes and
//! writes every pending page once. Rollback, state-transfer installs and
//! WAL recovery restore the state from the tree and clear the set.

use crate::actions::{Action, Input, Outbox, TimerId};
use crate::authn::AuthState;
use crate::checkpoints::CheckpointManager;
use crate::client_table::{ClientTable, RequestDisposition};
use crate::config::{AuthMode, ReplicaConfig};
use crate::log::MessageLog;
use crate::partition_tree::PartitionTree;
use crate::recovery::RecoveryState;
use crate::state_transfer::FetchState;
use crate::store::{BatchStore, RequestQueue, RequestStore};
use crate::viewchange::ViewChangeState;
use crate::viewchange_pk::PkViewChangeState;
use bft_crypto::Digest;
use bft_statemachine::Service;
use bft_types::{Message, NodeId, ReplicaId, Reply, ReplyBody, Request, SeqNo, SimDuration, View};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Counters exposed for tests, metrics, and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Batches executed (tentatively or finally).
    pub batches_executed: u64,
    /// Individual requests executed.
    pub requests_executed: u64,
    /// Checkpoints taken.
    pub checkpoints_taken: u64,
    /// View changes this replica initiated.
    pub view_changes_started: u64,
    /// New views this replica entered.
    pub views_entered: u64,
    /// Messages rejected by authentication.
    pub auth_failures: u64,
    /// State-transfer page fetches completed.
    pub pages_fetched: u64,
    /// State-transfer bytes fetched.
    pub bytes_fetched: u64,
    /// Proactive recoveries completed.
    pub recoveries_completed: u64,
}

/// A BFT replica parameterized by the replicated service.
pub struct Replica<S: Service> {
    /// Configuration (group size, optimizations, timeouts).
    pub config: ReplicaConfig,
    /// This replica's identifier.
    pub id: ReplicaId,
    /// Authentication state (session keys, key pair, directory).
    pub(crate) auth: AuthState,
    /// The replicated service.
    pub(crate) service: S,
    /// Checkpointed, digested state pages (service pages + client table).
    pub(crate) tree: PartitionTree,
    /// Pages modified since the last checkpoint: the service's dirty
    /// pages plus the client-table page once any batch ran. They enter the
    /// tree only when the next checkpoint is taken, so each is encoded and
    /// digested once per checkpoint, however many batches touched it.
    pub(crate) pending_pages: BTreeSet<u64>,
    /// Reply cache.
    pub(crate) client_table: ClientTable,
    /// The message log.
    pub(crate) log: MessageLog,
    /// Checkpoint certificates.
    pub(crate) ckpt: CheckpointManager,
    /// Current view.
    pub(crate) view: View,
    /// Whether the view is active (we have its new-view message, §5.2).
    pub(crate) view_active: bool,
    /// Last sequence number this primary assigned.
    pub(crate) seqno: SeqNo,
    /// Last sequence number executed (including tentative executions).
    pub(crate) last_exec: SeqNo,
    /// All batches at or below this are committed (and executed).
    pub(crate) committed_frontier: SeqNo,
    /// Request bodies by digest.
    pub(crate) requests: RequestStore,
    /// Batch bodies by batch digest.
    pub(crate) batches: BatchStore,
    /// FIFO queue of requests awaiting ordering.
    pub(crate) queue: RequestQueue,
    /// Read-only requests awaiting a commit-clean state (§5.1.3).
    pub(crate) ro_queue: Vec<Request>,
    /// Pre-prepares buffered until their request bodies arrive.
    pub(crate) pending_pps: Vec<std::rc::Rc<bft_types::PrePrepare>>,
    /// Checkpoint messages deferred until the checkpoint's batch commits
    /// (§5.1.2: tentative checkpoints announce only after commit).
    pub(crate) pending_ckpts: Vec<(SeqNo, Digest)>,
    /// Primary-side guard against proposing the same request twice when a
    /// relayed copy races the direct one: highest timestamp already
    /// assigned to a batch per requester (cleared on view changes).
    pub(crate) proposed: bft_fxhash::FastMap<bft_types::Requester, bft_types::Timestamp>,
    /// View-change protocol state (BFT / MAC variant).
    pub(crate) vc: ViewChangeState,
    /// View-change protocol state (BFT-PK variant).
    pub(crate) vc_pk: PkViewChangeState,
    /// Current view-change timeout (doubles on consecutive view changes).
    pub(crate) vc_timeout: SimDuration,
    /// Whether the view-change timer is armed.
    pub(crate) vc_timer_armed: bool,
    /// In-progress state transfer.
    pub(crate) fetch: Option<FetchState>,
    /// Proactive-recovery state.
    pub(crate) recovery: RecoveryState,
    /// Sequence number of the batch currently executing (recovery replies
    /// report it, §4.3.2).
    pub(crate) executing_seq: SeqNo,
    /// One-input authentication bypass: set for the duration of an
    /// [`Replica::on_input_verified`] call whose verdict is `Verified`
    /// (the runtime's MAC workers already checked the message and its
    /// inline requests against the same keys). Never persists across
    /// inputs.
    pub(crate) preverified: bool,
    /// Durable storage engine, if attached (see [`crate::persist`]).
    /// `None` keeps every persistence hook a no-op.
    pub(crate) storage: Option<Box<dyn bft_storage::Storage>>,
    /// Deterministic randomness (nonces, replier choice).
    pub(crate) rng: StdRng,
    /// Counters.
    pub stats: ReplicaStats,
    /// Execution journal: every `(seq, batch digest)` this replica applied,
    /// including re-executions after rollbacks (safety checkers compare
    /// journals across replicas).
    pub journal: Vec<(SeqNo, Digest)>,
    /// Debug trace of notable execution decisions. Populated only when the
    /// `BFT_DEBUG` environment variable is set (plus a few always-on
    /// recovery markers); used by the simulator's diagnostics and tests.
    pub exec_trace: Vec<String>,
    /// Whether `BFT_DEBUG` was set when this replica was constructed.
    /// Resolved once here because an environment lookup on every request
    /// is measurable on the hot path.
    pub(crate) debug_enabled: bool,
}

impl<S: Service> Replica<S> {
    /// Creates a replica over `service` with shared cluster key material.
    pub fn new(
        id: ReplicaId,
        config: ReplicaConfig,
        service: S,
        keys: &crate::authn::ClusterKeys,
        seed: u64,
    ) -> Self {
        let mut auth = AuthState::new(
            config.auth,
            NodeId::Replica(id),
            config.group,
            config.num_clients,
            keys,
        );
        // Deferred outbound MACs assume static session keys: recovery
        // refreshes keys mid-run, which the worker pool's cloned key
        // tables would not observe.
        auth.defer_multicast = config.defer_multicast_auth
            && config.auth == AuthMode::Macs
            && !config.recovery.enabled;
        let client_table = ClientTable::new();
        // Tree pages: service pages followed by one client-table page.
        let mut pages: Vec<Bytes> = (0..service.num_pages())
            .map(|i| service.get_page(i))
            .collect();
        pages.push(client_table.to_page());
        let tree = PartitionTree::new(pages, 256);
        let genesis = tree.root_digest();
        let stable_threshold = match config.auth {
            AuthMode::Macs => config.group.quorum(),
            AuthMode::Signatures => config.group.weak(),
        };
        let log = MessageLog::new(config.group, config.log_size());
        let vc_timeout = config.view_change_timeout;
        Replica {
            id,
            auth,
            service,
            tree,
            pending_pages: BTreeSet::new(),
            client_table,
            log,
            ckpt: CheckpointManager::new(stable_threshold, genesis),
            view: View(0),
            view_active: true,
            seqno: SeqNo(0),
            last_exec: SeqNo(0),
            committed_frontier: SeqNo(0),
            requests: RequestStore::new(),
            batches: BatchStore::new(),
            queue: RequestQueue::new(),
            ro_queue: Vec::new(),
            pending_pps: Vec::new(),
            pending_ckpts: Vec::new(),
            proposed: bft_fxhash::FastMap::default(),
            vc: ViewChangeState::new(config.group),
            vc_pk: PkViewChangeState::new(),
            vc_timeout,
            vc_timer_armed: false,
            fetch: None,
            recovery: RecoveryState::new(&config),
            executing_seq: SeqNo(0),
            storage: None,
            preverified: false,
            rng: StdRng::seed_from_u64(seed ^ ((id.0 as u64) << 32)),
            stats: ReplicaStats::default(),
            journal: Vec::new(),
            exec_trace: Vec::new(),
            debug_enabled: std::env::var_os("BFT_DEBUG").is_some(),
            config,
        }
    }

    // ----- accessors (tests, simulator, benches) -----

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// True when this replica is the primary of its current view.
    pub fn is_primary(&self) -> bool {
        self.view.primary(self.config.group.n) == self.id
    }

    /// The primary of the current view.
    pub fn primary(&self) -> ReplicaId {
        self.view.primary(self.config.group.n)
    }

    /// Last executed sequence number.
    pub fn last_executed(&self) -> SeqNo {
        self.last_exec
    }

    /// Highest sequence number with everything below committed.
    pub fn committed_frontier(&self) -> SeqNo {
        self.committed_frontier
    }

    /// Last stable checkpoint.
    pub fn stable_checkpoint(&self) -> (SeqNo, Digest) {
        self.ckpt.stable()
    }

    /// Root digest of the current state tree.
    pub fn state_digest(&self) -> Digest {
        self.tree.root_digest()
    }

    /// Read access to the service (assertions in tests).
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Whether the current view is active.
    pub fn view_is_active(&self) -> bool {
        self.view_active
    }

    /// Initial actions when the node starts (arm the status timer and, with
    /// recovery enabled, the watchdog and key-refresh timers).
    pub fn start(&mut self) -> Vec<Action> {
        let mut out = Outbox::new();
        out.set_timer(TimerId::Status, self.config.status_interval);
        if self.config.recovery.enabled {
            self.recovery.arm_initial(self.id, &self.config, &mut out);
        }
        out.into_actions()
    }

    /// Restarts this replica after a crash (fail-stop, then reboot from
    /// durable state). Volatile state is lost: the message log contents,
    /// request queues, buffered pre-prepares, and any in-progress state
    /// transfer. Durable state survives: the service state at the last
    /// executed batch, the reply cache, checkpoints, and the view number.
    /// Tentative (uncommitted) executions are rolled back to the stable
    /// checkpoint — their commit evidence died with the log — and are
    /// redone through ordinary retransmission. Returns the startup
    /// actions; the next status exchange drives catch-up (retransmission
    /// inside the window, state transfer beyond it).
    ///
    /// This models a crash whose durable set lives in the surviving
    /// replica object (the simulator's crash model, [`bft_storage::MemStorage`]
    /// semantics). A process-level reboot instead constructs a fresh
    /// replica and calls [`Replica::recover`] with the on-disk engine.
    pub fn restart(&mut self) -> Vec<Action> {
        self.shutdown_volatile();
        self.start()
    }

    /// The crash half of [`Replica::restart`]: drops every volatile
    /// structure and rolls tentative executions back to the stable
    /// checkpoint, leaving only the durable set. Callers follow with
    /// [`Replica::start`] (restart) or [`Replica::recover`] (reboot from
    /// a storage engine).
    pub fn shutdown_volatile(&mut self) {
        let (stable, _) = self.ckpt.stable();
        self.fetch = None;
        if self.last_exec > stable {
            self.rollback_to_checkpoint(stable);
        }
        self.log.clear();
        self.queue = RequestQueue::new();
        self.ro_queue.clear();
        self.pending_pps.clear();
        self.pending_ckpts.clear();
        self.proposed.clear();
        self.executing_seq = stable;
        self.vc_timer_armed = false;
        self.vc_timeout = self.config.view_change_timeout;
    }

    /// [`Replica::on_input`] with an upstream authentication verdict
    /// (see [`crate::driver::AuthVerdict`]). A `Verified` verdict lets
    /// every authentication check during this one input short-circuit to
    /// success; the flag is cleared before returning, so it can never
    /// leak onto a later input. Safe because messages buffered for later
    /// (pending pre-prepares) are always verified *before* buffering.
    pub fn on_input_verified(
        &mut self,
        input: Input,
        verdict: crate::driver::AuthVerdict,
    ) -> Vec<Action> {
        self.preverified = verdict == crate::driver::AuthVerdict::Verified;
        let actions = self.on_input(input);
        self.preverified = false;
        actions
    }

    /// Main dispatch: handle one input, produce actions.
    pub fn on_input(&mut self, input: Input) -> Vec<Action> {
        let mut out = Outbox::new();
        match input {
            Input::Deliver(msg) => self.on_message(msg, &mut out),
            Input::Timer(TimerId::ViewChange) => self.on_view_change_timer(&mut out),
            Input::Timer(TimerId::Status) => self.on_status_timer(&mut out),
            Input::Timer(TimerId::KeyRefresh) => self.on_key_refresh_timer(&mut out),
            Input::Timer(TimerId::Watchdog) | Input::WatchdogInterrupt => {
                self.on_watchdog(&mut out)
            }
            Input::Timer(TimerId::RecoveryQuery) => self.on_recovery_query_timer(&mut out),
            Input::Timer(TimerId::FetchRetransmit) => self.on_fetch_timer(&mut out),
            Input::Timer(TimerId::ClientRetransmit) => {} // Client-side timer.
        }
        out.into_actions()
    }

    fn on_message(&mut self, msg: Message, out: &mut Outbox) {
        // Recovery estimation mode handles only a restricted message set
        // (§4.3.2: "during estimation i does not handle any other protocol
        // messages except new-key, query-stable, and status messages").
        if self.recovery.estimating()
            && !matches!(
                msg,
                Message::NewKey(_)
                    | Message::QueryStable(_)
                    | Message::ReplyStable(_)
                    | Message::StatusActive(_)
                    | Message::StatusPending(_)
            )
        {
            return;
        }
        match msg {
            Message::Request(m) => self.on_request(m, out),
            Message::PrePrepare(m) => self.on_pre_prepare(m, out),
            Message::Prepare(m) => self.on_prepare(m, out),
            Message::Commit(m) => self.on_commit(m, out),
            Message::Checkpoint(m) => self.on_checkpoint_msg(m, out),
            Message::ViewChange(m) => self.on_view_change(m, out),
            Message::ViewChangeAck(m) => self.on_view_change_ack(m, out),
            Message::NewView(m) => self.on_new_view(m, out),
            Message::NotCommitted(m) => self.on_not_committed(m, out),
            Message::NotCommittedPrimary(m) => self.on_not_committed_primary(m, out),
            Message::ViewChangePk(m) => self.on_view_change_pk(m, out),
            Message::NewViewPk(m) => self.on_new_view_pk(m, out),
            Message::StatusActive(m) => self.on_status_active(m, out),
            Message::StatusPending(m) => self.on_status_pending(m, out),
            Message::Fetch(m) => self.on_fetch(m, out),
            Message::MetaData(m) => self.on_meta_data(m, out),
            Message::Data(m) => self.on_data(m, out),
            Message::NewKey(m) => self.on_new_key(m, out),
            Message::QueryStable(m) => self.on_query_stable(m, out),
            Message::ReplyStable(m) => self.on_reply_stable(m, out),
            Message::Reply(r) => self.on_recovery_reply(r, out),
        }
    }

    // ----- authentication helpers -----

    /// Verifies a message's own `auth` field against its content, encoded
    /// in a pooled scratch buffer instead of a per-call `Vec`. Counts
    /// failures in [`ReplicaStats::auth_failures`].
    pub(crate) fn verify_auth_msg<M: bft_types::AuthContent>(
        &mut self,
        sender: NodeId,
        m: &M,
    ) -> bool {
        if self.preverified {
            return true;
        }
        let ok = self.auth.verify_msg(sender, m);
        if !ok {
            self.stats.auth_failures += 1;
        }
        ok
    }

    // ----- execution engine -----

    /// Index of the client-table page in the state tree.
    pub(crate) fn ct_page(&self) -> u64 {
        self.service.num_pages()
    }

    /// Moves the pages the last batch dirtied, and the client-table page
    /// it may have changed, into the pending set; they are written to the
    /// tree at the next checkpoint.
    pub(crate) fn collect_dirty_pages(&mut self) {
        self.pending_pages.extend(self.service.take_dirty());
        self.pending_pages.insert(self.ct_page());
    }

    /// Encodes a pending page from the live state into the tree.
    fn write_page_to_tree(&mut self, page: u64) {
        let value = if page == self.ct_page() {
            self.client_table.to_page()
        } else {
            self.service.get_page(page)
        };
        self.tree.write_page(page, value);
    }

    /// Takes the checkpoint at `seq` (§2.3.4): writes the pending pages
    /// into the tree, digests them, and records our own checkpoint, to be
    /// announced after commit (§5.1.2).
    pub(crate) fn take_checkpoint(&mut self, seq: SeqNo) {
        for page in std::mem::take(&mut self.pending_pages) {
            self.write_page_to_tree(page);
        }
        let digest = self.tree.checkpoint(seq);
        self.ckpt.record_own(seq, digest);
        self.pending_ckpts.push((seq, digest));
        self.stats.checkpoints_taken += 1;
    }

    /// Restores the service and client table from the tree's current pages
    /// (after a rollback, a completed state transfer or a snapshot
    /// install). Pages pending from batches the restore undid are dropped.
    pub(crate) fn sync_state_from_tree(&mut self) {
        for page in 0..self.service.num_pages() {
            self.service.put_page(page, self.tree.page(page));
        }
        let _ = self.service.take_dirty();
        self.pending_pages.clear();
        let ct = self.ct_page();
        if let Ok(table) = ClientTable::from_page(self.tree.page(ct)) {
            self.client_table = table;
        }
    }

    /// Executes every batch that is ready, in order (§2.3.3 in-order
    /// execution; §5.1.2 tentative execution).
    pub(crate) fn try_execute(&mut self, out: &mut Outbox) {
        // Execution pauses during a state transfer: the local state is
        // being replaced wholesale (§5.3.2), so applying batches to it
        // would interleave two histories.
        if self.fetch.is_some() {
            return;
        }
        let le_before = self.last_exec;
        loop {
            self.advance_committed_frontier();
            let next = SeqNo(self.last_exec.0 + 1);
            if !self.log.in_window(next) {
                break;
            }
            let Some(slot) = self.log.slot(next) else {
                break;
            };
            if slot.executed {
                // Already executed tentatively; nothing more to run.
                break;
            }
            let committed = slot.committed;
            let prepared = slot.prepared;
            let tentative_ok = self.config.opts.tentative_execution
                && prepared
                && self.committed_frontier.0 >= next.0 - 1;
            if !(committed || tentative_ok) {
                break;
            }
            let Some(digest) = slot.digest() else { break };
            if !self.batch_ready(&digest) {
                break; // Bodies missing; the status protocol will fetch.
            }
            let tentative = !committed;
            self.execute_batch(next, digest, tentative, out);
        }
        self.advance_committed_frontier();
        self.flush_pending_checkpoints(out);
        self.serve_read_only(out);
        // §2.3.5: the timer stops when a request executes and restarts if
        // the replica is still waiting for others — progress resets it.
        if self.last_exec > le_before && self.vc_timer_armed {
            out.set_timer(TimerId::ViewChange, self.vc_timeout);
        }
        self.update_vc_timer(out);
        // The primary may now have window room for queued requests.
        if self.is_primary() && self.view_active {
            self.maybe_send_pre_prepare(out);
        }
        self.recovery_progress_check(out);
    }

    /// True when all request bodies of a batch are available.
    pub(crate) fn batch_ready(&self, digest: &Digest) -> bool {
        match self.batches.get(digest) {
            None => false,
            Some(b) => b.requests.iter().all(|d| self.requests.contains(d)),
        }
    }

    pub(crate) fn execute_batch(
        &mut self,
        seq: SeqNo,
        digest: Digest,
        tentative: bool,
        out: &mut Outbox,
    ) {
        self.executing_seq = seq;
        self.journal.push((seq, digest));
        let batch = self
            .batches
            .get(&digest)
            .expect("checked by batch_ready")
            .clone();
        if self.storage.is_some() {
            // Write-ahead: the redo record precedes the execution.
            self.persist_batch(seq, digest, tentative, &batch);
        }
        for rd in &batch.requests {
            let req = self
                .requests
                .get(rd)
                .expect("checked by batch_ready")
                .clone();
            self.execute_request(&req, &batch.nondet, tentative, out);
        }
        self.collect_dirty_pages();
        self.last_exec = seq;
        {
            let slot = self.log.slot_mut(seq);
            slot.executed = true;
        }
        self.stats.batches_executed += 1;
        // Executing a request in the new view is the progress signal that
        // resets the exponential view-change backoff (§2.3.5).
        self.vc_timeout = self.config.view_change_timeout;
        // Checkpoint at multiples of the checkpoint interval (§2.3.4),
        // taken immediately but announced after commit (§5.1.2).
        if seq.0.is_multiple_of(self.config.checkpoint_interval) {
            self.take_checkpoint(seq);
        }
    }

    pub(crate) fn execute_request(
        &mut self,
        req: &Request,
        nondet: &Bytes,
        tentative: bool,
        out: &mut Outbox,
    ) {
        let disp =
            self.client_table
                .disposition_at(req.requester, req.timestamp, self.id, self.view);
        if req.is_recovery() {
            self.exec_trace.push(format!(
                "seq={} recreq from={:?} t={:?} disp={}",
                self.executing_seq.0,
                req.requester,
                req.timestamp,
                match &disp {
                    RequestDisposition::Execute => "execute",
                    RequestDisposition::Resend(_) => "resend",
                    RequestDisposition::AlreadyExecuted => "already",
                    RequestDisposition::Stale => "stale",
                }
            ));
        }
        match disp {
            RequestDisposition::Execute => {}
            RequestDisposition::Resend(reply) => {
                let mut reply = *reply;
                self.finish_reply(&mut reply, req);
                out.send_requester(req.requester, Message::Reply(reply));
                return;
            }
            RequestDisposition::AlreadyExecuted | RequestDisposition::Stale => return,
        }
        // Recovery requests have a protocol-defined execution (§4.3.2).
        if req.is_recovery() {
            self.execute_recovery_request(req, tentative, out);
            return;
        }
        if !self.service.has_access(req.requester, &req.operation) {
            let body = Bytes::from_static(b"access-denied");
            self.client_table
                .record(req.requester, req.timestamp, body.clone());
            self.send_reply(req, body, tentative, out);
            return;
        }
        let result = self.service.execute(req.requester, &req.operation, nondet);
        self.stats.requests_executed += 1;
        self.client_table
            .record(req.requester, req.timestamp, result.clone());
        self.send_reply(req, result, tentative, out);
    }

    /// Builds and sends the reply for an executed request, honoring the
    /// digest-replies optimization (§5.1.1).
    pub(crate) fn send_reply(
        &mut self,
        req: &Request,
        result: Bytes,
        tentative: bool,
        out: &mut Outbox,
    ) {
        let full = !self.config.opts.digest_replies
            || result.len() <= self.config.digest_reply_threshold
            || req.replier.is_none()
            || req.replier == Some(self.id);
        let body = if full {
            ReplyBody::Full(result)
        } else {
            ReplyBody::DigestOnly(bft_crypto::digest(&result))
        };
        let mut reply = Reply {
            view: self.view,
            timestamp: req.timestamp,
            requester: req.requester,
            replica: self.id,
            body,
            tentative,
            auth: bft_types::Auth::None,
        };
        self.finish_reply(&mut reply, req);
        out.send_requester(req.requester, Message::Reply(reply));
    }

    fn finish_reply(&mut self, reply: &mut Reply, req: &Request) {
        reply.replica = self.id;
        let node = crate::authn::requester_node(req.requester);
        reply.auth = self.auth.mac_to_msg(node, &reply);
    }

    /// Advances the committed frontier over contiguous committed slots.
    pub(crate) fn advance_committed_frontier(&mut self) {
        let before = self.committed_frontier;
        // Everything at or below the stable checkpoint is committed.
        let stable = self.ckpt.stable().0;
        if stable > self.committed_frontier {
            self.committed_frontier = stable;
        }
        loop {
            let next = SeqNo(self.committed_frontier.0 + 1);
            let committed = self
                .log
                .slot(next)
                .map(|s| s.committed && s.executed)
                .unwrap_or(false);
            if committed && next <= self.last_exec {
                self.committed_frontier = next;
            } else {
                break;
            }
        }
        if self.committed_frontier > before && self.storage.is_some() {
            // Promotes tentative executions at or below the frontier on
            // replay (§5.1.2 commit evidence, made durable).
            let upto = self.committed_frontier;
            self.persist_commit(upto);
        }
    }

    /// Sends deferred checkpoint messages once their batch has committed.
    fn flush_pending_checkpoints(&mut self, out: &mut Outbox) {
        let frontier = self.committed_frontier;
        let ready: Vec<(SeqNo, Digest)> = self
            .pending_ckpts
            .iter()
            .filter(|(s, _)| *s <= frontier)
            .copied()
            .collect();
        self.pending_ckpts.retain(|(s, _)| *s > frontier);
        for (seq, digest) in ready {
            let mut m = bft_types::Checkpoint {
                seq,
                digest,
                replica: self.id,
                auth: bft_types::Auth::None,
            };
            m.auth = self.auth.authenticate_multicast_hot(&m);
            out.multicast(Message::Checkpoint(m.clone()));
            // Count our own vote.
            if let Some(stable) = self.ckpt.add_vote(seq, digest, self.id) {
                self.on_new_stable(stable, out);
            }
        }
    }

    /// Serves queued read-only requests when the executed state is fully
    /// committed (§5.1.3).
    fn serve_read_only(&mut self, out: &mut Outbox) {
        if self.ro_queue.is_empty() || self.last_exec > self.committed_frontier {
            return;
        }
        let ready = std::mem::take(&mut self.ro_queue);
        for req in ready {
            if !self.service.is_read_only(&req.operation)
                || !self.service.has_access(req.requester, &req.operation)
            {
                // Faulty client marked a mutating op read-only: ignore; it
                // can retransmit as read-write (§5.1.3).
                continue;
            }
            let result = self.service.execute(req.requester, &req.operation, b"");
            // Drained in every build, so debug and release replicas flush
            // the same pages even if a service breaks the contract.
            let dirty = self.service.take_dirty();
            debug_assert!(dirty.is_empty(), "read-only op must not modify state");
            self.pending_pages.extend(dirty);
            // Read-only replies are collected as a quorum certificate by
            // the client, like tentative replies (§5.1.3).
            self.send_reply(&req, result, true, out);
        }
    }

    /// Garbage collection when a checkpoint becomes stable (§2.3.4).
    pub(crate) fn on_new_stable(&mut self, stable: (SeqNo, Digest), out: &mut Outbox) {
        let (seq, digest) = stable;
        let have_state = self.tree.snapshot_root(seq) == Some(digest);
        // A pending plain transfer toward an older checkpoint is obsolete
        // only if we actually hold the newer state (votes alone prove the
        // quorum has it, not that we do).
        match &self.fetch {
            Some(f) if !f.checking && f.target_seq <= seq && have_state => {
                self.fetch = None;
                out.cancel_timer(crate::actions::TimerId::FetchRetransmit);
            }
            Some(f) if !f.checking && f.target_seq < seq && !have_state => {
                // Re-target the transfer to the newer stable checkpoint.
                self.fetch = None;
                self.start_state_transfer(seq, Some(digest), out);
            }
            None if !have_state && seq > self.last_exec => {
                // The quorum certified a checkpoint we never produced: our
                // state is behind; fetch it (§5.3.2).
                self.start_state_transfer(seq, Some(digest), out);
            }
            _ => {}
        }
        if have_state && self.storage.is_some() {
            // Snapshot + WAL truncation at the stable checkpoint (the
            // paper's stable-storage set shrinks to snapshot + tail).
            self.persist_stable_checkpoint(seq, digest);
        }
        self.log.advance_low(seq);
        self.tree.discard_below(seq);
        self.pending_ckpts.retain(|(s, _)| *s > seq);
        // Drop request/batch bodies no longer referenced by live slots.
        let live: bft_fxhash::DigestSet<Digest> =
            self.log.iter().filter_map(|(_, s)| s.digest()).collect();
        let live_reqs: bft_fxhash::DigestSet<Digest> = self
            .log
            .iter()
            .filter_map(|(_, s)| s.pre_prepare.as_ref())
            .flat_map(|p| p.request_digests())
            .chain(self.vc.referenced_digests())
            // Queued and buffered requests have not been ordered yet: their
            // bodies must survive (separate transmission delivers bodies
            // long before the pre-prepare referencing them, §5.1.5).
            .chain(self.queue.digests())
            .chain(self.pending_pps.iter().flat_map(|p| p.request_digests()))
            // Batch digests double as request-digest roots for redo.
            .chain(
                self.log
                    .iter()
                    .filter_map(|(_, s)| s.digest())
                    .filter_map(|d| self.batches.get(&d).map(|b| b.requests.clone()))
                    .flatten(),
            )
            .collect();
        let vc_batches: bft_fxhash::DigestSet<Digest> = self.vc.referenced_digests().collect();
        self.batches
            .retain(|d| live.contains(d) || vc_batches.contains(d));
        let client_table = &self.client_table;
        self.requests.retain(|d, r| {
            // Keep referenced bodies and any body not yet executed: a
            // pre-prepare referencing it may still be in flight (§5.1.5
            // delivers bodies well before the ordering message).
            live_reqs.contains(d) || r.timestamp > client_table.last_timestamp(r.requester)
        });
        self.prune_stale_queue(out);
        self.advance_committed_frontier();
        self.try_execute_noreenter(out);
        self.recovery_progress_check(out);
    }

    /// Drops queued requests the reply cache has already executed. The
    /// queue normally drains when this replica sees the ordering
    /// pre-prepares, but a replica that catches up by state transfer (or
    /// learns a stable checkpoint while its slots were discarded) installs
    /// the advanced client table without ever seeing those pre-prepares;
    /// the stale entries would keep [`Replica::waiting_for_requests`] true
    /// and the view-change timer armed forever.
    pub(crate) fn prune_stale_queue(&mut self, out: &mut Outbox) {
        if self.queue.is_empty() {
            return;
        }
        let table = &self.client_table;
        let removed = self
            .queue
            .prune(|r| r.timestamp <= table.last_timestamp(r.requester));
        if removed > 0 {
            self.update_vc_timer(out);
        }
    }

    /// `try_execute` without the trailing hooks (used from paths already
    /// inside `try_execute`-adjacent processing to avoid re-entrance).
    fn try_execute_noreenter(&mut self, out: &mut Outbox) {
        if self.fetch.is_some() {
            return;
        }
        loop {
            self.advance_committed_frontier();
            let next = SeqNo(self.last_exec.0 + 1);
            if !self.log.in_window(next) {
                break;
            }
            let ready = match self.log.slot(next) {
                Some(s) if !s.executed => {
                    let tentative_ok = self.config.opts.tentative_execution
                        && s.prepared
                        && self.committed_frontier.0 >= next.0 - 1;
                    if s.committed || tentative_ok {
                        s.digest()
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let Some(digest) = ready else { break };
            if !self.batch_ready(&digest) {
                break;
            }
            let tentative = !self.log.slot(next).map(|s| s.committed).unwrap_or(false);
            self.execute_batch(next, digest, tentative, out);
        }
    }

    // ----- view-change timer discipline (§2.3.5 liveness) -----

    /// True when this replica is waiting for some request to execute.
    pub(crate) fn waiting_for_requests(&self) -> bool {
        if !self.queue.is_empty() {
            return true;
        }
        // An ordered but unexecuted batch also counts as waiting.
        self.log
            .iter()
            .any(|(n, s)| s.pre_prepare.is_some() && !s.executed && n > self.last_exec)
    }

    /// Arms, re-arms, or cancels the view-change timer per the fairness
    /// rules: running iff we are waiting for a request to execute.
    ///
    /// Only applies in an *active* view. While a view change is pending
    /// the timer belongs to liveness rule 1 (§2.3.5): it is armed when a
    /// quorum of view-change messages for the pending view arrives and
    /// must keep running until the new-view installs — if this method
    /// canceled it (nothing is "waiting" by the active-view definition),
    /// a faulty or recovering new primary would wedge the group in the
    /// pending view forever.
    pub(crate) fn update_vc_timer(&mut self, out: &mut Outbox) {
        if !self.view_active {
            return;
        }
        let should_run = self.waiting_for_requests();
        if should_run && !self.vc_timer_armed {
            out.set_timer(TimerId::ViewChange, self.vc_timeout);
            self.vc_timer_armed = true;
        } else if !should_run && self.vc_timer_armed {
            out.cancel_timer(TimerId::ViewChange);
            self.vc_timer_armed = false;
        }
    }

    // ----- fault-injection hooks (simulator / tests only) -----

    /// Generates a valid multicast authenticator or signature over
    /// arbitrary content. Models the adversary using a compromised
    /// replica's own keys — a capability every Byzantine replica has.
    pub fn forge_multicast_auth(&mut self, content: &[u8]) -> bft_types::Auth {
        self.auth.authenticate_multicast(content)
    }

    /// Generates a valid point-to-point MAC over arbitrary content
    /// (compromised-replica capability, see
    /// [`Replica::forge_multicast_auth`]).
    pub fn forge_mac(&mut self, to: NodeId, content: &[u8]) -> bft_types::Auth {
        self.auth.mac_to(to, content)
    }

    /// Overwrites a state page *without* updating digests, modeling an
    /// attacker corrupting a replica's state on disk (§4.1: the recovery
    /// state check detects and repairs exactly this).
    pub fn corrupt_state_page(&mut self, page: u64, value: Bytes) {
        // A page modified since the last checkpoint reaches the tree first,
        // so the corruption replaces its executed value while copy-on-write
        // keeps the checkpoint's.
        if self.pending_pages.remove(&page) {
            self.write_page_to_tree(page);
        }
        self.tree.corrupt_page_data(page, value.clone());
        if page < self.service.num_pages() {
            self.service.put_page(page, &value);
            // Drop the corruption's own dirty mark, the only one: batches
            // drain theirs into `pending_pages`, which keeps the pages
            // executed since the last checkpoint.
            let _ = self.service.take_dirty();
        }
    }

    /// Debug snapshot of log slots: (seq, view, has-digest, prepared,
    /// committed, executed).
    pub fn debug_slots(&self) -> Vec<(u64, u64, bool, bool, bool, bool)> {
        self.log
            .iter()
            .map(|(n, s)| {
                (
                    n.0,
                    s.view.0,
                    s.digest().is_some(),
                    s.prepared,
                    s.committed,
                    s.executed,
                )
            })
            .collect()
    }

    /// Debug: our own checkpoint digests currently retained.
    pub fn debug_own_checkpoints(&self) -> Vec<(SeqNo, Digest)> {
        self.ckpt.own_checkpoints()
    }

    /// Debug: vote count for a checkpoint.
    pub fn debug_ckpt_votes(&self, seq: SeqNo, digest: Digest) -> usize {
        self.ckpt.vote_count(seq, digest)
    }

    /// Debug: page value and (lm, digest) at a retained checkpoint.
    pub fn debug_page_at(&self, seq: SeqNo, page: u64) -> Option<(Bytes, SeqNo, Digest)> {
        let v = self.tree.page_at(seq, page)?;
        let (lm, d) = self.tree.page_info_at(seq, page)?;
        Some((v, lm, d))
    }

    /// Debug: number of state pages (service + client table).
    pub fn debug_num_pages(&self) -> u64 {
        self.tree.num_pages()
    }

    /// Debug: why is `seq` not executing? Returns a diagnostic string.
    pub fn debug_exec_blocker(&self, seq: SeqNo) -> String {
        if self.fetch.is_some() {
            return "fetch active".into();
        }
        let Some(slot) = self.log.slot(seq) else {
            return "no slot".into();
        };
        let Some(d) = slot.digest() else {
            return "no digest".into();
        };
        let have_batch = self.batches.get(&d).is_some();
        let missing: Vec<String> = self
            .batches
            .get(&d)
            .map(|b| {
                b.requests
                    .iter()
                    .filter(|r| !self.requests.contains(r))
                    .map(|r| format!("{r:?}"))
                    .collect()
            })
            .unwrap_or_default();
        format!(
            "prepared={} committed={} executed={} have_batch={have_batch} missing_reqs={missing:?} ro_queue={} cf={} le={}",
            slot.prepared, slot.committed, slot.executed,
            self.ro_queue.len(), self.committed_frontier, self.last_exec
        )
    }

    /// Debug: summary of the accepted new-view decision, if any.
    pub fn debug_new_view(&self) -> Option<String> {
        self.vc.new_view.as_ref().map(|nv| {
            let null = bft_types::null_request_digest();
            let entries: Vec<String> = nv
                .decision
                .chosen
                .iter()
                .map(|(n, d)| format!("{}{}", n.0, if *d == null { "∅" } else { "" }))
                .collect();
            format!(
                "view={} ckpt={} chosen=[{}]",
                nv.view.0,
                nv.decision.checkpoint.0 .0,
                entries.join(",")
            )
        })
    }

    /// Debug: sizes of buffers relevant to stalls.
    pub fn debug_buffers(&self) -> String {
        format!(
            "pending_pps={:?} queue={} seqno={} ro={}",
            self.pending_pps.iter().map(|p| p.seq.0).collect::<Vec<_>>(),
            self.queue.len(),
            self.seqno.0,
            self.ro_queue.len()
        )
    }

    /// Debug: current fetch state summary.
    pub fn debug_fetch(&self) -> Option<String> {
        self.fetch.as_ref().map(|f| {
            format!(
                "target={} d={:?} queue={} in_flight={:?} pages={} checking={}",
                f.target_seq,
                f.target_digest,
                f.queue.len(),
                f.in_flight.as_ref().map(|p| (p.level, p.index)),
                f.pages_fetched,
                f.checking
            )
        })
    }

    /// True while this replica is recovering (BFT-PR).
    pub fn is_recovering(&self) -> bool {
        self.recovery.recovering()
    }

    /// Bytes and pages fetched by the last/ongoing state transfer.
    pub fn fetch_progress(&self) -> Option<(u64, u64)> {
        self.fetch
            .as_ref()
            .map(|f| (f.pages_fetched, f.bytes_fetched))
    }

    /// Rolls the replica state back to checkpoint `seq` (view-change abort
    /// of tentative executions, §5.1.2).
    pub(crate) fn rollback_to_checkpoint(&mut self, seq: SeqNo) {
        if self.last_exec <= seq {
            return;
        }
        self.tree.rollback_to(seq);
        self.sync_state_from_tree();
        self.last_exec = seq;
        if self.committed_frontier > seq {
            self.committed_frontier = seq;
        }
        self.pending_ckpts.retain(|(s, _)| *s <= seq);
    }
}
