//! The MAC worker pool: the runtime's multi-core data plane.
//!
//! The paper's normal-case cost is dominated by MAC computation (§8.1),
//! and MACs are embarrassingly parallel per message — but the protocol
//! state machine is single-threaded by design (messages share `Rc`
//! bodies and are `!Send`). The pool ships *bytes*, never records, and
//! hangs off the node's event loop: the loop submits jobs and collects
//! results, and workers wake the loop's endpoint through its [`Waker`].
//!
//! * **Inbound:** [`MacPool::verify`] stamps a payload with a token and
//!   round-robins it to a worker, which decodes its own copy, runs
//!   [`bft_core::preverify()`] against its own [`AuthState`] (same
//!   deterministic [`ClusterKeys`], so key tables agree), and returns
//!   the verdict. [`MacPool::verified`] releases verdicts in token
//!   order, so the replica consumes inputs in exact arrival order: the
//!   pool changes *where* MACs are checked, never the delivery order.
//! * **Outbound:** a message authored with a deferred authenticator
//!   (nonce-only placeholder, see `Message::deferred_auth_parts`) goes
//!   to a worker as `(variant, content bytes, nonce)`; the worker
//!   computes the per-receiver tags with prebuilt [`MacContext`]s and
//!   rebuilds the exact wire frame (every message encodes `auth` last).
//!   Ready frames take tokens from the same sequence, and
//!   [`MacPool::release`] hands frames out in token order, so deferral
//!   never reorders a node's output stream.
//!
//! The pool assumes static session keys: the runtime refuses to enable
//! it when proactive recovery (key refreshment, §4.3.1) is configured.

use crate::transport::Waker;
use bft_core::authn::AuthState;
use bft_core::{preverify, AuthVerdict, ClusterKeys, ReplicaConfig};
use bft_crypto::{Authenticator, MacContext};
use bft_types::framing::frame_payload;
use bft_types::{Auth, Message, NodeId, ReplicaId, Wire};
use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

enum Job {
    /// Verify one inbound payload's authentication.
    Verify { token: u64, payload: Vec<u8> },
    /// Compute a deferred outbound authenticator and assemble the frame.
    Author {
        token: u64,
        variant: u8,
        content: Vec<u8>,
        nonce: u64,
        dests: Vec<NodeId>,
    },
}

/// An outbound frame ready for the wire, with its destinations.
type Outgoing = (Vec<u8>, Vec<NodeId>);

/// A finished job, tagged with its token.
enum Done {
    Verified(u64, Vec<u8>, AuthVerdict),
    Authored(u64, Outgoing),
}

/// Releases items in the order their tokens were handed out, whatever order
/// they complete in.
struct Reorder<T> {
    handed_out: u64,
    released: u64,
    done: BTreeMap<u64, T>,
}

impl<T> Reorder<T> {
    fn new() -> Self {
        Reorder {
            handed_out: 0,
            released: 0,
            done: BTreeMap::new(),
        }
    }

    fn token(&mut self) -> u64 {
        self.handed_out += 1;
        self.handed_out - 1
    }

    fn complete(&mut self, token: u64, item: T) {
        self.done.insert(token, item);
    }

    /// The next item in token order, once it has completed.
    fn pop(&mut self) -> Option<T> {
        let item = self.done.remove(&self.released)?;
        self.released += 1;
        Some(item)
    }
}

/// Handle owned by the protocol thread. See the module docs.
pub struct MacPool {
    job_txs: Vec<Sender<Job>>,
    next_worker: usize,
    done_rx: Receiver<Done>,
    inbound: Reorder<(Vec<u8>, AuthVerdict)>,
    outbound: Reorder<Outgoing>,
    joins: Vec<JoinHandle<()>>,
}

impl MacPool {
    /// Starts `workers` worker threads named `{name}{w}`; each wakes
    /// `waker` whenever it finishes a job.
    pub fn start(
        workers: usize,
        me: ReplicaId,
        config: &ReplicaConfig,
        keys: &ClusterKeys,
        name: &str,
        waker: Waker,
    ) -> MacPool {
        assert!(workers > 0, "MacPool needs at least one worker");
        let (done_tx, done_rx) = mpsc::channel();
        let mut job_txs = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for w in 0..workers {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            job_txs.push(job_tx);
            let (done_tx, waker) = (done_tx.clone(), waker.clone());
            let keys = keys.clone();
            let config = config.clone();
            joins.push(
                std::thread::Builder::new()
                    .name(format!("{name}{w}"))
                    .spawn(move || worker_loop(me, &config, &keys, job_rx, done_tx, waker))
                    .expect("spawn mac worker"),
            );
        }
        MacPool {
            job_txs,
            next_worker: 0,
            done_rx,
            inbound: Reorder::new(),
            outbound: Reorder::new(),
            joins,
        }
    }

    fn next_worker(&mut self) -> &Sender<Job> {
        let w = self.next_worker;
        self.next_worker = (w + 1) % self.job_txs.len();
        &self.job_txs[w]
    }

    /// Submits an inbound payload for verification; it comes back from
    /// [`MacPool::verified`] in submission order.
    pub fn verify(&mut self, payload: Vec<u8>) {
        let token = self.inbound.token();
        let _ = self.next_worker().send(Job::Verify { token, payload });
    }

    /// Verified payloads whose turn has come, in submission order.
    pub fn verified(&mut self) -> Vec<(Vec<u8>, AuthVerdict)> {
        self.collect();
        std::iter::from_fn(|| self.inbound.pop()).collect()
    }

    /// Moves finished jobs into their reorder buffers.
    fn collect(&mut self) {
        for done in self.done_rx.try_iter() {
            match done {
                Done::Verified(token, payload, v) => self.inbound.complete(token, (payload, v)),
                Done::Authored(token, out) => self.outbound.complete(token, out),
            }
        }
    }

    /// Sends a fully authenticated frame; it takes its place in the
    /// output order behind any deferred frames submitted before it.
    pub fn send_ready(&mut self, frame: Vec<u8>, dests: Vec<NodeId>) {
        let token = self.outbound.token();
        self.outbound.complete(token, (frame, dests));
    }

    /// Submits a deferred-authenticator message for worker-side MAC
    /// computation and frame assembly.
    pub fn send_deferred(&mut self, variant: u8, content: Vec<u8>, nonce: u64, dests: Vec<NodeId>) {
        let token = self.outbound.token();
        let job = Job::Author {
            token,
            variant,
            content,
            nonce,
            dests,
        };
        let _ = self.next_worker().send(job);
    }

    /// Hands every outbound frame whose turn has come to `emit`, in
    /// submission order.
    pub fn release(&mut self, mut emit: impl FnMut(&[u8], &[NodeId])) {
        self.collect();
        while let Some((frame, dests)) = self.outbound.pop() {
            emit(&frame, &dests);
        }
    }

    /// Stops and joins every worker.
    pub fn shutdown(self) {
        let MacPool { job_txs, joins, .. } = self;
        drop(job_txs);
        for join in joins {
            let _ = join.join();
        }
    }
}

/// One pool worker: owns an independent [`AuthState`] (same
/// deterministic key material as the replica) for inbound verification
/// and per-receiver [`MacContext`]s for outbound authoring. Wakes the
/// loop after every finished job; exits when the pool drops its job
/// channel.
fn worker_loop(
    me: ReplicaId,
    config: &ReplicaConfig,
    keys: &ClusterKeys,
    jobs: Receiver<Job>,
    done: Sender<Done>,
    waker: Waker,
) {
    let auth = AuthState::new(
        config.auth,
        NodeId::Replica(me),
        config.group,
        config.num_clients,
        keys,
    );
    // Authenticator slot j is MACed under the out key for replica j —
    // exactly the key list `AuthState::authenticate_multicast` uses.
    let macs: Vec<MacContext> = (0..config.group.n)
        .map(|j| MacContext::new(&auth.keys.out_key(j)))
        .collect();
    for job in jobs.iter() {
        let sent = match job {
            Job::Verify { token, payload } => {
                let verdict = {
                    let mut slice = payload.as_slice();
                    match Message::decode(&mut slice) {
                        // A worker-side decode is this thread's own copy;
                        // the `!Send` record never leaves the worker.
                        Ok(msg) if slice.is_empty() => preverify(&auth, &msg),
                        _ => AuthVerdict::Unverified,
                    }
                };
                // Every Verify job must complete exactly once or the
                // protocol thread's reorder buffer stalls.
                done.send(Done::Verified(token, payload, verdict)).is_ok()
            }
            Job::Author {
                token,
                variant,
                content,
                nonce,
                dests,
            } => {
                let nb = nonce.to_le_bytes();
                let tags = macs.iter().map(|c| c.mac_parts(&[&nb, &content])).collect();
                // Rebuild the exact wire payload: variant tag, then the
                // content bytes (every field but auth), then the real
                // authenticator where the placeholder would have gone.
                let auth_field = Auth::Authenticator(Authenticator { nonce, tags });
                let mut payload = Vec::with_capacity(1 + content.len() + 16 + config.group.n * 9);
                payload.push(variant);
                payload.extend_from_slice(&content);
                auth_field.encode(&mut payload);
                let frame = frame_payload(&payload);
                done.send(Done::Authored(token, (frame, dests))).is_ok()
            }
        };
        if !sent {
            return;
        }
        waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_core::authn::client_node;
    use bft_core::config::AuthMode;
    use bft_types::framing::frame_bytes;
    use bft_types::{AuthContent, Commit, SeqNo, View};

    /// A worker-assembled frame must be byte-identical to the frame of
    /// the same message authenticated inline with the same nonce —
    /// receivers cannot tell deferred and inline authentication apart.
    #[test]
    fn authored_frame_matches_inline_encoding() {
        let config = ReplicaConfig::small(1);
        let keys = ClusterKeys::generate(config.group, config.num_clients, 128, 42);
        let auth = AuthState::new(
            AuthMode::Macs,
            NodeId::Replica(ReplicaId(1)),
            config.group,
            config.num_clients,
            &keys,
        );
        let mut inline = Commit {
            view: View(3),
            seq: SeqNo(17),
            digest: bft_crypto::digest(b"batch"),
            replica: ReplicaId(1),
            auth: Auth::None,
        };
        let nonce = 0xDEAD_BEEF;
        let real = inline.for_content(|c| {
            Authenticator::generate(
                &(0..config.group.n)
                    .map(|j| auth.keys.out_key(j))
                    .collect::<Vec<_>>(),
                nonce,
                c,
            )
        });
        inline.auth = Auth::Authenticator(real);
        let expected = frame_bytes(&Message::Commit(inline.clone()));

        // The worker path: placeholder message → (variant, content,
        // nonce) → MacContext tags → reassembled payload.
        let mut deferred = inline.clone();
        deferred.auth = Auth::Authenticator(Authenticator {
            nonce,
            tags: Vec::new(),
        });
        let (variant, content, got_nonce) = Message::Commit(deferred)
            .deferred_auth_parts()
            .expect("placeholder is deferred");
        assert_eq!(got_nonce, nonce);
        let macs: Vec<MacContext> = (0..config.group.n)
            .map(|j| MacContext::new(&auth.keys.out_key(j)))
            .collect();
        let nb = got_nonce.to_le_bytes();
        let tags = macs.iter().map(|c| c.mac_parts(&[&nb, &content])).collect();
        let mut payload = Vec::new();
        payload.push(variant);
        payload.extend_from_slice(&content);
        Auth::Authenticator(Authenticator {
            nonce: got_nonce,
            tags,
        })
        .encode(&mut payload);
        assert_eq!(frame_payload(&payload), expected);
    }

    /// Inline-authenticated messages (and anything already carrying real
    /// tags) are not deferred.
    #[test]
    fn complete_auth_is_not_deferred() {
        let config = ReplicaConfig::small(1);
        let keys = ClusterKeys::generate(config.group, config.num_clients, 128, 42);
        let mut auth = AuthState::new(
            AuthMode::Macs,
            NodeId::Replica(ReplicaId(0)),
            config.group,
            config.num_clients,
            &keys,
        );
        let mut c = Commit {
            view: View(0),
            seq: SeqNo(1),
            digest: bft_crypto::digest(b"x"),
            replica: ReplicaId(0),
            auth: Auth::None,
        };
        assert!(Message::Commit(c.clone()).deferred_auth_parts().is_none());
        c.auth = auth.authenticate_multicast_msg(&c);
        assert!(Message::Commit(c).deferred_auth_parts().is_none());
    }

    /// End-to-end pool sanity: deferred frames reach a peer in
    /// submission order, interleaved ready frames included, and inbound
    /// verification verdicts come back in token order.
    #[test]
    fn pool_orders_output_and_verifies_input() {
        use crate::transport::{Endpoint, Transport};
        use std::net::TcpListener;
        use std::time::{Duration, Instant};
        let config = ReplicaConfig::small(1);
        let keys = ClusterKeys::generate(config.group, config.num_clients, 128, 42);
        // A listener-backed transport on the receiving end captures what
        // the pool releases.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let receiver = NodeId::Replica(ReplicaId(2));
        let (recv_tx, recv_rx) = mpsc::channel();
        let t_recv = Transport::start(receiver, Some(l), vec![], recv_tx);
        let sender = NodeId::Replica(ReplicaId(1));
        let t_send = Transport::start(sender, None, vec![(receiver, addr)], mpsc::channel().0);

        // Workers wake this endpoint's poll, as they wake a node's loop.
        let mut ep = Endpoint::new(vec![sender], None, vec![], None).unwrap();
        let mut pool = MacPool::start(2, ReplicaId(1), &config, &keys, "pbft-test-mac", ep.waker());
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut wait = move || {
            assert!(Instant::now() < deadline, "pool made no progress");
            ep.poll(Duration::from_millis(100), &mut Vec::new());
        };

        // Outbound: two deferred commits with a ready frame between
        // them. All three must arrive, in submission order.
        for seq in [1u64, 2] {
            let c = Commit {
                view: View(0),
                seq: SeqNo(seq),
                digest: bft_crypto::digest(b"x"),
                replica: ReplicaId(1),
                auth: Auth::Authenticator(Authenticator {
                    nonce: seq,
                    tags: Vec::new(),
                }),
            };
            let (variant, content, nonce) =
                Message::Commit(c).deferred_auth_parts().expect("deferred");
            pool.send_deferred(variant, content, nonce, vec![receiver]);
            if seq == 1 {
                pool.send_ready(
                    frame_bytes(&Message::Commit(Commit {
                        view: View(0),
                        seq: SeqNo(100),
                        digest: bft_crypto::digest(b"ready"),
                        replica: ReplicaId(1),
                        auth: Auth::None,
                    })),
                    vec![receiver],
                );
            }
        }
        let mut released = 0;
        while released < 3 {
            pool.release(|frame, dests| {
                released += 1;
                for &dest in dests {
                    t_send.send(dest, std::sync::Arc::new(frame.to_vec()));
                }
            });
            if released < 3 {
                wait();
            }
        }
        let mut seqs = Vec::new();
        for _ in 0..3 {
            let payload = recv_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("dispatched frame");
            let mut slice = payload.as_slice();
            let Ok(Message::Commit(c)) = Message::decode(&mut slice) else {
                panic!("expected commit");
            };
            seqs.push(c.seq.0);
            if c.seq.0 <= 2 {
                // Deferred frames carry a full, verifying authenticator.
                let verifier = AuthState::new(
                    AuthMode::Macs,
                    receiver,
                    config.group,
                    config.num_clients,
                    &keys,
                );
                assert!(verifier.verify_msg(NodeId::Replica(ReplicaId(1)), &c));
            }
        }
        assert_eq!(seqs, vec![1, 100, 2], "submission order preserved");

        // Inbound: a valid request from a client verifies; a garbage
        // payload comes back Unverified; order is token order.
        let mut client_auth = AuthState::new(
            AuthMode::Macs,
            client_node(1),
            config.group,
            config.num_clients,
            &keys,
        );
        let mut req = bft_types::Request {
            requester: bft_types::Requester::Client(bft_types::ClientId(1)),
            timestamp: bft_types::Timestamp(1),
            operation: bytes::Bytes::from_static(b"op"),
            read_only: false,
            replier: None,
            auth: Auth::None,
            digest_memo: bft_types::DigestMemo::new(),
        };
        req.auth = client_auth.authenticate_multicast_msg(&req);
        let mut good = Vec::new();
        Message::Request(req).encode(&mut good);
        pool.verify(good.clone());
        pool.verify(vec![0xFF, 0xFF]);
        let mut got = pool.verified();
        while got.len() < 2 {
            wait();
            got.extend(pool.verified());
        }
        assert_eq!(got[0].0, good);
        assert_eq!(got[0].1, AuthVerdict::Verified);
        assert_eq!(got[1].1, AuthVerdict::Unverified);

        t_send.shutdown();
        pool.shutdown();
        t_recv.shutdown();
    }
}
