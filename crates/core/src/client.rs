//! The client proxy (§2.3.2, §6.2): issues requests, collects reply
//! certificates, and retransmits with exponential backoff (§5.2).

use crate::actions::{Action, Input, Outbox, TimerId};
use crate::authn::{AuthState, ClusterKeys};
use crate::config::AuthMode;
use bft_crypto::Digest;
use bft_fxhash::{DigestMap, FastMap};
use bft_types::{
    Auth, ClientId, GroupParams, Message, NodeId, ReplicaId, Reply, ReplyBody, Request, Requester,
    SimDuration, Timestamp, View,
};
use bytes::Bytes;

/// Client-side configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Group parameters.
    pub group: GroupParams,
    /// Number of clients provisioned in the key tables.
    pub num_clients: u32,
    /// Authentication mode (must match the replicas').
    pub auth: AuthMode,
    /// Initial retransmission timeout (grows exponentially, §5.2).
    pub retransmit_timeout: SimDuration,
    /// Requests above this size are multicast to all replicas (§5.1.5).
    pub inline_threshold: usize,
    /// Ask one designated replica for the full result (§5.1.1).
    pub digest_replies: bool,
}

impl ClientConfig {
    /// Derives client configuration from a replica configuration.
    pub fn from_replica(rc: &crate::config::ReplicaConfig) -> Self {
        ClientConfig {
            group: rc.group,
            num_clients: rc.num_clients,
            auth: rc.auth,
            retransmit_timeout: SimDuration::from_micros(rc.view_change_timeout.as_micros() / 2),
            inline_threshold: rc.inline_threshold,
            digest_replies: rc.opts.digest_replies,
        }
    }
}

/// The outcome of a completed operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletedOp {
    /// The request timestamp.
    pub timestamp: Timestamp,
    /// The agreed result.
    pub result: Bytes,
    /// Number of retransmissions that were needed.
    pub retransmissions: u32,
}

/// An in-flight operation.
#[derive(Debug)]
struct Pending {
    request: Request,
    /// Per-replica replies: (result digest, tentative, full body if sent).
    replies: FastMap<ReplicaId, (Digest, bool, Option<Bytes>)>,
    retransmissions: u32,
}

/// The client proxy.
pub struct ClientProxy {
    /// This client's identifier.
    pub id: ClientId,
    config: ClientConfig,
    auth: AuthState,
    /// Highest view observed in valid replies (tracks the primary).
    view: View,
    last_t: Timestamp,
    pending: Option<Pending>,
    timeout: SimDuration,
}

impl ClientProxy {
    /// Creates a client proxy.
    pub fn new(id: ClientId, config: ClientConfig, keys: &ClusterKeys) -> Self {
        let auth = AuthState::new(
            config.auth,
            NodeId::Client(id),
            config.group,
            config.num_clients,
            keys,
        );
        ClientProxy {
            id,
            timeout: config.retransmit_timeout,
            config,
            auth,
            view: View(0),
            last_t: Timestamp(0),
            pending: None,
        }
    }

    /// The view this client believes is current.
    pub fn view(&self) -> View {
        self.view
    }

    /// True when an operation is in flight.
    pub fn busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Retransmissions of the operation in flight so far (0 when idle).
    pub fn pending_retransmissions(&self) -> u32 {
        self.pending.as_ref().map_or(0, |p| p.retransmissions)
    }

    /// Timestamp of the last issued request.
    pub fn last_timestamp(&self) -> Timestamp {
        self.last_t
    }

    /// Issues an operation (§6.2 `invoke`). The client must not have
    /// another operation in flight (the thesis assumes clients wait for
    /// one request to complete before sending the next).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn invoke(&mut self, operation: Bytes, read_only: bool) -> Vec<Action> {
        assert!(self.pending.is_none(), "one operation at a time");
        self.last_t = self.last_t.next();
        let replier = if self.config.digest_replies {
            // Deterministic load balancing across replicas (§5.1.1).
            Some(ReplicaId(
                ((self.id.0 as u64 + self.last_t.0) % self.config.group.n as u64) as u32,
            ))
        } else {
            None
        };
        let mut req = Request {
            requester: Requester::Client(self.id),
            timestamp: self.last_t,
            operation,
            read_only,
            replier,
            auth: Auth::None,
            digest_memo: bft_types::DigestMemo::new(),
        };
        req.auth = self.auth.authenticate_multicast_msg(&req);
        self.pending = Some(Pending {
            request: req.clone(),
            replies: FastMap::default(),
            retransmissions: 0,
        });
        self.timeout = self.config.retransmit_timeout;
        let mut out = Outbox::new();
        // Read-only requests and large requests go to all replicas
        // (§5.1.3, §5.1.5); others to the believed primary only.
        if read_only || req.operation.len() > self.config.inline_threshold {
            out.multicast(Message::Request(req));
        } else {
            let primary = self.view.primary(self.config.group.n);
            out.send_replica(primary, Message::Request(req));
        }
        out.set_timer(TimerId::ClientRetransmit, self.timeout);
        out.into_actions()
    }

    /// Handles an input; returns actions plus the completed operation when
    /// the reply certificate is assembled.
    pub fn on_input(&mut self, input: Input) -> (Vec<Action>, Option<CompletedOp>) {
        let mut out = Outbox::new();
        let mut done = None;
        match input {
            Input::Deliver(Message::Reply(r)) => {
                done = self.on_reply(r);
                if done.is_some() {
                    out.cancel_timer(TimerId::ClientRetransmit);
                }
            }
            Input::Deliver(_) => {}
            Input::Timer(TimerId::ClientRetransmit) => self.on_retransmit(&mut out),
            Input::Timer(_) | Input::WatchdogInterrupt => {}
        }
        (out.into_actions(), done)
    }

    fn on_reply(&mut self, r: Reply) -> Option<CompletedOp> {
        let pending = self.pending.as_mut()?;
        if r.timestamp != pending.request.timestamp || r.requester != Requester::Client(self.id) {
            return None;
        }
        if !self.auth.verify_msg(NodeId::Replica(r.replica), &r) {
            return None;
        }
        if r.view > self.view {
            self.view = r.view;
        }
        let digest = r.body.result_digest();
        let body = match &r.body {
            ReplyBody::Full(b) => Some(b.clone()),
            ReplyBody::DigestOnly(_) => None,
        };
        pending
            .replies
            .insert(r.replica, (digest, r.tentative, body));
        // Certificate rules (§2.3.2, §5.1.2): f+1 matching non-tentative
        // replies, or a quorum (2f+1) of matching replies when any is
        // tentative (tentative executions may abort) or the operation was
        // read-only.
        let group = self.config.group;
        let mut counts: DigestMap<Digest, (usize, usize)> = DigestMap::default();
        for (d, tentative, _) in pending.replies.values() {
            let e = counts.entry(*d).or_default();
            e.0 += 1;
            if !*tentative {
                e.1 += 1;
            }
        }
        for (d, (total, non_tentative)) in counts {
            let enough = non_tentative >= group.weak() || total >= group.quorum();
            if !enough {
                continue;
            }
            // Need the full body from somewhere (§5.1.1).
            let body = pending
                .replies
                .values()
                .find(|(d2, _, b)| *d2 == d && b.is_some())
                .and_then(|(_, _, b)| b.clone());
            let Some(result) = body else {
                continue; // Wait for the designated replier's full reply.
            };
            let retransmissions = pending.retransmissions;
            let timestamp = pending.request.timestamp;
            self.pending = None;
            return Some(CompletedOp {
                timestamp,
                result,
                retransmissions,
            });
        }
        None
    }

    fn on_retransmit(&mut self, out: &mut Outbox) {
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        pending.retransmissions += 1;
        // Broadcast to all replicas, requesting full replies from everyone
        // (§5.1.1 fallback) and demoting read-only to read-write after
        // repeated failures (§5.1.3: concurrent writes may starve it).
        let mut req = pending.request.clone();
        req.replier = None;
        if pending.retransmissions > 1 {
            req.read_only = false;
        }
        // The clone may carry a digest cached before the rewrites above.
        req.invalidate_digests();
        req.auth = self.auth.authenticate_multicast_msg(&req);
        pending.request = req.clone();
        pending.replies.clear();
        out.multicast(Message::Request(req));
        // Randomized exponential backoff (§5.2), deterministic here.
        self.timeout = self.timeout.doubled();
        out.set_timer(TimerId::ClientRetransmit, self.timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicaConfig;

    fn setup() -> (ClientProxy, ClusterKeys, ReplicaConfig) {
        let rc = ReplicaConfig::test(1);
        let keys = ClusterKeys::generate(rc.group, rc.num_clients, 128, 7);
        let client = ClientProxy::new(ClientId(0), ClientConfig::from_replica(&rc), &keys);
        (client, keys, rc)
    }

    fn reply_from(
        keys: &ClusterKeys,
        rc: &ReplicaConfig,
        replica: u32,
        t: Timestamp,
        result: &[u8],
        tentative: bool,
        full: bool,
    ) -> Reply {
        let mut auth = AuthState::new(
            rc.auth,
            NodeId::Replica(ReplicaId(replica)),
            rc.group,
            rc.num_clients,
            keys,
        );
        let body = if full {
            ReplyBody::Full(Bytes::copy_from_slice(result))
        } else {
            ReplyBody::DigestOnly(bft_crypto::digest(result))
        };
        let mut r = Reply {
            view: View(0),
            timestamp: t,
            requester: Requester::Client(ClientId(0)),
            replica: ReplicaId(replica),
            body,
            tentative,
            auth: Auth::None,
        };
        r.auth = auth.mac_to(NodeId::Client(ClientId(0)), &r.content_bytes());
        r
    }

    #[test]
    fn completes_with_weak_certificate() {
        let (mut client, keys, rc) = setup();
        let actions = client.invoke(Bytes::from_static(b"op"), false);
        assert!(!actions.is_empty());
        assert!(client.busy());
        let t = client.last_timestamp();
        let (_, done) = client.on_input(Input::Deliver(Message::Reply(reply_from(
            &keys, &rc, 0, t, b"res", false, true,
        ))));
        assert!(done.is_none(), "one reply is not enough");
        let (_, done) = client.on_input(Input::Deliver(Message::Reply(reply_from(
            &keys, &rc, 1, t, b"res", false, false,
        ))));
        let done = done.expect("f+1 matching replies complete");
        assert_eq!(done.result, Bytes::from_static(b"res"));
        assert!(!client.busy());
    }

    #[test]
    fn tentative_replies_need_quorum() {
        let (mut client, keys, rc) = setup();
        client.invoke(Bytes::from_static(b"op"), false);
        let t = client.last_timestamp();
        for r in 0..2 {
            let (_, done) = client.on_input(Input::Deliver(Message::Reply(reply_from(
                &keys, &rc, r, t, b"res", true, true,
            ))));
            assert!(done.is_none(), "2 tentative replies insufficient");
        }
        let (_, done) = client.on_input(Input::Deliver(Message::Reply(reply_from(
            &keys, &rc, 2, t, b"res", true, true,
        ))));
        assert!(done.is_some(), "2f+1 tentative replies complete");
    }

    #[test]
    fn mismatched_results_do_not_complete() {
        let (mut client, keys, rc) = setup();
        client.invoke(Bytes::from_static(b"op"), false);
        let t = client.last_timestamp();
        client.on_input(Input::Deliver(Message::Reply(reply_from(
            &keys, &rc, 0, t, b"resA", false, true,
        ))));
        let (_, done) = client.on_input(Input::Deliver(Message::Reply(reply_from(
            &keys, &rc, 1, t, b"resB", false, true,
        ))));
        assert!(done.is_none(), "conflicting results never certify");
    }

    #[test]
    fn forged_replies_rejected() {
        let (mut client, keys, rc) = setup();
        client.invoke(Bytes::from_static(b"op"), false);
        let t = client.last_timestamp();
        // A reply claiming to be from replica 1 but MACed by replica 2.
        let mut forged = reply_from(&keys, &rc, 2, t, b"res", false, true);
        forged.replica = ReplicaId(1);
        client.on_input(Input::Deliver(Message::Reply(forged)));
        let (_, done) = client.on_input(Input::Deliver(Message::Reply(reply_from(
            &keys, &rc, 0, t, b"res", false, true,
        ))));
        assert!(done.is_none(), "forged reply must not count");
    }

    #[test]
    fn digest_replies_wait_for_full_body() {
        let (mut client, keys, rc) = setup();
        client.invoke(Bytes::from_static(b"op"), false);
        let t = client.last_timestamp();
        for r in 0..2 {
            let (_, done) = client.on_input(Input::Deliver(Message::Reply(reply_from(
                &keys, &rc, r, t, b"res", false, false,
            ))));
            assert!(done.is_none(), "digest-only replies lack the result");
        }
        let (_, done) = client.on_input(Input::Deliver(Message::Reply(reply_from(
            &keys, &rc, 2, t, b"res", false, true,
        ))));
        assert!(done.is_some());
    }

    #[test]
    fn retransmission_broadcasts_and_backs_off() {
        let (mut client, _keys, _rc) = setup();
        client.invoke(Bytes::from_static(b"op"), false);
        let (actions, _) = client.on_input(Input::Timer(TimerId::ClientRetransmit));
        // A multicast and a re-armed timer.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                to: crate::actions::Target::AllReplicas,
                ..
            }
        )));
        let t1 = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { after, .. } => Some(*after),
                _ => None,
            })
            .expect("timer re-armed");
        let (actions2, _) = client.on_input(Input::Timer(TimerId::ClientRetransmit));
        let t2 = actions2
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { after, .. } => Some(*after),
                _ => None,
            })
            .expect("timer re-armed");
        assert!(t2 > t1, "exponential backoff");
    }

    #[test]
    fn retransmission_rewrites_digest_and_auth_freshly() {
        // Regression: `on_retransmit` rewrites the pending request in
        // place (clearing the replier, demoting read-only). The memoized
        // digest must be invalidated before re-authentication, or
        // replicas would verify the authenticator against stale content —
        // and the copy of the original the network still duplicates must
        // stay valid independently.
        let (mut client, keys, rc) = setup();
        let actions = client.invoke(Bytes::from_static(b"op"), true);
        let original = actions
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: Message::Request(r),
                    ..
                } => Some(r.clone()),
                _ => None,
            })
            .expect("invoke sends the request");
        let original_digest = original.digest();
        // Two forced retransmissions: the second demotes read-only.
        client.on_input(Input::Timer(TimerId::ClientRetransmit));
        let (actions, _) = client.on_input(Input::Timer(TimerId::ClientRetransmit));
        let retrans = actions
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: Message::Request(r),
                    ..
                } => Some(r.clone()),
                _ => None,
            })
            .expect("retransmission broadcasts the request");
        assert!(!retrans.read_only, "demoted after repeated failures");
        assert_eq!(retrans.replier, None);
        assert_ne!(retrans.digest(), original_digest, "content changed");
        let fresh = Request {
            digest_memo: bft_types::DigestMemo::new(),
            ..retrans.clone()
        };
        assert_eq!(retrans.digest(), fresh.digest(), "no stale memo");
        // The rewritten request authenticates at a replica — i.e. the
        // authenticator was computed over the rewritten content.
        let replica0 = AuthState::new(
            rc.auth,
            NodeId::Replica(ReplicaId(0)),
            rc.group,
            rc.num_clients,
            &keys,
        );
        assert!(replica0.verify_msg(NodeId::Client(ClientId(0)), &retrans));
        // The original (still in flight, possibly duplicated) is intact.
        assert_eq!(original.digest(), original_digest);
        assert!(replica0.verify_msg(NodeId::Client(ClientId(0)), &original));
    }

    #[test]
    fn stale_replies_ignored() {
        let (mut client, keys, rc) = setup();
        client.invoke(Bytes::from_static(b"op"), false);
        let t = client.last_timestamp();
        let old = Timestamp(t.0.wrapping_sub(1));
        let (_, done) = client.on_input(Input::Deliver(Message::Reply(reply_from(
            &keys, &rc, 0, old, b"res", false, true,
        ))));
        assert!(done.is_none());
    }

    #[test]
    #[should_panic(expected = "one operation at a time")]
    fn concurrent_invokes_panic() {
        let (mut client, _, _) = setup();
        client.invoke(Bytes::from_static(b"a"), false);
        client.invoke(Bytes::from_static(b"b"), false);
    }
}
