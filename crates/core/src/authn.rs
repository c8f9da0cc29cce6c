//! Message authentication for the protocol (§2.3 signatures, §3.2.1
//! authenticators, §4.3.1 key freshness).
//!
//! Every node owns an [`AuthState`]: its pairwise session-key table, its
//! public-key pair, and the public keys of every principal (the thesis
//! stores peers' public keys in read-only memory, §4.2). The node index
//! space is global: replicas occupy `[0, n)` and clients `[n, n + clients)`.

use crate::config::AuthMode;
use bft_crypto::{Authenticator, KeyPair, KeyTable, PublicKey, SessionKey};
use bft_types::{Auth, AuthContent, ClientId, GroupParams, NodeId, ReplicaId, Requester};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Key material shared by a whole cluster at genesis: each principal's key
/// pair (held privately) and the public-key directory (held by everyone).
#[derive(Clone)]
pub struct ClusterKeys {
    /// One key pair per principal, indexed by global node index.
    pub keypairs: Vec<KeyPair>,
    /// The shared public-key directory.
    pub directory: Arc<Vec<PublicKey>>,
}

impl ClusterKeys {
    /// Deterministically generates keys for `n` replicas and `clients`
    /// clients with `bits`-bit moduli.
    pub fn generate(group: GroupParams, clients: u32, bits: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5f5f_1234);
        let total = group.n + clients as usize;
        let keypairs: Vec<KeyPair> = (0..total)
            .map(|_| KeyPair::generate_with_bits(&mut rng, bits))
            .collect();
        let directory = Arc::new(keypairs.iter().map(|kp| kp.public.clone()).collect());
        ClusterKeys {
            keypairs,
            directory,
        }
    }
}

/// Global node index: replicas first, then clients.
pub fn node_index(group: GroupParams, node: NodeId) -> usize {
    match node {
        NodeId::Replica(r) => r.0 as usize,
        NodeId::Client(c) => group.n + c.0 as usize,
    }
}

/// Converts a requester to a node id.
pub fn requester_node(r: Requester) -> NodeId {
    match r {
        Requester::Client(c) => NodeId::Client(c),
        Requester::Replica(r) => NodeId::Replica(r),
    }
}

/// Per-node authentication state.
pub struct AuthState {
    /// The authentication scheme in force.
    pub mode: AuthMode,
    /// This node's identity.
    pub self_node: NodeId,
    group: GroupParams,
    /// Pairwise session keys, indexed by global node index.
    pub keys: KeyTable,
    /// This node's signature key pair.
    pub keypair: KeyPair,
    /// Public keys of every principal (read-only memory).
    pub directory: Arc<Vec<PublicKey>>,
    /// When set, [`AuthState::authenticate_multicast_hot`] emits nonce-only
    /// authenticator placeholders for a runtime MAC worker pool to fill
    /// instead of computing per-receiver tags inline. Set from
    /// [`crate::config::ReplicaConfig::defer_multicast_auth`]; never set in
    /// the deterministic simulator.
    pub defer_multicast: bool,
    nonce: u64,
}

impl AuthState {
    /// Builds the state for `self_node` from cluster key material.
    pub fn new(
        mode: AuthMode,
        self_node: NodeId,
        group: GroupParams,
        clients: u32,
        keys: &ClusterKeys,
    ) -> Self {
        let idx = node_index(group, self_node);
        let total = group.n + clients as usize;
        AuthState {
            mode,
            self_node,
            group,
            keys: KeyTable::bootstrap(idx, total),
            keypair: keys.keypairs[idx].clone(),
            directory: Arc::clone(&keys.directory),
            defer_multicast: false,
            nonce: (idx as u64) << 48,
        }
    }

    /// This node's global index.
    pub fn self_index(&self) -> usize {
        node_index(self.group, self.self_node)
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce += 1;
        self.nonce
    }

    /// Authenticates content for multicast to all replicas: an
    /// authenticator with one slot per replica (BFT) or a signature
    /// (BFT-PK).
    pub fn authenticate_multicast(&mut self, content: &[u8]) -> Auth {
        match self.mode {
            AuthMode::Signatures => Auth::Signature(self.keypair.private.sign(content)),
            AuthMode::Macs => {
                let keys: Vec<SessionKey> =
                    (0..self.group.n).map(|j| self.keys.out_key(j)).collect();
                let nonce = self.next_nonce();
                Auth::Authenticator(Authenticator::generate(&keys, nonce, content))
            }
        }
    }

    /// Authenticates content for one receiver with a point-to-point MAC.
    /// Used for replies, acks, and state-transfer traffic in both modes —
    /// the thesis keeps these as MACs even in BFT-PK, but for a faithful
    /// BFT-PK baseline we sign when in signature mode.
    pub fn mac_to(&mut self, to: NodeId, content: &[u8]) -> Auth {
        match self.mode {
            AuthMode::Signatures => Auth::Signature(self.keypair.private.sign(content)),
            AuthMode::Macs => {
                let key = self.keys.out_key(node_index(self.group, to));
                Auth::Mac(bft_crypto::hmac::mac(&key, content))
            }
        }
    }

    /// Signs content with the node's private key regardless of mode (used
    /// by new-key messages, which are always signed, §4.3.1).
    pub fn sign(&self, content: &[u8]) -> Auth {
        Auth::Signature(self.keypair.private.sign(content))
    }

    /// Verifies `auth` on `content` claimed to come from `sender`.
    pub fn verify(&self, sender: NodeId, content: &[u8], auth: &Auth) -> bool {
        let sender_idx = node_index(self.group, sender);
        match auth {
            Auth::None => false,
            Auth::Mac(tag) => {
                let key = self.keys.in_key(sender_idx);
                bft_crypto::hmac::verify(&key, content, tag)
            }
            Auth::Authenticator(a) => {
                // Only replicas hold authenticator slots.
                let NodeId::Replica(me) = self.self_node else {
                    return false;
                };
                let key = self.keys.in_key(sender_idx);
                a.verify(me.0 as usize, &key, content)
            }
            Auth::Signature(sig) => match self.directory.get(sender_idx) {
                Some(pk) => pk.verify(content, sig),
                None => false,
            },
            Auth::CounterSig(cs) => match self.directory.get(sender_idx) {
                Some(pk) => bft_crypto::Coprocessor::verify(pk, &bft_crypto::digest(content), cs),
                None => false,
            },
        }
    }

    /// [`AuthState::authenticate_multicast`] over a message's content,
    /// encoded in a pooled scratch buffer (no allocation).
    pub fn authenticate_multicast_msg<M: AuthContent>(&mut self, m: &M) -> Auth {
        m.for_content(|c| self.authenticate_multicast(c))
    }

    /// Hot-path variant of [`AuthState::authenticate_multicast_msg`] for
    /// the normal-case messages (pre-prepare/prepare/commit/checkpoint/
    /// status). With [`Self::defer_multicast`] clear this is identical to
    /// the inline version. With it set, the per-receiver MAC tags are NOT
    /// computed here: the message carries an `Auth::Authenticator` with a
    /// fresh nonce and an *empty* tag vector, and the runtime's MAC worker
    /// pool fills the tags from the encoded content before the frame
    /// reaches a socket (see `Message::deferred_auth_parts`). An empty tag
    /// vector can never verify, so a placeholder that escapes unfilled is
    /// rejected by receivers rather than accepted.
    pub fn authenticate_multicast_hot<M: AuthContent>(&mut self, m: &M) -> Auth {
        if self.defer_multicast && self.mode == AuthMode::Macs {
            Auth::Authenticator(Authenticator {
                nonce: self.next_nonce(),
                tags: Vec::new(),
            })
        } else {
            self.authenticate_multicast_msg(m)
        }
    }

    /// [`AuthState::mac_to`] over a message's content (scratch-encoded).
    pub fn mac_to_msg<M: AuthContent>(&mut self, to: NodeId, m: &M) -> Auth {
        m.for_content(|c| self.mac_to(to, c))
    }

    /// [`AuthState::sign`] over a message's content (scratch-encoded).
    pub fn sign_msg<M: AuthContent>(&self, m: &M) -> Auth {
        m.for_content(|c| self.sign(c))
    }

    /// [`AuthState::verify`] of a message's own `auth` field against its
    /// content (scratch-encoded).
    pub fn verify_msg<M: AuthContent>(&self, sender: NodeId, m: &M) -> bool {
        m.for_content(|c| self.verify(sender, c, m.auth_field()))
    }

    /// The group parameters.
    pub fn group(&self) -> GroupParams {
        self.group
    }

    /// Number of MAC operations represented by generating `auth` (for the
    /// cost model: an authenticator costs one MAC per replica).
    pub fn auth_cost_units(auth: &Auth) -> usize {
        match auth {
            Auth::None => 0,
            Auth::Mac(_) => 1,
            Auth::Authenticator(a) => a.len(),
            Auth::Signature(_) | Auth::CounterSig(_) => 1,
        }
    }
}

/// Builds the node id for a client index (test helper).
pub fn client_node(c: u32) -> NodeId {
    NodeId::Client(ClientId(c))
}

/// Builds the node id for a replica index (test helper).
pub fn replica_node(r: u32) -> NodeId {
    NodeId::Replica(ReplicaId(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> (GroupParams, ClusterKeys) {
        let group = GroupParams::for_f(1);
        let keys = ClusterKeys::generate(group, 2, 128, 42);
        (group, keys)
    }

    fn auth_state(mode: AuthMode, node: NodeId) -> AuthState {
        let (group, keys) = cluster();
        AuthState::new(mode, node, group, 2, &keys)
    }

    #[test]
    fn multicast_authenticator_verifies_at_all_replicas() {
        let (group, keys) = cluster();
        let mut sender = AuthState::new(AuthMode::Macs, replica_node(0), group, 2, &keys);
        let auth = sender.authenticate_multicast(b"pre-prepare");
        for r in 0..4 {
            let receiver = AuthState::new(AuthMode::Macs, replica_node(r), group, 2, &keys);
            assert!(
                receiver.verify(replica_node(0), b"pre-prepare", &auth),
                "replica {r}"
            );
            assert!(!receiver.verify(replica_node(0), b"tampered", &auth));
            assert!(!receiver.verify(replica_node(1), b"pre-prepare", &auth));
        }
    }

    #[test]
    fn client_authenticator_verifies_at_replicas() {
        let (group, keys) = cluster();
        let mut client = AuthState::new(AuthMode::Macs, client_node(1), group, 2, &keys);
        let auth = client.authenticate_multicast(b"request");
        let replica = AuthState::new(AuthMode::Macs, replica_node(2), group, 2, &keys);
        assert!(replica.verify(client_node(1), b"request", &auth));
        assert!(!replica.verify(client_node(0), b"request", &auth));
    }

    #[test]
    fn point_to_point_mac() {
        let (group, keys) = cluster();
        let mut replica = AuthState::new(AuthMode::Macs, replica_node(0), group, 2, &keys);
        let auth = replica.mac_to(client_node(1), b"reply");
        let client = AuthState::new(AuthMode::Macs, client_node(1), group, 2, &keys);
        assert!(client.verify(replica_node(0), b"reply", &auth));
        let other = AuthState::new(AuthMode::Macs, client_node(0), group, 2, &keys);
        assert!(!other.verify(replica_node(0), b"reply", &auth));
    }

    #[test]
    fn signature_mode_roundtrip() {
        let mut sender = auth_state(AuthMode::Signatures, replica_node(1));
        let auth = sender.authenticate_multicast(b"view-change");
        assert!(matches!(auth, Auth::Signature(_)));
        let receiver = auth_state(AuthMode::Signatures, replica_node(3));
        assert!(receiver.verify(replica_node(1), b"view-change", &auth));
        assert!(!receiver.verify(replica_node(2), b"view-change", &auth));
        assert!(!receiver.verify(replica_node(1), b"other", &auth));
    }

    #[test]
    fn none_auth_never_verifies() {
        let receiver = auth_state(AuthMode::Macs, replica_node(0));
        assert!(!receiver.verify(replica_node(1), b"m", &Auth::None));
    }

    #[test]
    fn counter_signature_verifies() {
        let (group, keys) = cluster();
        let signer_idx = node_index(group, replica_node(2));
        let mut coproc_rng = StdRng::seed_from_u64(9);
        let mut coproc = bft_crypto::Coprocessor::new(&mut coproc_rng, 128);
        // Swap the directory entry so receivers know the coprocessor key.
        let mut dir = (*keys.directory).clone();
        dir[signer_idx] = coproc.public_key().clone();
        let keys2 = ClusterKeys {
            keypairs: keys.keypairs.clone(),
            directory: Arc::new(dir),
        };
        let receiver = AuthState::new(AuthMode::Macs, replica_node(0), group, 2, &keys2);
        let cs = coproc.sign(&bft_crypto::digest(b"new-key"));
        assert!(receiver.verify(replica_node(2), b"new-key", &Auth::CounterSig(cs.clone())));
        assert!(!receiver.verify(replica_node(2), b"other", &Auth::CounterSig(cs)));
    }

    #[test]
    fn cost_units() {
        let mut sender = auth_state(AuthMode::Macs, replica_node(0));
        let auth = sender.authenticate_multicast(b"m");
        assert_eq!(AuthState::auth_cost_units(&auth), 4);
        let mac = sender.mac_to(client_node(0), b"m");
        assert_eq!(AuthState::auth_cost_units(&mac), 1);
        assert_eq!(AuthState::auth_cost_units(&Auth::None), 0);
    }

    #[test]
    fn index_space_is_disjoint() {
        let group = GroupParams::for_f(1);
        assert_eq!(node_index(group, replica_node(3)), 3);
        assert_eq!(node_index(group, client_node(0)), 4);
        assert_eq!(node_index(group, client_node(5)), 9);
    }
}
