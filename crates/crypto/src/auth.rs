//! Authenticators: vectors of MACs for authenticated multicast (§3.2.1).
//!
//! A message multicast to all replicas carries one MAC per receiver, each
//! computed under the pairwise session key the receiver announced in its
//! latest new-key message. Verifying an authenticator is constant time;
//! generating one is linear in the number of replicas but still about three
//! orders of magnitude cheaper than a signature — the crossover the thesis
//! estimates at roughly 280 replicas (§8.3.3).

use crate::hmac::{mac_parts, verify_parts, SessionKey, Tag};

/// A vector of per-receiver MAC tags plus the nonce mixed into each tag.
///
/// The thesis's wire format prepends a 64-bit nonce to each authenticator
/// (Figure 6-1); the nonce also serves to distinguish retransmissions.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Authenticator {
    /// Random nonce mixed into every tag.
    pub nonce: u64,
    /// `tags[j]` authenticates the message to receiver `j`.
    pub tags: Vec<Tag>,
}

impl Authenticator {
    /// Generates an authenticator over `content` for `keys.len()` receivers.
    ///
    /// `keys[j]` must be the key shared with receiver `j` (the generator's
    /// own slot may hold any key; it is never verified by the generator).
    pub fn generate(keys: &[SessionKey], nonce: u64, content: &[u8]) -> Self {
        let nb = nonce.to_le_bytes();
        let tags = keys.iter().map(|k| mac_parts(k, &[&nb, content])).collect();
        Authenticator { nonce, tags }
    }

    /// Verifies the tag at `index` under `key`.
    ///
    /// Returns false when the index is out of range (a malformed
    /// authenticator must never be accepted).
    pub fn verify(&self, index: usize, key: &SessionKey, content: &[u8]) -> bool {
        let Some(tag) = self.tags.get(index) else {
            return false;
        };
        let nb = self.nonce.to_le_bytes();
        verify_parts(key, &[&nb, content], tag)
    }

    /// Number of receiver slots.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when no slots are present.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Wire size in bytes: nonce plus 8 bytes per tag (Figure 6-1).
    pub fn wire_len(&self) -> usize {
        8 + self.tags.len() * crate::hmac::TAG_LEN
    }

    /// Corrupts the tag at `index` (fault-injection helper for tests that
    /// exercise §3.2.2's partial-authenticator conditions).
    pub fn corrupt_slot(&mut self, index: usize) {
        if let Some(t) = self.tags.get_mut(index) {
            t.0[0] ^= 0xff;
        }
    }
}

/// Pairwise session-key table kept by each node, with freshness epochs.
///
/// Node `i` holds, for every peer `j`:
/// * an *out* key `k(i→j)` used to authenticate messages `i` sends to `j`
///   (announced by `j` in its latest new-key message), and
/// * an *in* key `k(j→i)` used to check messages received from `j`
///   (chosen by `i` itself and announced in `i`'s new-key message).
///
/// Epoch counters implement §4.3.1's freshness rule: messages authenticated
/// with keys from an earlier epoch are rejected, so certificates only ever
/// contain equally fresh messages.
#[derive(Clone, Debug)]
pub struct KeyTable {
    /// `out[j]` = key for sending to peer `j`, with the epoch it belongs to.
    out: Vec<(SessionKey, u64)>,
    /// `incoming[j]` = key expected on messages from peer `j`, with epoch.
    incoming: Vec<(SessionKey, u64)>,
}

impl KeyTable {
    /// Creates a table for `peers` peers with deterministic initial keys
    /// derived from `(self_id, peer_id)` so a freshly started cluster can
    /// communicate before the first new-key exchange, as in the thesis's
    /// startup ("the same mechanism is used to establish the initial keys").
    pub fn bootstrap(self_id: usize, peers: usize) -> Self {
        let derive =
            |from: usize, to: usize| SessionKey::from_seed(((from as u64) << 32) | to as u64);
        KeyTable {
            out: (0..peers).map(|j| (derive(self_id, j), 0)).collect(),
            incoming: (0..peers).map(|j| (derive(j, self_id), 0)).collect(),
        }
    }

    /// Number of peers in the table.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when the table has no peers.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Key for authenticating a message sent to `peer`.
    pub fn out_key(&self, peer: usize) -> SessionKey {
        self.out[peer].0
    }

    /// Key expected on a message received from `peer`.
    pub fn in_key(&self, peer: usize) -> SessionKey {
        self.incoming[peer].0
    }

    /// Epoch of the incoming key for `peer`.
    pub fn in_epoch(&self, peer: usize) -> u64 {
        self.incoming[peer].1
    }

    /// All out keys, indexed by peer (for authenticator generation).
    pub fn out_keys(&self) -> Vec<SessionKey> {
        self.out.iter().map(|(k, _)| *k).collect()
    }

    /// Installs a new key announced by `peer` for our messages *to* it.
    pub fn install_out_key(&mut self, peer: usize, key: SessionKey, epoch: u64) -> bool {
        if epoch <= self.out[peer].1 && epoch != 0 {
            return false; // Stale new-key message (suppress-replay defense).
        }
        self.out[peer] = (key, epoch);
        true
    }

    /// Refreshes the incoming key we expect from `peer` (called when *we*
    /// send a new-key message); returns the new key to be announced.
    pub fn refresh_in_key(&mut self, peer: usize, key: SessionKey) -> u64 {
        let epoch = self.incoming[peer].1 + 1;
        self.incoming[peer] = (key, epoch);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<SessionKey> {
        (0..n).map(|i| SessionKey::from_seed(i as u64)).collect()
    }

    #[test]
    fn generate_verify_all_slots() {
        let ks = keys(4);
        let a = Authenticator::generate(&ks, 42, b"commit header");
        for (j, k) in ks.iter().enumerate() {
            assert!(a.verify(j, k, b"commit header"));
        }
    }

    #[test]
    fn verify_rejects_wrong_content_key_nonce() {
        let ks = keys(4);
        let a = Authenticator::generate(&ks, 42, b"m");
        assert!(!a.verify(0, &ks[0], b"m2"));
        assert!(!a.verify(0, &ks[1], b"m"));
        let mut b = a.clone();
        b.nonce = 43;
        assert!(!b.verify(0, &ks[0], b"m"));
    }

    #[test]
    fn verify_out_of_range_slot() {
        let a = Authenticator::generate(&keys(2), 0, b"m");
        assert!(!a.verify(5, &SessionKey::from_seed(0), b"m"));
    }

    #[test]
    fn corrupt_slot_breaks_only_that_slot() {
        let ks = keys(4);
        let mut a = Authenticator::generate(&ks, 1, b"m");
        a.corrupt_slot(2);
        assert!(a.verify(0, &ks[0], b"m"));
        assert!(a.verify(1, &ks[1], b"m"));
        assert!(!a.verify(2, &ks[2], b"m"));
        assert!(a.verify(3, &ks[3], b"m"));
    }

    #[test]
    fn wire_len_matches_format() {
        let a = Authenticator::generate(&keys(4), 0, b"m");
        assert_eq!(a.wire_len(), 8 + 4 * 8);
    }

    #[test]
    fn bootstrap_tables_agree() {
        // Node i's out key for j must equal node j's in key for i.
        let n = 4;
        let tables: Vec<KeyTable> = (0..n).map(|i| KeyTable::bootstrap(i, n)).collect();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(tables[i].out_key(j), tables[j].in_key(i), "{i}->{j}");
            }
        }
    }

    #[test]
    fn authenticated_multicast_end_to_end() {
        let n = 4;
        let tables: Vec<KeyTable> = (0..n).map(|i| KeyTable::bootstrap(i, n)).collect();
        let sender = 2;
        let a = Authenticator::generate(&tables[sender].out_keys(), 7, b"pre-prepare");
        for (receiver, table) in tables.iter().enumerate() {
            assert!(
                a.verify(receiver, &table.in_key(sender), b"pre-prepare"),
                "receiver {receiver}"
            );
        }
    }

    #[test]
    fn key_refresh_epochs() {
        let mut t = KeyTable::bootstrap(0, 4);
        let k = SessionKey::from_seed(99);
        let epoch = t.refresh_in_key(2, k);
        assert_eq!(epoch, 1);
        assert_eq!(t.in_key(2), k);
        assert_eq!(t.in_epoch(2), 1);
        // Peer-side install rejects stale epochs.
        let mut peer = KeyTable::bootstrap(2, 4);
        assert!(peer.install_out_key(0, k, 1));
        assert!(!peer.install_out_key(0, SessionKey::from_seed(1), 1));
        assert!(peer.install_out_key(0, SessionKey::from_seed(2), 2));
        assert_eq!(peer.out_key(0), SessionKey::from_seed(2));
    }
}
