//! Identifiers for replicas, clients, views, and sequence numbers.

use serde::{Deserialize, Serialize};

/// A replica identifier: an integer in `[0, n)` (§2.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ReplicaId(pub u32);

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A client identifier, disjoint from replica identifiers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ClientId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Any protocol principal: a replica or a client.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum NodeId {
    /// A replica.
    Replica(ReplicaId),
    /// A client.
    Client(ClientId),
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Replica(r) => write!(f, "{r}"),
            NodeId::Client(c) => write!(f, "{c}"),
        }
    }
}

impl From<ReplicaId> for NodeId {
    fn from(r: ReplicaId) -> Self {
        NodeId::Replica(r)
    }
}

impl From<ClientId> for NodeId {
    fn from(c: ClientId) -> Self {
        NodeId::Client(c)
    }
}

/// A view number. Views are numbered consecutively; the primary of view `v`
/// is replica `v mod n` (§2.3).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct View(pub u64);

impl View {
    /// The replica that is primary in this view.
    pub fn primary(self, n: usize) -> ReplicaId {
        ReplicaId((self.0 % n as u64) as u32)
    }

    /// The next view.
    pub fn next(self) -> View {
        View(self.0 + 1)
    }
}

impl std::fmt::Display for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A sequence number assigned by the primary to order requests.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The next sequence number.
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }
}

impl std::fmt::Display for SeqNo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A client request timestamp, totally ordered per client to provide
/// exactly-once semantics (§2.3.2).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The next timestamp.
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }
}

/// Replication group parameters: `n = 3f + 1` replicas tolerate `f` faults.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct GroupParams {
    /// Total number of replicas.
    pub n: usize,
    /// Maximum number of simultaneously faulty replicas.
    pub f: usize,
}

impl GroupParams {
    /// Builds parameters for a given `f` with the optimal `n = 3f + 1`.
    pub fn for_f(f: usize) -> Self {
        GroupParams { n: 3 * f + 1, f }
    }

    /// Builds parameters from `n`, deriving the largest tolerated `f`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (no Byzantine fault can be tolerated below 3f+1).
    pub fn for_n(n: usize) -> Self {
        assert!(n >= 4, "need at least 4 replicas to tolerate one fault");
        GroupParams { n, f: (n - 1) / 3 }
    }

    /// Quorum size: `2f + 1` (§2.3.1).
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Weak certificate size: `f + 1` (§2.3.1).
    pub fn weak(&self) -> usize {
        self.f + 1
    }

    /// Iterates over all replica identifiers.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        (0..self.n as u32).map(ReplicaId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_rotates() {
        assert_eq!(View(0).primary(4), ReplicaId(0));
        assert_eq!(View(1).primary(4), ReplicaId(1));
        assert_eq!(View(4).primary(4), ReplicaId(0));
        assert_eq!(View(7).primary(4), ReplicaId(3));
    }

    #[test]
    fn group_params_quorums() {
        let g = GroupParams::for_f(1);
        assert_eq!(g.n, 4);
        assert_eq!(g.quorum(), 3);
        assert_eq!(g.weak(), 2);
        let g = GroupParams::for_f(3);
        assert_eq!(g.n, 10);
        assert_eq!(g.quorum(), 7);
        assert_eq!(g.weak(), 4);
    }

    #[test]
    fn for_n_derives_f() {
        assert_eq!(GroupParams::for_n(4).f, 1);
        assert_eq!(GroupParams::for_n(6).f, 1);
        assert_eq!(GroupParams::for_n(7).f, 2);
        assert_eq!(GroupParams::for_n(10).f, 3);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn for_n_too_small() {
        let _ = GroupParams::for_n(3);
    }

    #[test]
    fn quorum_intersection_property() {
        // Any two quorums intersect in at least f+1 replicas, hence at least
        // one correct replica (§2.3.1).
        for f in 1..6 {
            let g = GroupParams::for_f(f);
            let min_overlap = 2 * g.quorum() as isize - g.n as isize;
            assert!(min_overlap > g.f as isize, "f={f}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(ReplicaId(2).to_string(), "r2");
        assert_eq!(ClientId(5).to_string(), "c5");
        assert_eq!(NodeId::Replica(ReplicaId(1)).to_string(), "r1");
        assert_eq!(View(3).to_string(), "v3");
        assert_eq!(SeqNo(9).to_string(), "n9");
    }

    #[test]
    fn successor_helpers() {
        assert_eq!(View(1).next(), View(2));
        assert_eq!(SeqNo(1).next(), SeqNo(2));
        assert_eq!(Timestamp(1).next(), Timestamp(2));
    }
}
