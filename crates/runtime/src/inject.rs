//! Fault injection for the real TCP runtime: the live counterpart of the
//! simulator's lossy channel.
//!
//! A [`FaultPlane`] is a shared, thread-safe decision table consulted by
//! every [`crate::transport::Endpoint`] on its *send* path, one verdict
//! per directed frame: deliver now, deliver late (delay/reorder), deliver
//! twice (duplicate), or drop. The same fault vocabulary as the
//! simulator's `bft_net` channel applies — group partitions, full node
//! isolation, and per-directed-link [`LinkProfile`] loss/jitter — so a
//! chaos schedule generated for the simulator drives real sockets
//! unchanged. Faults act on whole frames *before* they reach a
//! connection backlog: a dropped frame was never sent, a delayed frame
//! waits in the endpoint's deadline heap and re-enters the normal
//! routing when its deadline passes, which also reorders it behind
//! frames sent later. TCP still delivers whatever survives in order per
//! connection — loss and reordering live here, between the protocol and
//! the socket, exactly where a WAN or a flaky switch would put them.
//!
//! The plane's RNG is seeded, so a plan's *schedule* replays exactly;
//! the interleaving with protocol traffic is real time and genuinely
//! nondeterministic, which is the point of running chaos against the
//! real stack.
//!
//! [`StormSignal`] is the second live control: a per-client epoch bump
//! that makes a client force-fire its armed retransmission timers, the
//! runtime's version of the simulator's synchronized retransmission
//! storm.

use bft_net::LinkProfile;
use bft_types::{ClientId, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-directed-link tallies of injected faults (monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkTally {
    /// Frames held back (jitter / extra latency) before delivery.
    pub delayed: u64,
    /// Frames dropped by partitions, isolation, or link loss.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
}

impl LinkTally {
    fn add(&mut self, other: &LinkTally) {
        self.delayed += other.delayed;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
    }
}

/// The verdict for one frame on one directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendVerdict {
    /// The frame is lost (blocked link or loss roll).
    Drop,
    /// The frame is delivered; `delay_us` holds it back first (0 = now),
    /// and `duplicate_us` schedules a second copy that much later.
    Deliver {
        /// Microseconds to hold the frame before routing it.
        delay_us: u64,
        /// When set, a duplicate copy is routed after this many µs.
        duplicate_us: Option<u64>,
    },
}

#[derive(Default)]
struct PlaneState {
    /// Partition group per node; nodes not listed (clients, usually)
    /// talk to everyone, mirroring the simulator's semantics.
    groups: HashMap<NodeId, u32>,
    /// Nodes cut off entirely (both directions).
    isolated: HashSet<NodeId>,
    /// Per-directed-link fault profiles.
    links: HashMap<(NodeId, NodeId), LinkProfile>,
    /// Injected-fault tallies per directed link.
    tally: HashMap<(NodeId, NodeId), LinkTally>,
}

/// A shared fault-decision table for live transports. One plane is
/// shared by every node and client of a cluster; fault controls take
/// effect on the next frame sent.
pub struct FaultPlane {
    rng: Mutex<StdRng>,
    state: Mutex<PlaneState>,
}

impl FaultPlane {
    /// A clean plane (no faults) with a seeded loss/jitter RNG.
    pub fn new(seed: u64) -> Arc<FaultPlane> {
        Arc::new(FaultPlane {
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0xfa01_70e5)),
            state: Mutex::new(PlaneState::default()),
        })
    }

    /// Splits the listed nodes into disconnected groups. Nodes absent
    /// from every group (clients) keep talking to everyone.
    pub fn partition(&self, groups: &[Vec<NodeId>]) {
        let mut st = self.state.lock().expect("plane lock");
        st.groups.clear();
        for (gi, group) in groups.iter().enumerate() {
            for &node in group {
                st.groups.insert(node, gi as u32);
            }
        }
    }

    /// Removes the partition.
    pub fn heal_partition(&self) {
        self.state.lock().expect("plane lock").groups.clear();
    }

    /// Cuts `node` off in both directions.
    pub fn isolate(&self, node: NodeId) {
        self.state.lock().expect("plane lock").isolated.insert(node);
    }

    /// Reconnects an isolated node.
    pub fn reconnect(&self, node: NodeId) {
        self.state
            .lock()
            .expect("plane lock")
            .isolated
            .remove(&node);
    }

    /// Installs a fault profile on the directed link `from → to`.
    pub fn set_link(&self, from: NodeId, to: NodeId, profile: LinkProfile) {
        self.state
            .lock()
            .expect("plane lock")
            .links
            .insert((from, to), profile);
    }

    /// Restores the directed link `from → to` to clean.
    pub fn clear_link(&self, from: NodeId, to: NodeId) {
        self.state
            .lock()
            .expect("plane lock")
            .links
            .remove(&(from, to));
    }

    /// Removes every fault (partitions, isolation, link profiles).
    pub fn clear_all(&self) {
        let mut st = self.state.lock().expect("plane lock");
        st.groups.clear();
        st.isolated.clear();
        st.links.clear();
    }

    /// Decides the fate of one frame from `from` to `to`, updating the
    /// link tallies. Same decision order as the simulator channel:
    /// blocked links drop deterministically, then the link profile rolls
    /// loss, jitter, and duplication.
    pub fn decide(&self, from: NodeId, to: NodeId) -> SendVerdict {
        let mut st = self.state.lock().expect("plane lock");
        if !link_up(&st, from, to) {
            st.tally.entry((from, to)).or_default().dropped += 1;
            return SendVerdict::Drop;
        }
        let Some(profile) = st.links.get(&(from, to)).copied() else {
            return SendVerdict::Deliver {
                delay_us: 0,
                duplicate_us: None,
            };
        };
        let mut rng = self.rng.lock().expect("plane rng");
        if profile.drop_prob > 0.0 && rng.random_bool(profile.drop_prob) {
            st.tally.entry((from, to)).or_default().dropped += 1;
            return SendVerdict::Drop;
        }
        let mut delay_us = profile.extra_latency_us;
        if profile.jitter_us > 0 {
            delay_us += rng.random_range(0..=profile.jitter_us);
        }
        let duplicate_us =
            if profile.duplicate_prob > 0.0 && rng.random_bool(profile.duplicate_prob) {
                // The copy trails the original, like the simulator's.
                Some(delay_us + rng.random_range(1..=profile.jitter_us.max(100)))
            } else {
                None
            };
        drop(rng);
        let tally = st.tally.entry((from, to)).or_default();
        if delay_us > 0 {
            tally.delayed += 1;
        }
        if duplicate_us.is_some() {
            tally.duplicated += 1;
        }
        SendVerdict::Deliver {
            delay_us,
            duplicate_us,
        }
    }

    /// Injected-fault tallies for one directed link.
    pub fn link_tally(&self, from: NodeId, to: NodeId) -> LinkTally {
        self.state
            .lock()
            .expect("plane lock")
            .tally
            .get(&(from, to))
            .copied()
            .unwrap_or_default()
    }

    /// Injected-fault tallies summed over every link.
    pub fn total_tally(&self) -> LinkTally {
        let st = self.state.lock().expect("plane lock");
        let mut sum = LinkTally::default();
        for t in st.tally.values() {
            sum.add(t);
        }
        sum
    }
}

/// True when frames may flow from `from` to `to`: neither endpoint
/// isolated, and not separated by a partition (nodes without a group
/// assignment talk to everyone).
fn link_up(st: &PlaneState, from: NodeId, to: NodeId) -> bool {
    if st.isolated.contains(&from) || st.isolated.contains(&to) {
        return false;
    }
    match (st.groups.get(&from), st.groups.get(&to)) {
        (Some(a), Some(b)) => a == b,
        _ => true,
    }
}

/// Synchronized retransmission storms for live clients: bumping a
/// client's epoch makes its driver force-fire every armed retransmission
/// timer on its next poll.
pub struct StormSignal {
    epochs: Vec<AtomicU64>,
}

impl StormSignal {
    /// A signal covering clients `0..clients`.
    pub fn new(clients: u32) -> Arc<StormSignal> {
        Arc::new(StormSignal {
            epochs: (0..clients).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Fires a storm across the first `clients` clients.
    pub fn trigger(&self, clients: u32) {
        for epoch in self.epochs.iter().take(clients as usize) {
            epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The client's current storm epoch (drivers poll for changes).
    pub fn epoch(&self, c: ClientId) -> u64 {
        self.epochs
            .get(c.0 as usize)
            .map(|e| e.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::ReplicaId;

    fn r(i: u32) -> NodeId {
        NodeId::Replica(ReplicaId(i))
    }

    #[test]
    fn clean_plane_delivers_everything() {
        let plane = FaultPlane::new(1);
        for _ in 0..100 {
            assert_eq!(
                plane.decide(r(0), r(1)),
                SendVerdict::Deliver {
                    delay_us: 0,
                    duplicate_us: None
                }
            );
        }
        assert_eq!(plane.total_tally(), LinkTally::default());
    }

    #[test]
    fn partitions_and_isolation_block_links() {
        let plane = FaultPlane::new(2);
        plane.partition(&[vec![r(0)], vec![r(1), r(2)]]);
        assert_eq!(plane.decide(r(0), r(1)), SendVerdict::Drop);
        assert_eq!(plane.decide(r(1), r(0)), SendVerdict::Drop);
        // Same group flows; unassigned nodes (clients) reach everyone.
        assert!(matches!(
            plane.decide(r(1), r(2)),
            SendVerdict::Deliver { .. }
        ));
        let client = NodeId::Client(ClientId(0));
        assert!(matches!(
            plane.decide(client, r(0)),
            SendVerdict::Deliver { .. }
        ));
        plane.heal_partition();
        assert!(matches!(
            plane.decide(r(0), r(1)),
            SendVerdict::Deliver { .. }
        ));
        plane.isolate(r(2));
        assert_eq!(plane.decide(r(2), r(1)), SendVerdict::Drop);
        assert_eq!(plane.decide(client, r(2)), SendVerdict::Drop);
        plane.reconnect(r(2));
        assert!(matches!(
            plane.decide(r(2), r(1)),
            SendVerdict::Deliver { .. }
        ));
        assert_eq!(plane.link_tally(r(0), r(1)).dropped, 1);
        assert_eq!(plane.link_tally(r(1), r(0)).dropped, 1);
    }

    #[test]
    fn link_profiles_are_directional_and_tallied() {
        let plane = FaultPlane::new(3);
        plane.set_link(
            r(0),
            r(1),
            LinkProfile {
                drop_prob: 1.0,
                duplicate_prob: 0.0,
                jitter_us: 0,
                extra_latency_us: 0,
            },
        );
        for _ in 0..10 {
            assert_eq!(plane.decide(r(0), r(1)), SendVerdict::Drop);
        }
        // Reverse direction untouched.
        assert!(matches!(
            plane.decide(r(1), r(0)),
            SendVerdict::Deliver {
                delay_us: 0,
                duplicate_us: None
            }
        ));
        assert_eq!(plane.link_tally(r(0), r(1)).dropped, 10);
        plane.clear_link(r(0), r(1));
        assert!(matches!(
            plane.decide(r(0), r(1)),
            SendVerdict::Deliver { .. }
        ));

        plane.set_link(
            r(2),
            r(3),
            LinkProfile {
                drop_prob: 0.0,
                duplicate_prob: 1.0,
                jitter_us: 500,
                extra_latency_us: 1_000,
            },
        );
        for _ in 0..10 {
            match plane.decide(r(2), r(3)) {
                SendVerdict::Deliver {
                    delay_us,
                    duplicate_us: Some(dup),
                } => {
                    assert!((1_000..=1_500).contains(&delay_us));
                    assert!(dup > delay_us);
                }
                v => panic!("expected delayed duplicate, got {v:?}"),
            }
        }
        let tally = plane.link_tally(r(2), r(3));
        assert_eq!(tally.duplicated, 10);
        assert_eq!(tally.delayed, 10);
        assert_eq!(plane.total_tally().dropped, 10);
    }

    #[test]
    fn storm_signal_bumps_prefix_epochs() {
        let storm = StormSignal::new(4);
        assert_eq!(storm.epoch(ClientId(0)), 0);
        storm.trigger(2);
        assert_eq!(storm.epoch(ClientId(0)), 1);
        assert_eq!(storm.epoch(ClientId(1)), 1);
        assert_eq!(storm.epoch(ClientId(2)), 0);
        // Out-of-range clients read 0 rather than panicking.
        assert_eq!(storm.epoch(ClientId(9)), 0);
    }
}
