//! Hierarchical state partitions with incremental digests (§5.3.1).
//!
//! The service state is divided into pages (leaves); each meta-data
//! partition covers `branching` children. A page digest is
//! `H(index || lm || value)` where `lm` is the checkpoint sequence number
//! of the last epoch that modified the page; a meta-data digest applies
//! AdHash to its children's digests, so checkpoint creation costs time
//! proportional to the number of *modified* pages, not the state size.
//! Checkpoints are logical copies implemented copy-on-write: a snapshot
//! stores digests eagerly (small) and page values lazily (only when a later
//! write would destroy the value).
//!
//! The replica writes service pages here at checkpoints, not per batch:
//! between checkpoints the current pages hold the last checkpoint's
//! values (plus state-transfer installs and injected corruption), and
//! [`PartitionTree::write_page`] runs once per modified page just before
//! [`PartitionTree::checkpoint`].

use bft_crypto::md5::Md5;
use bft_crypto::{AdHash, Digest};
use bft_fxhash::FastMap;
use bft_types::{SeqNo, SubPartInfo};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};

/// Computes the digest of a page value (exposed for state transfer
/// verification, §5.3.2).
pub fn page_digest_for(index: u64, lm: SeqNo, value: &[u8]) -> Digest {
    page_digest(index, lm, value)
}

/// Computes the digest of a meta-data partition (exposed for state transfer
/// verification, §5.3.2).
pub fn meta_digest_for(level: usize, index: u64, lm: SeqNo, acc: &AdHash) -> Digest {
    meta_digest(level, index, lm, acc)
}

/// A meta-data node: last-modified checkpoint, child-digest accumulator,
/// and the resulting digest.
#[derive(Clone, Debug)]
struct MetaNode {
    lm: SeqNo,
    acc: AdHash,
    digest: Digest,
}

/// A logical checkpoint copy of the tree.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The checkpoint sequence number.
    pub seq: SeqNo,
    /// Root digest (what checkpoint messages carry).
    pub root: Digest,
    /// `(lm, digest)` per page at this checkpoint.
    page_meta: Vec<(SeqNo, Digest)>,
    /// Digest tables per meta level.
    meta: Vec<Vec<(SeqNo, Digest)>>,
    /// Copy-on-write page values: filled when a later write overwrites a
    /// page, so `page_at` can reconstruct the value at this checkpoint.
    cow: FastMap<u64, Bytes>,
}

/// The partition tree over a replica's paged state.
#[derive(Clone, Debug)]
pub struct PartitionTree {
    branching: usize,
    num_pages: u64,
    /// Current page values.
    pages: Vec<Bytes>,
    /// Current `(lm, digest)` per page.
    page_meta: Vec<(SeqNo, Digest)>,
    /// Meta levels: `meta[0]` is the root level (one node), deeper levels
    /// have more nodes; `meta.last()` holds the parents of pages.
    meta: Vec<Vec<MetaNode>>,
    /// Pages written since the last checkpoint.
    dirty: BTreeSet<u64>,
    /// Retained snapshots by sequence number.
    snapshots: BTreeMap<u64, Snapshot>,
}

fn page_digest(index: u64, lm: SeqNo, value: &[u8]) -> Digest {
    let mut ctx = Md5::new();
    ctx.update(b"page");
    ctx.update_u64(index);
    ctx.update_u64(lm.0);
    ctx.update(value);
    ctx.finish()
}

fn meta_digest(level: usize, index: u64, lm: SeqNo, acc: &AdHash) -> Digest {
    let mut ctx = Md5::new();
    ctx.update(b"meta");
    ctx.update_u64(level as u64);
    ctx.update_u64(index);
    ctx.update_u64(lm.0);
    ctx.update(acc.digest().as_bytes());
    ctx.finish()
}

impl PartitionTree {
    /// Builds the tree over initial page values.
    pub fn new(pages: Vec<Bytes>, branching: usize) -> Self {
        assert!(branching >= 2, "branching factor must be at least 2");
        assert!(!pages.is_empty(), "state must have at least one page");
        let num_pages = pages.len() as u64;
        let page_meta: Vec<(SeqNo, Digest)> = pages
            .iter()
            .enumerate()
            .map(|(i, p)| (SeqNo(0), page_digest(i as u64, SeqNo(0), p)))
            .collect();

        // Number of meta levels: enough that the root covers everything.
        let mut levels = 1usize;
        let mut cover = branching as u64;
        while cover < num_pages {
            cover = cover.saturating_mul(branching as u64);
            levels += 1;
        }

        let mut meta: Vec<Vec<MetaNode>> = Vec::with_capacity(levels);
        // Build bottom-up, then reverse so meta[0] is the root level.
        let mut child_digests: Vec<Digest> = page_meta.iter().map(|(_, d)| *d).collect();
        for level in (0..levels).rev() {
            let count = child_digests.len().div_ceil(branching);
            let mut nodes = Vec::with_capacity(count);
            for i in 0..count {
                let lo = i * branching;
                let hi = ((i + 1) * branching).min(child_digests.len());
                let acc = AdHash::from_digests(child_digests[lo..hi].iter());
                let digest = meta_digest(level, i as u64, SeqNo(0), &acc);
                nodes.push(MetaNode {
                    lm: SeqNo(0),
                    acc,
                    digest,
                });
            }
            child_digests = nodes.iter().map(|n| n.digest).collect();
            meta.push(nodes);
        }
        meta.reverse();
        debug_assert_eq!(meta[0].len(), 1, "single root");

        let mut tree = PartitionTree {
            branching,
            num_pages,
            pages,
            page_meta,
            meta,
            dirty: BTreeSet::new(),
            snapshots: BTreeMap::new(),
        };
        // Record the genesis checkpoint (sequence number 0) so rollbacks
        // before the first periodic checkpoint have a target.
        tree.snapshots.insert(
            0,
            Snapshot {
                seq: SeqNo(0),
                root: tree.meta[0][0].digest,
                page_meta: tree.page_meta.clone(),
                meta: tree
                    .meta
                    .iter()
                    .map(|lvl| lvl.iter().map(|n| (n.lm, n.digest)).collect())
                    .collect(),
                cow: FastMap::default(),
            },
        );
        tree
    }

    /// Number of pages.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Number of meta levels (root is level 0; pages live at level
    /// `num_meta_levels()`).
    pub fn num_meta_levels(&self) -> usize {
        self.meta.len()
    }

    /// Current value of a page.
    pub fn page(&self, index: u64) -> &Bytes {
        &self.pages[index as usize]
    }

    /// Current `(lm, digest)` of a page.
    pub fn page_info(&self, index: u64) -> (SeqNo, Digest) {
        self.page_meta[index as usize]
    }

    /// Current root digest (of the last checkpoint; dirty writes are not
    /// reflected until [`PartitionTree::checkpoint`] runs).
    pub fn root_digest(&self) -> Digest {
        self.meta[0][0].digest
    }

    /// Number of pages written since the last checkpoint.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Writes a page, preserving the old value in the latest snapshot's
    /// copy-on-write store when needed.
    pub fn write_page(&mut self, index: u64, value: Bytes) {
        let idx = index as usize;
        assert!(index < self.num_pages, "page index out of range");
        if let Some((_, snap)) = self.snapshots.iter_mut().next_back() {
            snap.cow
                .entry(index)
                .or_insert_with(|| self.pages[idx].clone());
        }
        self.pages[idx] = value;
        self.dirty.insert(index);
    }

    /// Takes a checkpoint at `seq`: re-digests modified pages, updates the
    /// meta hierarchy incrementally, and records a snapshot. Returns the
    /// new root digest.
    ///
    /// # Panics
    ///
    /// Panics when `seq` does not exceed the latest recorded checkpoint.
    pub fn checkpoint(&mut self, seq: SeqNo) -> Digest {
        if let Some((&latest, _)) = self.snapshots.iter().next_back() {
            assert!(seq.0 > latest, "checkpoints must advance");
        }
        let lowest = self.meta.len() - 1;
        // Per-level sets of affected meta nodes.
        let mut affected: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.meta.len()];
        for &page in &self.dirty {
            let idx = page as usize;
            let old = self.page_meta[idx].1;
            let new = page_digest(page, seq, &self.pages[idx]);
            self.page_meta[idx] = (seq, new);
            let parent = idx / self.branching;
            self.meta[lowest][parent].acc.replace(&old, &new);
            affected[lowest].insert(parent);
        }
        self.dirty.clear();
        // Propagate upward.
        for level in (0..self.meta.len()).rev() {
            let nodes: Vec<usize> = affected[level].iter().copied().collect();
            for i in nodes {
                let old = self.meta[level][i].digest;
                self.meta[level][i].lm = seq;
                let new = meta_digest(level, i as u64, seq, &self.meta[level][i].acc);
                self.meta[level][i].digest = new;
                if level > 0 {
                    let parent = i / self.branching;
                    self.meta[level - 1][parent].acc.replace(&old, &new);
                    affected[level - 1].insert(parent);
                }
            }
        }
        let root = self.meta[0][0].digest;
        self.snapshots.insert(
            seq.0,
            Snapshot {
                seq,
                root,
                page_meta: self.page_meta.clone(),
                meta: self
                    .meta
                    .iter()
                    .map(|lvl| lvl.iter().map(|n| (n.lm, n.digest)).collect())
                    .collect(),
                cow: FastMap::default(),
            },
        );
        root
    }

    /// Root digest of the checkpoint at `seq`, if retained.
    pub fn snapshot_root(&self, seq: SeqNo) -> Option<Digest> {
        self.snapshots.get(&seq.0).map(|s| s.root)
    }

    /// Sequence numbers of retained checkpoints.
    pub fn snapshot_seqs(&self) -> Vec<SeqNo> {
        self.snapshots.keys().map(|&s| SeqNo(s)).collect()
    }

    /// Discards snapshots with sequence numbers below `seq` (garbage
    /// collection, §2.3.4).
    ///
    /// Copy-on-write values of discarded snapshots are simply dropped: a
    /// cow entry means "value *at that snapshot*", and every retained
    /// snapshot's reconstruction only consults snapshots at or above
    /// itself, all of which are retained (snapshots are discarded strictly
    /// from the bottom).
    pub fn discard_below(&mut self, seq: SeqNo) {
        self.snapshots.retain(|&s, _| s >= seq.0);
    }

    /// Value of a page at checkpoint `seq` (walks the copy-on-write chain).
    pub fn page_at(&self, seq: SeqNo, index: u64) -> Option<Bytes> {
        self.snapshots.get(&seq.0)?;
        for (_, snap) in self.snapshots.range(seq.0..) {
            if let Some(v) = snap.cow.get(&index) {
                return Some(v.clone());
            }
        }
        Some(self.pages[index as usize].clone())
    }

    /// `(lm, digest)` of a page at checkpoint `seq`.
    pub fn page_info_at(&self, seq: SeqNo, index: u64) -> Option<(SeqNo, Digest)> {
        self.snapshots
            .get(&seq.0)
            .map(|s| s.page_meta[index as usize])
    }

    /// Child records of meta partition `(level, index)` at checkpoint
    /// `seq`, as sent in META-DATA replies (§5.3.2). Children of the lowest
    /// meta level are pages.
    pub fn children_at(&self, seq: SeqNo, level: usize, index: u64) -> Option<Vec<SubPartInfo>> {
        let snap = self.snapshots.get(&seq.0)?;
        if level >= self.meta.len() {
            return None;
        }
        let lo = index as usize * self.branching;
        let mut out = Vec::new();
        if level == self.meta.len() - 1 {
            let hi = (lo + self.branching).min(self.num_pages as usize);
            for i in lo..hi {
                let (lm, d) = snap.page_meta[i];
                out.push(SubPartInfo {
                    index: i as u64,
                    last_mod: lm,
                    digest: d,
                });
            }
        } else {
            let child_level = &snap.meta[level + 1];
            let hi = (lo + self.branching).min(child_level.len());
            for (i, &(lm, d)) in child_level.iter().enumerate().take(hi).skip(lo) {
                out.push(SubPartInfo {
                    index: i as u64,
                    last_mod: lm,
                    digest: d,
                });
            }
        }
        Some(out)
    }

    /// Digest of meta partition `(level, index)` at checkpoint `seq`.
    pub fn meta_digest_at(&self, seq: SeqNo, level: usize, index: u64) -> Option<Digest> {
        let snap = self.snapshots.get(&seq.0)?;
        snap.meta
            .get(level)
            .and_then(|l| l.get(index as usize))
            .map(|&(_, d)| d)
    }

    /// Rolls the current state back to checkpoint `seq`, discarding later
    /// snapshots and dirty writes (the tentative-execution abort path,
    /// §5.1.2).
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint is not retained.
    pub fn rollback_to(&mut self, seq: SeqNo) {
        assert!(
            self.snapshots.contains_key(&seq.0),
            "rollback target checkpoint not retained"
        );
        for page in 0..self.num_pages {
            let value = self.page_at(seq, page).expect("snapshot present");
            self.pages[page as usize] = value;
        }
        let snap = self.snapshots.get(&seq.0).expect("checked above");
        self.page_meta = snap.page_meta.clone();
        for (level, digests) in snap.meta.iter().enumerate() {
            for (i, &(lm, d)) in digests.iter().enumerate() {
                self.meta[level][i].lm = lm;
                self.meta[level][i].digest = d;
            }
        }
        // Accumulators must be rebuilt to match the restored digests.
        self.rebuild_accumulators();
        self.dirty.clear();
        let later: Vec<u64> = self
            .snapshots
            .range((seq.0 + 1)..)
            .map(|(&s, _)| s)
            .collect();
        for s in later {
            self.snapshots.remove(&s);
        }
        // The rollback target's cow entries are now stale (current == snap).
        if let Some(snap) = self.snapshots.get_mut(&seq.0) {
            snap.cow.clear();
        }
    }

    /// Installs a fetched page with the sender-claimed `lm` (state
    /// transfer, §5.3.2). Digest verification is the caller's duty (the
    /// fetcher checks against the parent digest before installing).
    pub fn install_page(&mut self, index: u64, value: Bytes, lm: SeqNo) {
        let idx = index as usize;
        if let Some((_, snap)) = self.snapshots.iter_mut().next_back() {
            snap.cow
                .entry(index)
                .or_insert_with(|| self.pages[idx].clone());
        }
        self.page_meta[idx] = (lm, page_digest(index, lm, &value));
        self.pages[idx] = value;
        self.dirty.remove(&index);
    }

    /// Rebuilds all meta digests from page digests and records a snapshot
    /// at `seq` (completing a state transfer to checkpoint `seq`). Returns
    /// the root digest for verification against the fetched one.
    pub fn rebuild_at(&mut self, seq: SeqNo) -> Digest {
        self.rebuild_meta_from_pages();
        self.dirty.clear();
        let root = self.meta[0][0].digest;
        self.snapshots.retain(|&s, _| s < seq.0);
        self.snapshots.insert(
            seq.0,
            Snapshot {
                seq,
                root,
                page_meta: self.page_meta.clone(),
                meta: self
                    .meta
                    .iter()
                    .map(|lvl| lvl.iter().map(|n| (n.lm, n.digest)).collect())
                    .collect(),
                cow: FastMap::default(),
            },
        );
        root
    }

    /// Recomputes every page digest from its data and `lm`, returning the
    /// indices whose stored digest did not match (local corruption
    /// detection during recovery, §5.3.3). Stored digests are replaced by
    /// the recomputed values so a subsequent transfer fetches the truth.
    pub fn recompute_page_digests(&mut self) -> Vec<u64> {
        let mut corrupted = Vec::new();
        for i in 0..self.num_pages {
            let (lm, stored) = self.page_meta[i as usize];
            let actual = page_digest(i, lm, &self.pages[i as usize]);
            if actual != stored {
                corrupted.push(i);
                self.page_meta[i as usize] = (lm, actual);
            }
        }
        corrupted
    }

    /// Overwrites page *data* without touching digests — fault injection
    /// modeling on-disk corruption by an attacker (§4.1). Detected by
    /// [`PartitionTree::recompute_page_digests`].
    pub fn corrupt_page_data(&mut self, index: u64, value: Bytes) {
        self.pages[index as usize] = value;
    }

    fn rebuild_meta_from_pages(&mut self) {
        let mut child: Vec<(SeqNo, Digest)> = self.page_meta.clone();
        for level in (0..self.meta.len()).rev() {
            let mut next: Vec<(SeqNo, Digest)> = Vec::with_capacity(self.meta[level].len());
            for i in 0..self.meta[level].len() {
                let lo = i * self.branching;
                let hi = ((i + 1) * self.branching).min(child.len());
                let acc = AdHash::from_digests(child[lo..hi].iter().map(|(_, d)| d));
                let lm = child[lo..hi]
                    .iter()
                    .map(|(lm, _)| *lm)
                    .max()
                    .unwrap_or(SeqNo(0));
                let digest = meta_digest(level, i as u64, lm, &acc);
                self.meta[level][i] = MetaNode { lm, acc, digest };
                next.push((lm, digest));
            }
            child = next;
        }
    }

    fn rebuild_accumulators(&mut self) {
        let lowest = self.meta.len() - 1;
        for level in (0..self.meta.len()).rev() {
            for i in 0..self.meta[level].len() {
                let lo = i * self.branching;
                let acc = if level == lowest {
                    let hi = (lo + self.branching).min(self.num_pages as usize);
                    AdHash::from_digests(self.page_meta[lo..hi].iter().map(|(_, d)| d))
                } else {
                    let hi = (lo + self.branching).min(self.meta[level + 1].len());
                    let ds: Vec<Digest> = self.meta[level + 1][lo..hi]
                        .iter()
                        .map(|n| n.digest)
                        .collect();
                    AdHash::from_digests(ds.iter())
                };
                self.meta[level][i].acc = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(pages: u64, branching: usize) -> PartitionTree {
        let pages = (0..pages).map(|i| Bytes::from(vec![i as u8; 32])).collect();
        PartitionTree::new(pages, branching)
    }

    #[test]
    fn identical_states_identical_roots() {
        let a = tree(20, 4);
        let b = tree(20, 4);
        assert_eq!(a.root_digest(), b.root_digest());
        let c = tree(21, 4);
        assert_ne!(a.root_digest(), c.root_digest());
    }

    #[test]
    fn checkpoint_changes_root_only_when_state_changes() {
        let mut t = tree(20, 4);
        let r0 = t.root_digest();
        t.write_page(3, Bytes::from_static(b"new"));
        let r1 = t.checkpoint(SeqNo(10));
        assert_ne!(r0, r1);
        // A checkpoint with no writes keeps page digests but bumps nothing.
        let r2 = t.checkpoint(SeqNo(20));
        assert_eq!(r1, r2, "no modifications, same root");
    }

    #[test]
    fn incremental_equals_rebuild() {
        let mut t = tree(50, 4);
        for i in [0u64, 7, 13, 49] {
            t.write_page(i, Bytes::from(vec![0xee; 64]));
        }
        let incremental = t.checkpoint(SeqNo(5));
        // An identical tree built from the final page values with the same
        // lm values must agree.
        let mut fresh = tree(50, 4);
        for i in [0u64, 7, 13, 49] {
            fresh.install_page(i, Bytes::from(vec![0xee; 64]), SeqNo(5));
        }
        let rebuilt = fresh.rebuild_at(SeqNo(5));
        assert_eq!(incremental, rebuilt);
    }

    #[test]
    fn divergent_replicas_detected_by_root() {
        let mut a = tree(20, 4);
        let mut b = tree(20, 4);
        a.write_page(5, Bytes::from_static(b"x"));
        b.write_page(5, Bytes::from_static(b"y"));
        assert_ne!(a.checkpoint(SeqNo(1)), b.checkpoint(SeqNo(1)));
    }

    #[test]
    fn cow_preserves_old_values() {
        let mut t = tree(8, 4);
        t.write_page(2, Bytes::from_static(b"v1"));
        t.checkpoint(SeqNo(10));
        t.write_page(2, Bytes::from_static(b"v2"));
        t.checkpoint(SeqNo(20));
        t.write_page(2, Bytes::from_static(b"v3"));
        assert_eq!(t.page_at(SeqNo(10), 2).unwrap(), "v1");
        assert_eq!(t.page_at(SeqNo(20), 2).unwrap(), "v2");
        assert_eq!(t.page(2), "v3");
        // Unmodified pages read through to current.
        assert_eq!(t.page_at(SeqNo(10), 0).unwrap(), t.page(0).clone());
    }

    #[test]
    fn discard_keeps_later_snapshots_reconstructible() {
        let mut t = tree(8, 4);
        t.write_page(1, Bytes::from_static(b"v1"));
        t.checkpoint(SeqNo(10));
        t.write_page(1, Bytes::from_static(b"v2"));
        t.checkpoint(SeqNo(20));
        t.write_page(1, Bytes::from_static(b"v3"));
        t.checkpoint(SeqNo(30));
        // v2 is stored in snapshot 20's cow? No: writing v3 after cp20
        // stores v2 into cp20's cow. Discarding cp10 must keep cp20 intact.
        t.discard_below(SeqNo(20));
        assert_eq!(t.page_at(SeqNo(20), 1).unwrap(), "v2");
        assert!(t.page_at(SeqNo(10), 1).is_none(), "cp10 gone");
        assert_eq!(t.snapshot_seqs(), vec![SeqNo(20), SeqNo(30)]);
    }

    #[test]
    fn rollback_restores_state_and_digests() {
        let mut t = tree(8, 4);
        t.write_page(3, Bytes::from_static(b"committed"));
        let root10 = t.checkpoint(SeqNo(10));
        t.write_page(3, Bytes::from_static(b"tentative"));
        t.write_page(7, Bytes::from_static(b"tentative2"));
        let _root20 = t.checkpoint(SeqNo(20));
        t.write_page(0, Bytes::from_static(b"dirty"));
        t.rollback_to(SeqNo(10));
        assert_eq!(t.page(3), "committed");
        assert_ne!(t.page(7), "tentative2");
        assert_ne!(t.page(0), "dirty");
        assert_eq!(t.root_digest(), root10);
        assert_eq!(t.snapshot_seqs(), vec![SeqNo(0), SeqNo(10)]);
        // The tree still works after rollback: new writes and checkpoints.
        t.write_page(2, Bytes::from_static(b"after"));
        let root30 = t.checkpoint(SeqNo(30));
        assert_ne!(root30, root10);
        // Incremental result equals a from-scratch rebuild.
        let mut check = t.clone();
        let rebuilt = check.rebuild_at(SeqNo(30));
        assert_eq!(rebuilt, root30);
    }

    #[test]
    fn children_at_reports_page_info() {
        let mut t = tree(10, 4);
        t.write_page(5, Bytes::from_static(b"x"));
        t.checkpoint(SeqNo(8));
        let lowest = t.num_meta_levels() - 1;
        let kids = t.children_at(SeqNo(8), lowest, 1).unwrap();
        assert_eq!(kids.len(), 4); // Pages 4..8.
        let k5 = kids.iter().find(|k| k.index == 5).unwrap();
        assert_eq!(k5.last_mod, SeqNo(8));
        let k4 = kids.iter().find(|k| k.index == 4).unwrap();
        assert_eq!(k4.last_mod, SeqNo(0));
        // Last parent covers the remainder.
        let kids = t.children_at(SeqNo(8), lowest, 2).unwrap();
        assert_eq!(kids.len(), 2); // Pages 8..10.
    }

    #[test]
    fn multi_level_tree_shape() {
        let t = tree(100, 4);
        // 100 pages, branching 4: levels cover 4, 16, 64, 256 → 4 levels.
        assert_eq!(t.num_meta_levels(), 4);
        // The genesis snapshot exists from construction.
        assert!(t.children_at(SeqNo(0), 0, 0).is_some());
        assert_eq!(t.children_at(SeqNo(3), 0, 0), None, "no such snapshot");
        let t2 = tree(4, 4);
        assert_eq!(t2.num_meta_levels(), 1);
        let t3 = tree(5, 4);
        assert_eq!(t3.num_meta_levels(), 2);
    }

    #[test]
    fn meta_digest_at_root_matches_snapshot_root() {
        let mut t = tree(30, 4);
        t.write_page(12, Bytes::from_static(b"z"));
        let root = t.checkpoint(SeqNo(3));
        assert_eq!(t.meta_digest_at(SeqNo(3), 0, 0), Some(root));
        assert_eq!(t.snapshot_root(SeqNo(3)), Some(root));
    }

    #[test]
    fn install_and_rebuild_transfers_state() {
        // Source replica ahead of destination.
        let mut src = tree(16, 4);
        src.write_page(3, Bytes::from_static(b"a"));
        src.write_page(9, Bytes::from_static(b"b"));
        let src_root = src.checkpoint(SeqNo(100));
        // Destination fetches the differing pages with their lm values.
        let mut dst = tree(16, 4);
        for idx in [3u64, 9] {
            let (lm, _) = src.page_info_at(SeqNo(100), idx).unwrap();
            dst.install_page(idx, src.page_at(SeqNo(100), idx).unwrap(), lm);
        }
        // Remaining pages share lm=0 digests already.
        let dst_root = dst.rebuild_at(SeqNo(100));
        assert_eq!(dst_root, src_root, "state transfer converges");
    }

    #[test]
    #[should_panic(expected = "advance")]
    fn checkpoints_must_advance() {
        let mut t = tree(4, 4);
        t.checkpoint(SeqNo(5));
        t.checkpoint(SeqNo(5));
    }
}
