//! BFS: the NFS-shaped replicated service (§6.3).
//!
//! Each NFS RPC is encoded as an operation; the BFT library orders and
//! executes them on every replica's [`crate::fs::FileSystem`]. Read-only
//! RPCs (getattr, lookup, read, readdir, readlink) use the §5.1.3
//! optimization. Modification times come from the agreed non-deterministic
//! value: the primary proposes its clock and backups accept values that
//! parse (§5.4), with the service enforcing monotonicity deterministically.

use crate::fs::{Attrs, FileSystem, FsError, Ino};
use bft_statemachine::Service;
use bft_types::{Requester, SeqNo};
use bytes::Bytes;

/// An NFS-shaped operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NfsOp {
    /// GETATTR(ino).
    GetAttr(u64),
    /// SETATTR(ino, mode?, size?).
    SetAttr(u64, Option<u32>, Option<u64>),
    /// LOOKUP(dir, name).
    Lookup(u64, String),
    /// READ(ino, offset, len).
    Read(u64, u64, u32),
    /// WRITE(ino, offset, data).
    Write(u64, u64, Vec<u8>),
    /// CREATE(dir, name, mode).
    Create(u64, String, u32),
    /// REMOVE(dir, name).
    Remove(u64, String),
    /// MKDIR(dir, name, mode).
    Mkdir(u64, String, u32),
    /// RMDIR(dir, name).
    Rmdir(u64, String),
    /// RENAME(from_dir, from_name, to_dir, to_name).
    Rename(u64, String, u64, String),
    /// READDIR(dir).
    ReadDir(u64),
    /// SYMLINK(dir, name, target).
    Symlink(u64, String, String),
    /// READLINK(ino).
    ReadLink(u64),
}

impl NfsOp {
    /// True for operations that never modify state (§5.1.3).
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            NfsOp::GetAttr(_)
                | NfsOp::Lookup(_, _)
                | NfsOp::Read(_, _, _)
                | NfsOp::ReadDir(_)
                | NfsOp::ReadLink(_)
        )
    }

    /// Encodes the operation to bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = Vec::new();
        let pstr = |b: &mut Vec<u8>, s: &str| {
            b.extend_from_slice(&(s.len() as u32).to_le_bytes());
            b.extend_from_slice(s.as_bytes());
        };
        match self {
            NfsOp::GetAttr(i) => {
                b.push(0);
                b.extend_from_slice(&i.to_le_bytes());
            }
            NfsOp::SetAttr(i, mode, size) => {
                b.push(1);
                b.extend_from_slice(&i.to_le_bytes());
                match mode {
                    None => b.push(0),
                    Some(m) => {
                        b.push(1);
                        b.extend_from_slice(&m.to_le_bytes());
                    }
                }
                match size {
                    None => b.push(0),
                    Some(s) => {
                        b.push(1);
                        b.extend_from_slice(&s.to_le_bytes());
                    }
                }
            }
            NfsOp::Lookup(d, n) => {
                b.push(2);
                b.extend_from_slice(&d.to_le_bytes());
                pstr(&mut b, n);
            }
            NfsOp::Read(i, off, len) => {
                b.push(3);
                b.extend_from_slice(&i.to_le_bytes());
                b.extend_from_slice(&off.to_le_bytes());
                b.extend_from_slice(&len.to_le_bytes());
            }
            NfsOp::Write(i, off, data) => {
                b.push(4);
                b.extend_from_slice(&i.to_le_bytes());
                b.extend_from_slice(&off.to_le_bytes());
                b.extend_from_slice(&(data.len() as u32).to_le_bytes());
                b.extend_from_slice(data);
            }
            NfsOp::Create(d, n, mode) => {
                b.push(5);
                b.extend_from_slice(&d.to_le_bytes());
                pstr(&mut b, n);
                b.extend_from_slice(&mode.to_le_bytes());
            }
            NfsOp::Remove(d, n) => {
                b.push(6);
                b.extend_from_slice(&d.to_le_bytes());
                pstr(&mut b, n);
            }
            NfsOp::Mkdir(d, n, mode) => {
                b.push(7);
                b.extend_from_slice(&d.to_le_bytes());
                pstr(&mut b, n);
                b.extend_from_slice(&mode.to_le_bytes());
            }
            NfsOp::Rmdir(d, n) => {
                b.push(8);
                b.extend_from_slice(&d.to_le_bytes());
                pstr(&mut b, n);
            }
            NfsOp::Rename(fd, fname, td, tname) => {
                b.push(9);
                b.extend_from_slice(&fd.to_le_bytes());
                pstr(&mut b, fname);
                b.extend_from_slice(&td.to_le_bytes());
                pstr(&mut b, tname);
            }
            NfsOp::ReadDir(d) => {
                b.push(10);
                b.extend_from_slice(&d.to_le_bytes());
            }
            NfsOp::Symlink(d, n, t) => {
                b.push(11);
                b.extend_from_slice(&d.to_le_bytes());
                pstr(&mut b, n);
                pstr(&mut b, t);
            }
            NfsOp::ReadLink(i) => {
                b.push(12);
                b.extend_from_slice(&i.to_le_bytes());
            }
        }
        Bytes::from(b)
    }

    /// Decodes an operation.
    pub fn decode(buf: &[u8]) -> Option<NfsOp> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            if *pos + n > buf.len() {
                return None;
            }
            let s = &buf[*pos..*pos + n];
            *pos += n;
            Some(s)
        };
        let u64at = |pos: &mut usize| -> Option<u64> {
            Some(u64::from_le_bytes(take(pos, 8)?.try_into().ok()?))
        };
        let u32at = |pos: &mut usize| -> Option<u32> {
            Some(u32::from_le_bytes(take(pos, 4)?.try_into().ok()?))
        };
        let string = |pos: &mut usize| -> Option<String> {
            let n = u32::from_le_bytes(take(pos, 4)?.try_into().ok()?) as usize;
            if n > 4096 {
                return None;
            }
            Some(String::from_utf8_lossy(take(pos, n)?).into_owned())
        };
        let tag = take(&mut pos, 1)?[0];
        let op = match tag {
            0 => NfsOp::GetAttr(u64at(&mut pos)?),
            1 => {
                let i = u64at(&mut pos)?;
                let mode = if take(&mut pos, 1)?[0] == 1 {
                    Some(u32at(&mut pos)?)
                } else {
                    None
                };
                let size = if take(&mut pos, 1)?[0] == 1 {
                    Some(u64at(&mut pos)?)
                } else {
                    None
                };
                NfsOp::SetAttr(i, mode, size)
            }
            2 => NfsOp::Lookup(u64at(&mut pos)?, string(&mut pos)?),
            3 => NfsOp::Read(u64at(&mut pos)?, u64at(&mut pos)?, u32at(&mut pos)?),
            4 => {
                let i = u64at(&mut pos)?;
                let off = u64at(&mut pos)?;
                let n = u32at(&mut pos)? as usize;
                NfsOp::Write(i, off, take(&mut pos, n)?.to_vec())
            }
            5 => {
                let d = u64at(&mut pos)?;
                let n = string(&mut pos)?;
                NfsOp::Create(d, n, u32at(&mut pos)?)
            }
            6 => NfsOp::Remove(u64at(&mut pos)?, string(&mut pos)?),
            7 => {
                let d = u64at(&mut pos)?;
                let n = string(&mut pos)?;
                NfsOp::Mkdir(d, n, u32at(&mut pos)?)
            }
            8 => NfsOp::Rmdir(u64at(&mut pos)?, string(&mut pos)?),
            9 => NfsOp::Rename(
                u64at(&mut pos)?,
                string(&mut pos)?,
                u64at(&mut pos)?,
                string(&mut pos)?,
            ),
            10 => NfsOp::ReadDir(u64at(&mut pos)?),
            11 => {
                let d = u64at(&mut pos)?;
                let n = string(&mut pos)?;
                NfsOp::Symlink(d, n, string(&mut pos)?)
            }
            12 => NfsOp::ReadLink(u64at(&mut pos)?),
            _ => return None,
        };
        Some(op)
    }
}

/// The reply to an NFS operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NfsReply {
    /// Success with an inode handle.
    Handle(u64),
    /// Success with attributes.
    Attrs(Box<Attrs>),
    /// Success with data bytes.
    Data(Vec<u8>),
    /// Success with directory entries.
    Entries(Vec<(String, u64)>),
    /// Success with a string (readlink).
    Path(String),
    /// Success without payload.
    Ok,
    /// An NFS error.
    Err(FsError),
}

impl NfsReply {
    /// Encodes the reply to bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = Vec::new();
        match self {
            NfsReply::Handle(h) => {
                b.push(0);
                b.extend_from_slice(&h.to_le_bytes());
            }
            NfsReply::Attrs(a) => {
                b.push(1);
                b.push(match a.kind {
                    crate::fs::FileType::Regular => 0,
                    crate::fs::FileType::Directory => 1,
                    crate::fs::FileType::Symlink => 2,
                });
                b.extend_from_slice(&a.size.to_le_bytes());
                b.extend_from_slice(&a.mode.to_le_bytes());
                b.extend_from_slice(&a.mtime.to_le_bytes());
                b.extend_from_slice(&a.nlink.to_le_bytes());
            }
            NfsReply::Data(d) => {
                b.push(2);
                b.extend_from_slice(d);
            }
            NfsReply::Entries(es) => {
                b.push(3);
                b.extend_from_slice(&(es.len() as u32).to_le_bytes());
                for (n, i) in es {
                    b.extend_from_slice(&(n.len() as u32).to_le_bytes());
                    b.extend_from_slice(n.as_bytes());
                    b.extend_from_slice(&i.to_le_bytes());
                }
            }
            NfsReply::Path(p) => {
                b.push(4);
                b.extend_from_slice(p.as_bytes());
            }
            NfsReply::Ok => b.push(5),
            NfsReply::Err(e) => {
                b.push(6);
                b.push(*e as u8);
            }
        }
        Bytes::from(b)
    }

    /// Decodes a reply (client-side helper).
    pub fn decode(buf: &[u8]) -> Option<NfsReply> {
        let tag = *buf.first()?;
        let rest = &buf[1..];
        Some(match tag {
            0 => NfsReply::Handle(u64::from_le_bytes(rest.get(..8)?.try_into().ok()?)),
            1 => {
                let kind = match *rest.first()? {
                    0 => crate::fs::FileType::Regular,
                    1 => crate::fs::FileType::Directory,
                    2 => crate::fs::FileType::Symlink,
                    _ => return None,
                };
                NfsReply::Attrs(Box::new(Attrs {
                    kind,
                    size: u64::from_le_bytes(rest.get(1..9)?.try_into().ok()?),
                    mode: u32::from_le_bytes(rest.get(9..13)?.try_into().ok()?),
                    mtime: u64::from_le_bytes(rest.get(13..21)?.try_into().ok()?),
                    nlink: u32::from_le_bytes(rest.get(21..25)?.try_into().ok()?),
                }))
            }
            2 => NfsReply::Data(rest.to_vec()),
            3 => {
                let count = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                let mut pos = 4;
                let mut es = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let n = u32::from_le_bytes(rest.get(pos..pos + 4)?.try_into().ok()?) as usize;
                    pos += 4;
                    let name = String::from_utf8_lossy(rest.get(pos..pos + n)?).into_owned();
                    pos += n;
                    let ino = u64::from_le_bytes(rest.get(pos..pos + 8)?.try_into().ok()?);
                    pos += 8;
                    es.push((name, ino));
                }
                NfsReply::Entries(es)
            }
            4 => NfsReply::Path(String::from_utf8_lossy(rest).into_owned()),
            5 => NfsReply::Ok,
            6 => {
                let e = match *rest.first()? {
                    0 => FsError::NotFound,
                    1 => FsError::Exists,
                    2 => FsError::NotDirectory,
                    3 => FsError::IsDirectory,
                    4 => FsError::NotEmpty,
                    5 => FsError::Invalid,
                    _ => FsError::Stale,
                };
                NfsReply::Err(e)
            }
            _ => return None,
        })
    }
}

/// The BFS service: a [`FileSystem`] behind the [`Service`] interface.
#[derive(Clone, Debug)]
pub struct BfsService {
    fs: FileSystem,
    dirty: std::collections::BTreeSet<u64>,
    /// The replica's local clock (µs), fed by the harness; proposed as the
    /// non-deterministic value when this replica is primary.
    local_clock_us: u64,
    /// Monotonic time floor (deterministic: driven by executed nondets).
    last_time: u64,
    /// When set, `propose_nondet` reads this wall-clock epoch instead of
    /// the harness-fed `local_clock_us` (live runtime mode).
    realtime_epoch: Option<std::time::Instant>,
}

impl BfsService {
    /// Creates a BFS service paged into `buckets` checkpoint pages.
    pub fn new(buckets: u64) -> Self {
        BfsService {
            fs: FileSystem::new(buckets),
            dirty: std::collections::BTreeSet::new(),
            local_clock_us: 1,
            last_time: 0,
            realtime_epoch: None,
        }
    }

    /// Creates a BFS service whose nondet proposals come from a monotonic
    /// wall clock (for the live runtime, where there is no harness to feed
    /// `set_local_clock`). Replicas still agree on the primary's proposal
    /// via §5.4, so epochs need not be synchronized across replicas.
    pub fn new_realtime(buckets: u64) -> Self {
        let mut s = BfsService::new(buckets);
        s.realtime_epoch = Some(std::time::Instant::now());
        s
    }

    /// Read access to the file system (assertions in tests).
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Updates the local clock (simulation harness).
    pub fn set_local_clock(&mut self, us: u64) {
        self.local_clock_us = us;
    }

    fn mark_dirty_all_touched(&mut self, inos: &[u64]) {
        for i in inos {
            self.dirty.insert(i % self.fs.num_buckets());
        }
    }

    fn apply(&mut self, op: &NfsOp, now: u64) -> NfsReply {
        match op {
            NfsOp::GetAttr(i) => match self.fs.getattr(Ino(*i)) {
                Ok(a) => NfsReply::Attrs(Box::new(a)),
                Err(e) => NfsReply::Err(e),
            },
            NfsOp::SetAttr(i, mode, size) => match self.fs.setattr(Ino(*i), *mode, *size, now) {
                Ok(a) => {
                    self.mark_dirty_all_touched(&[*i]);
                    NfsReply::Attrs(Box::new(a))
                }
                Err(e) => NfsReply::Err(e),
            },
            NfsOp::Lookup(d, n) => match self.fs.lookup(Ino(*d), n) {
                Ok(i) => NfsReply::Handle(i.0),
                Err(e) => NfsReply::Err(e),
            },
            NfsOp::Read(i, off, len) => match self.fs.read(Ino(*i), *off, *len) {
                Ok(d) => NfsReply::Data(d),
                Err(e) => NfsReply::Err(e),
            },
            NfsOp::Write(i, off, data) => match self.fs.write(Ino(*i), *off, data, now) {
                Ok(_) => {
                    self.mark_dirty_all_touched(&[*i]);
                    NfsReply::Ok
                }
                Err(e) => NfsReply::Err(e),
            },
            NfsOp::Create(d, n, mode) => match self.fs.create(Ino(*d), n, *mode, now) {
                Ok(i) => {
                    self.mark_dirty_all_touched(&[*d, i.0, 0]);
                    NfsReply::Handle(i.0)
                }
                Err(e) => NfsReply::Err(e),
            },
            NfsOp::Remove(d, n) => {
                let target = self.fs.lookup(Ino(*d), n).map(|i| i.0).unwrap_or(0);
                match self.fs.remove(Ino(*d), n, now) {
                    Ok(()) => {
                        self.mark_dirty_all_touched(&[*d, target]);
                        NfsReply::Ok
                    }
                    Err(e) => NfsReply::Err(e),
                }
            }
            NfsOp::Mkdir(d, n, mode) => match self.fs.mkdir(Ino(*d), n, *mode, now) {
                Ok(i) => {
                    self.mark_dirty_all_touched(&[*d, i.0, 0]);
                    NfsReply::Handle(i.0)
                }
                Err(e) => NfsReply::Err(e),
            },
            NfsOp::Rmdir(d, n) => {
                let target = self.fs.lookup(Ino(*d), n).map(|i| i.0).unwrap_or(0);
                match self.fs.rmdir(Ino(*d), n, now) {
                    Ok(()) => {
                        self.mark_dirty_all_touched(&[*d, target]);
                        NfsReply::Ok
                    }
                    Err(e) => NfsReply::Err(e),
                }
            }
            NfsOp::Rename(fd, fname, td, tname) => {
                let moved = self.fs.lookup(Ino(*fd), fname).map(|i| i.0).unwrap_or(0);
                let replaced = self.fs.lookup(Ino(*td), tname).map(|i| i.0).unwrap_or(0);
                match self.fs.rename(Ino(*fd), fname, Ino(*td), tname, now) {
                    Ok(()) => {
                        self.mark_dirty_all_touched(&[*fd, *td, moved, replaced]);
                        NfsReply::Ok
                    }
                    Err(e) => NfsReply::Err(e),
                }
            }
            NfsOp::ReadDir(d) => match self.fs.readdir(Ino(*d)) {
                Ok(es) => NfsReply::Entries(es.into_iter().map(|(n, i)| (n, i.0)).collect()),
                Err(e) => NfsReply::Err(e),
            },
            NfsOp::Symlink(d, n, t) => match self.fs.symlink(Ino(*d), n, t, now) {
                Ok(i) => {
                    self.mark_dirty_all_touched(&[*d, i.0, 0]);
                    NfsReply::Handle(i.0)
                }
                Err(e) => NfsReply::Err(e),
            },
            NfsOp::ReadLink(i) => match self.fs.readlink(Ino(*i)) {
                Ok(p) => NfsReply::Path(p),
                Err(e) => NfsReply::Err(e),
            },
        }
    }
}

impl Service for BfsService {
    fn execute(&mut self, _requester: Requester, op: &[u8], nondet: &[u8]) -> Bytes {
        let Some(op) = NfsOp::decode(op) else {
            return NfsReply::Err(FsError::Invalid).encode();
        };
        // Deterministic monotonic time from the agreed value (§5.4).
        let proposed = nondet
            .get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .unwrap_or(0);
        let now = proposed.max(self.last_time + 1);
        if !op.is_read_only() {
            // Read-only execution (§5.1.3 fast path, empty nondet) must be
            // side-effect free: replicas serve different numbers of RO
            // requests, so advancing `last_time` here would skew future
            // mtimes across replicas. The time floor lives in a dedicated
            // page so rollback and state transfer restore it with the rest
            // of the state.
            self.last_time = now;
            self.dirty.insert(self.fs.num_buckets());
        }
        self.apply(&op, now).encode()
    }

    fn is_read_only(&self, op: &[u8]) -> bool {
        NfsOp::decode(op).map(|o| o.is_read_only()).unwrap_or(false)
    }

    fn propose_nondet(&self, _seq: SeqNo) -> Bytes {
        let clock = match self.realtime_epoch {
            Some(epoch) => (epoch.elapsed().as_micros() as u64).max(1),
            None => self.local_clock_us,
        };
        Bytes::from(clock.to_le_bytes().to_vec())
    }

    fn check_nondet(&self, nondet: &[u8]) -> bool {
        nondet.len() == 8
    }

    fn num_pages(&self) -> u64 {
        // Bucket pages plus one meta page holding the monotonic time floor.
        self.fs.num_buckets() + 1
    }

    fn get_page(&self, index: u64) -> Bytes {
        if index == self.fs.num_buckets() {
            return Bytes::from(self.last_time.to_le_bytes().to_vec());
        }
        Bytes::from(self.fs.encode_bucket(index))
    }

    fn put_page(&mut self, index: u64, data: &[u8]) {
        if index == self.fs.num_buckets() {
            self.last_time = data
                .get(..8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                .unwrap_or(0);
            return;
        }
        self.fs.install_bucket(index, data);
    }

    fn take_dirty(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::ClientId;

    fn client() -> Requester {
        Requester::Client(ClientId(0))
    }

    fn nd(t: u64) -> Vec<u8> {
        t.to_le_bytes().to_vec()
    }

    #[test]
    fn ops_roundtrip_encoding() {
        let ops = vec![
            NfsOp::GetAttr(1),
            NfsOp::SetAttr(2, Some(0o644), None),
            NfsOp::SetAttr(2, None, Some(100)),
            NfsOp::Lookup(1, "name".into()),
            NfsOp::Read(3, 10, 20),
            NfsOp::Write(3, 0, vec![1, 2, 3]),
            NfsOp::Create(1, "f".into(), 0o644),
            NfsOp::Remove(1, "f".into()),
            NfsOp::Mkdir(1, "d".into(), 0o755),
            NfsOp::Rmdir(1, "d".into()),
            NfsOp::Rename(1, "a".into(), 2, "b".into()),
            NfsOp::ReadDir(1),
            NfsOp::Symlink(1, "l".into(), "/t".into()),
            NfsOp::ReadLink(4),
        ];
        for op in ops {
            let enc = op.encode();
            assert_eq!(NfsOp::decode(&enc), Some(op.clone()), "{op:?}");
        }
    }

    #[test]
    fn replies_roundtrip_encoding() {
        let replies = vec![
            NfsReply::Handle(7),
            NfsReply::Attrs(Box::new(Attrs {
                kind: crate::fs::FileType::Regular,
                size: 10,
                mode: 0o644,
                mtime: 99,
                nlink: 1,
            })),
            NfsReply::Data(vec![1, 2, 3]),
            NfsReply::Entries(vec![("a".into(), 2), ("b".into(), 3)]),
            NfsReply::Path("/x/y".into()),
            NfsReply::Ok,
            NfsReply::Err(FsError::NotFound),
        ];
        for r in replies {
            let enc = r.encode();
            assert_eq!(NfsReply::decode(&enc), Some(r.clone()), "{r:?}");
        }
    }

    #[test]
    fn execute_create_write_read() {
        let mut s = BfsService::new(8);
        let r = s.execute(
            client(),
            &NfsOp::Create(1, "f".into(), 0o644).encode(),
            &nd(10),
        );
        let NfsReply::Handle(ino) = NfsReply::decode(&r).unwrap() else {
            panic!("expected handle");
        };
        s.execute(
            client(),
            &NfsOp::Write(ino, 0, b"data".to_vec()).encode(),
            &nd(11),
        );
        let r = s.execute(client(), &NfsOp::Read(ino, 0, 10).encode(), &nd(12));
        assert_eq!(NfsReply::decode(&r), Some(NfsReply::Data(b"data".to_vec())));
        assert!(!s.take_dirty().is_empty());
    }

    #[test]
    fn read_only_classification() {
        let s = BfsService::new(8);
        assert!(s.is_read_only(&NfsOp::GetAttr(1).encode()));
        assert!(s.is_read_only(&NfsOp::ReadDir(1).encode()));
        assert!(!s.is_read_only(&NfsOp::Write(1, 0, vec![]).encode()));
        assert!(!s.is_read_only(b"garbage"));
    }

    #[test]
    fn time_is_monotone_regardless_of_proposals() {
        let mut s = BfsService::new(8);
        let r = s.execute(
            client(),
            &NfsOp::Create(1, "a".into(), 0o644).encode(),
            &nd(100),
        );
        let NfsReply::Handle(a) = NfsReply::decode(&r).unwrap() else {
            panic!()
        };
        // A primary proposing an older clock cannot roll time back.
        s.execute(
            client(),
            &NfsOp::Write(a, 0, b"x".to_vec()).encode(),
            &nd(5),
        );
        let r = s.execute(client(), &NfsOp::GetAttr(a).encode(), &nd(6));
        let NfsReply::Attrs(attrs) = NfsReply::decode(&r).unwrap() else {
            panic!()
        };
        assert!(attrs.mtime > 100);
    }

    #[test]
    fn pages_roundtrip_full_state() {
        let mut s = BfsService::new(4);
        s.execute(
            client(),
            &NfsOp::Mkdir(1, "d".into(), 0o755).encode(),
            &nd(1),
        );
        s.execute(
            client(),
            &NfsOp::Create(2, "f".into(), 0o644).encode(),
            &nd(2),
        );
        s.execute(
            client(),
            &NfsOp::Write(3, 0, b"zz".to_vec()).encode(),
            &nd(3),
        );
        let mut s2 = BfsService::new(4);
        for p in 0..s.num_pages() {
            s2.put_page(p, &s.get_page(p));
        }
        assert_eq!(s2.fs(), s.fs());
    }

    #[test]
    fn identical_histories_identical_pages() {
        let mut a = BfsService::new(4);
        let mut b = BfsService::new(4);
        for (op, t) in [
            (NfsOp::Mkdir(1, "d".into(), 0o755), 1u64),
            (NfsOp::Create(2, "f".into(), 0o644), 2),
            (NfsOp::Write(3, 0, b"hello".to_vec()), 3),
        ] {
            a.execute(client(), &op.encode(), &nd(t));
            b.execute(client(), &op.encode(), &nd(t));
        }
        for p in 0..a.num_pages() {
            assert_eq!(a.get_page(p), b.get_page(p), "page {p}");
        }
    }

    #[test]
    fn read_only_execution_is_side_effect_free() {
        let mut s = BfsService::new(4);
        s.execute(
            client(),
            &NfsOp::Create(1, "f".into(), 0o644).encode(),
            &nd(100),
        );
        let _ = s.take_dirty();
        // Fast-path RO execution runs with an empty nondet and must leave
        // no trace: no dirty pages, no time-floor advance.
        let before: Vec<Bytes> = (0..s.num_pages()).map(|p| s.get_page(p)).collect();
        s.execute(client(), &NfsOp::GetAttr(2).encode(), b"");
        s.execute(client(), &NfsOp::ReadDir(1).encode(), b"");
        assert!(s.take_dirty().is_empty());
        for p in 0..s.num_pages() {
            assert_eq!(s.get_page(p), before[p as usize], "page {p}");
        }
    }

    #[test]
    fn time_floor_survives_page_restore() {
        let mut a = BfsService::new(4);
        a.execute(
            client(),
            &NfsOp::Create(1, "f".into(), 0o644).encode(),
            &nd(500),
        );
        // Restoring every page (rollback / state transfer) must also carry
        // the time floor, or re-execution would mint different mtimes.
        let mut b = BfsService::new(4);
        for p in 0..a.num_pages() {
            b.put_page(p, &a.get_page(p));
        }
        let ra = a.execute(
            client(),
            &NfsOp::SetAttr(2, Some(0o600), None).encode(),
            &nd(1),
        );
        let rb = b.execute(
            client(),
            &NfsOp::SetAttr(2, Some(0o600), None).encode(),
            &nd(1),
        );
        assert_eq!(ra, rb);
        for p in 0..a.num_pages() {
            assert_eq!(a.get_page(p), b.get_page(p), "page {p}");
        }
    }

    #[test]
    fn realtime_proposals_are_nonzero_and_monotone() {
        let s = BfsService::new_realtime(4);
        let p1 = s.propose_nondet(SeqNo(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let p2 = s.propose_nondet(SeqNo(2));
        let t1 = u64::from_le_bytes(p1[..8].try_into().unwrap());
        let t2 = u64::from_le_bytes(p2[..8].try_into().unwrap());
        assert!(t1 >= 1);
        assert!(t2 > t1);
        assert!(s.check_nondet(&p2));
    }

    #[test]
    fn garbage_op_rejected() {
        let mut s = BfsService::new(4);
        let r = s.execute(client(), &[200, 1, 2], &nd(1));
        assert_eq!(NfsReply::decode(&r), Some(NfsReply::Err(FsError::Invalid)));
    }
}
