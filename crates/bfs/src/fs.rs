//! The in-memory file system backing BFS (§6.3).
//!
//! BFS implements the NFS protocol on top of the BFT library: each NFS RPC
//! becomes a replicated operation. This module is the deterministic file
//! store itself — inodes, directories, file data in 4 KB blocks — with the
//! NFS-shaped operation set (lookup, getattr, setattr, read, write, create,
//! remove, rename, mkdir, rmdir, readdir, symlink, readlink). Timestamps
//! come from the agreed non-deterministic value, exactly as §5.4
//! prescribes for time-last-modified.

use std::collections::BTreeMap;

/// An inode number (the NFS file handle in this reproduction).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ino(pub u64);

/// The root directory's inode number.
pub const ROOT_INO: Ino = Ino(1);

/// File type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

/// NFS-style attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attrs {
    /// File type.
    pub kind: FileType,
    /// Size in bytes.
    pub size: u64,
    /// Permission bits.
    pub mode: u32,
    /// Modification time (microseconds; from the agreed nondet value).
    pub mtime: u64,
    /// Link count.
    pub nlink: u32,
}

/// Errors mirroring NFS status codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsError {
    /// ENOENT.
    NotFound,
    /// EEXIST.
    Exists,
    /// ENOTDIR.
    NotDirectory,
    /// EISDIR.
    IsDirectory,
    /// ENOTEMPTY.
    NotEmpty,
    /// EINVAL.
    Invalid,
    /// Stale file handle.
    Stale,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NotFound => "not found",
            FsError::Exists => "exists",
            FsError::NotDirectory => "not a directory",
            FsError::IsDirectory => "is a directory",
            FsError::NotEmpty => "directory not empty",
            FsError::Invalid => "invalid argument",
            FsError::Stale => "stale file handle",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

/// A filesystem node.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Node {
    File { data: Vec<u8> },
    Dir { entries: BTreeMap<String, Ino> },
    Link { target: String },
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Inode {
    node: Node,
    mode: u32,
    mtime: u64,
    nlink: u32,
}

/// The deterministic in-memory file system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileSystem {
    /// Inodes partitioned into checkpoint buckets by `ino % buckets.len()`,
    /// each in inode order, so one bucket's page is encoded or installed
    /// without visiting the others.
    buckets: Vec<BTreeMap<u64, Inode>>,
    next_ino: u64,
}

impl FileSystem {
    /// Creates a filesystem with an empty root directory whose inodes are
    /// paged into `nbuckets` checkpoint buckets (at least one).
    pub fn new(nbuckets: u64) -> Self {
        let mut fs = FileSystem {
            buckets: vec![BTreeMap::new(); nbuckets.max(1) as usize],
            next_ino: 2,
        };
        fs.insert(
            ROOT_INO.0,
            Inode {
                node: Node::Dir {
                    entries: BTreeMap::new(),
                },
                mode: 0o755,
                mtime: 0,
                nlink: 2,
            },
        );
        fs
    }

    fn bucket_of(&self, ino: u64) -> usize {
        (ino % self.buckets.len() as u64) as usize
    }

    fn insert(&mut self, ino: u64, inode: Inode) {
        let b = self.bucket_of(ino);
        self.buckets[b].insert(ino, inode);
    }

    fn delete(&mut self, ino: u64) {
        let b = self.bucket_of(ino);
        self.buckets[b].remove(&ino);
    }

    fn get(&self, ino: Ino) -> Result<&Inode, FsError> {
        self.buckets[self.bucket_of(ino.0)]
            .get(&ino.0)
            .ok_or(FsError::Stale)
    }

    fn get_mut(&mut self, ino: Ino) -> Result<&mut Inode, FsError> {
        let b = self.bucket_of(ino.0);
        self.buckets[b].get_mut(&ino.0).ok_or(FsError::Stale)
    }

    fn dir_entries(&self, ino: Ino) -> Result<&BTreeMap<String, Ino>, FsError> {
        match &self.get(ino)?.node {
            Node::Dir { entries } => Ok(entries),
            _ => Err(FsError::NotDirectory),
        }
    }

    fn alloc(&mut self, inode: Inode) -> Ino {
        // Deterministic inode allocation: identical across replicas. This
        // is the §2.2 meta-data-invariant example: the service, not the
        // client, assigns inodes, so a faulty client cannot alias files.
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        self.insert(ino.0, inode);
        ino
    }

    /// Attributes of an inode (NFS GETATTR).
    pub fn getattr(&self, ino: Ino) -> Result<Attrs, FsError> {
        let inode = self.get(ino)?;
        Ok(Attrs {
            kind: match &inode.node {
                Node::File { .. } => FileType::Regular,
                Node::Dir { .. } => FileType::Directory,
                Node::Link { .. } => FileType::Symlink,
            },
            size: match &inode.node {
                Node::File { data } => data.len() as u64,
                Node::Dir { entries } => entries.len() as u64,
                Node::Link { target } => target.len() as u64,
            },
            mode: inode.mode,
            mtime: inode.mtime,
            nlink: inode.nlink,
        })
    }

    /// Sets mode and/or truncates (NFS SETATTR).
    pub fn setattr(
        &mut self,
        ino: Ino,
        mode: Option<u32>,
        size: Option<u64>,
        now: u64,
    ) -> Result<Attrs, FsError> {
        let inode = self.get_mut(ino)?;
        if let Some(m) = mode {
            inode.mode = m;
        }
        if let Some(sz) = size {
            match &mut inode.node {
                Node::File { data } => data.resize(sz as usize, 0),
                _ => return Err(FsError::IsDirectory),
            }
            inode.mtime = now;
        }
        self.getattr(ino)
    }

    /// Looks a name up in a directory (NFS LOOKUP).
    pub fn lookup(&self, dir: Ino, name: &str) -> Result<Ino, FsError> {
        self.dir_entries(dir)?
            .get(name)
            .copied()
            .ok_or(FsError::NotFound)
    }

    /// Creates a regular file (NFS CREATE).
    pub fn create(&mut self, dir: Ino, name: &str, mode: u32, now: u64) -> Result<Ino, FsError> {
        validate_name(name)?;
        if self.dir_entries(dir)?.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = self.alloc(Inode {
            node: Node::File { data: Vec::new() },
            mode,
            mtime: now,
            nlink: 1,
        });
        match &mut self.get_mut(dir)?.node {
            Node::Dir { entries } => {
                entries.insert(name.to_string(), ino);
            }
            _ => unreachable!("checked by dir_entries"),
        }
        self.get_mut(dir)?.mtime = now;
        Ok(ino)
    }

    /// Creates a directory (NFS MKDIR).
    pub fn mkdir(&mut self, dir: Ino, name: &str, mode: u32, now: u64) -> Result<Ino, FsError> {
        validate_name(name)?;
        if self.dir_entries(dir)?.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = self.alloc(Inode {
            node: Node::Dir {
                entries: BTreeMap::new(),
            },
            mode,
            mtime: now,
            nlink: 2,
        });
        match &mut self.get_mut(dir)?.node {
            Node::Dir { entries } => {
                entries.insert(name.to_string(), ino);
            }
            _ => unreachable!("checked by dir_entries"),
        }
        let d = self.get_mut(dir)?;
        d.mtime = now;
        d.nlink += 1;
        Ok(ino)
    }

    /// Creates a symbolic link (NFS SYMLINK).
    pub fn symlink(
        &mut self,
        dir: Ino,
        name: &str,
        target: &str,
        now: u64,
    ) -> Result<Ino, FsError> {
        validate_name(name)?;
        if self.dir_entries(dir)?.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = self.alloc(Inode {
            node: Node::Link {
                target: target.to_string(),
            },
            mode: 0o777,
            mtime: now,
            nlink: 1,
        });
        match &mut self.get_mut(dir)?.node {
            Node::Dir { entries } => {
                entries.insert(name.to_string(), ino);
            }
            _ => unreachable!("checked by dir_entries"),
        }
        Ok(ino)
    }

    /// Reads a symlink target (NFS READLINK).
    pub fn readlink(&self, ino: Ino) -> Result<String, FsError> {
        match &self.get(ino)?.node {
            Node::Link { target } => Ok(target.clone()),
            _ => Err(FsError::Invalid),
        }
    }

    /// Reads file bytes (NFS READ).
    pub fn read(&self, ino: Ino, offset: u64, len: u32) -> Result<Vec<u8>, FsError> {
        match &self.get(ino)?.node {
            Node::File { data } => {
                let start = (offset as usize).min(data.len());
                let end = (start + len as usize).min(data.len());
                Ok(data[start..end].to_vec())
            }
            _ => Err(FsError::IsDirectory),
        }
    }

    /// Writes file bytes (NFS WRITE).
    pub fn write(&mut self, ino: Ino, offset: u64, buf: &[u8], now: u64) -> Result<u64, FsError> {
        let inode = self.get_mut(ino)?;
        match &mut inode.node {
            Node::File { data } => {
                let end = offset as usize + buf.len();
                if data.len() < end {
                    data.resize(end, 0);
                }
                data[offset as usize..end].copy_from_slice(buf);
                inode.mtime = now;
                Ok(data.len() as u64)
            }
            _ => Err(FsError::IsDirectory),
        }
    }

    /// Removes a file or symlink (NFS REMOVE).
    pub fn remove(&mut self, dir: Ino, name: &str, now: u64) -> Result<(), FsError> {
        let target = self.lookup(dir, name)?;
        if matches!(self.get(target)?.node, Node::Dir { .. }) {
            return Err(FsError::IsDirectory);
        }
        match &mut self.get_mut(dir)?.node {
            Node::Dir { entries } => {
                entries.remove(name);
            }
            _ => unreachable!("lookup succeeded"),
        }
        self.get_mut(dir)?.mtime = now;
        let inode = self.get_mut(target)?;
        inode.nlink = inode.nlink.saturating_sub(1);
        if inode.nlink == 0 {
            self.delete(target.0);
        }
        Ok(())
    }

    /// Removes an empty directory (NFS RMDIR).
    pub fn rmdir(&mut self, dir: Ino, name: &str, now: u64) -> Result<(), FsError> {
        let target = self.lookup(dir, name)?;
        match &self.get(target)?.node {
            Node::Dir { entries } => {
                if !entries.is_empty() {
                    return Err(FsError::NotEmpty);
                }
            }
            _ => return Err(FsError::NotDirectory),
        }
        match &mut self.get_mut(dir)?.node {
            Node::Dir { entries } => {
                entries.remove(name);
            }
            _ => unreachable!("lookup succeeded"),
        }
        let d = self.get_mut(dir)?;
        d.mtime = now;
        d.nlink = d.nlink.saturating_sub(1);
        self.delete(target.0);
        Ok(())
    }

    /// Renames within/between directories (NFS RENAME).
    pub fn rename(
        &mut self,
        from_dir: Ino,
        from_name: &str,
        to_dir: Ino,
        to_name: &str,
        now: u64,
    ) -> Result<(), FsError> {
        validate_name(to_name)?;
        let moved = self.lookup(from_dir, from_name)?;
        // NFS semantics: an existing non-directory target is replaced.
        if let Ok(existing) = self.lookup(to_dir, to_name) {
            if matches!(self.get(existing)?.node, Node::Dir { .. }) {
                return Err(FsError::IsDirectory);
            }
            self.remove(to_dir, to_name, now)?;
        }
        match &mut self.get_mut(from_dir)?.node {
            Node::Dir { entries } => {
                entries.remove(from_name);
            }
            _ => return Err(FsError::NotDirectory),
        }
        match &mut self.get_mut(to_dir)?.node {
            Node::Dir { entries } => {
                entries.insert(to_name.to_string(), moved);
            }
            _ => return Err(FsError::NotDirectory),
        }
        self.get_mut(from_dir)?.mtime = now;
        self.get_mut(to_dir)?.mtime = now;
        Ok(())
    }

    /// Lists directory entries (NFS READDIR).
    pub fn readdir(&self, dir: Ino) -> Result<Vec<(String, Ino)>, FsError> {
        Ok(self
            .dir_entries(dir)?
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect())
    }

    /// Total number of inodes (test/metric helper).
    pub fn inode_count(&self) -> usize {
        self.buckets.iter().map(BTreeMap::len).sum()
    }

    /// Number of checkpoint buckets the inodes are paged into.
    pub fn num_buckets(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Serializes the inodes of `bucket` canonically (in inode order), for
    /// checkpoint paging. Bucket 0 additionally carries the allocator
    /// cursor so restored replicas keep allocating identically. Costs the
    /// bucket's own inodes only.
    pub fn encode_bucket(&self, bucket: u64) -> Vec<u8> {
        let mut out = Vec::new();
        if bucket == 0 {
            out.extend_from_slice(&self.next_ino.to_le_bytes());
        }
        let members = &self.buckets[bucket as usize];
        out.extend_from_slice(&(members.len() as u32).to_le_bytes());
        for (ino, inode) in members {
            out.extend_from_slice(&ino.to_le_bytes());
            out.extend_from_slice(&inode.mode.to_le_bytes());
            out.extend_from_slice(&inode.mtime.to_le_bytes());
            out.extend_from_slice(&inode.nlink.to_le_bytes());
            match &inode.node {
                Node::File { data } => {
                    out.push(0);
                    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
                    out.extend_from_slice(data);
                }
                Node::Dir { entries } => {
                    out.push(1);
                    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
                    for (name, child) in entries {
                        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                        out.extend_from_slice(name.as_bytes());
                        out.extend_from_slice(&child.0.to_le_bytes());
                    }
                }
                Node::Link { target } => {
                    out.push(2);
                    out.extend_from_slice(&(target.len() as u64).to_le_bytes());
                    out.extend_from_slice(target.as_bytes());
                }
            }
        }
        out
    }

    /// Replaces the inodes of `bucket` from a serialized page (state
    /// transfer restore). Malformed input clears the bucket (the digest
    /// check upstream guarantees this only happens for trusted data).
    pub fn install_bucket(&mut self, bucket: u64, data: &[u8]) {
        self.buckets[bucket as usize].clear();
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            if *pos + n > data.len() {
                return None;
            }
            let s = &data[*pos..*pos + n];
            *pos += n;
            Some(s)
        };
        if bucket == 0 {
            let Some(b) = take(&mut pos, 8) else { return };
            self.next_ino = u64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
        let Some(b) = take(&mut pos, 4) else { return };
        let count = u32::from_le_bytes(b.try_into().expect("4 bytes"));
        for _ in 0..count {
            let Some(b) = take(&mut pos, 8) else { return };
            let ino = u64::from_le_bytes(b.try_into().expect("8"));
            let Some(b) = take(&mut pos, 4) else { return };
            let mode = u32::from_le_bytes(b.try_into().expect("4"));
            let Some(b) = take(&mut pos, 8) else { return };
            let mtime = u64::from_le_bytes(b.try_into().expect("8"));
            let Some(b) = take(&mut pos, 4) else { return };
            let nlink = u32::from_le_bytes(b.try_into().expect("4"));
            let Some(b) = take(&mut pos, 1) else { return };
            let kind = b[0];
            let Some(b) = take(&mut pos, 8) else { return };
            let len = u64::from_le_bytes(b.try_into().expect("8")) as usize;
            let node = match kind {
                0 => {
                    let Some(b) = take(&mut pos, len) else { return };
                    Node::File { data: b.to_vec() }
                }
                1 => {
                    let mut entries = BTreeMap::new();
                    let mut ok = true;
                    for _ in 0..len {
                        let Some(b) = take(&mut pos, 4) else {
                            ok = false;
                            break;
                        };
                        let nl = u32::from_le_bytes(b.try_into().expect("4")) as usize;
                        let Some(nb) = take(&mut pos, nl) else {
                            ok = false;
                            break;
                        };
                        let name = String::from_utf8_lossy(nb).into_owned();
                        let Some(cb) = take(&mut pos, 8) else {
                            ok = false;
                            break;
                        };
                        entries.insert(name, Ino(u64::from_le_bytes(cb.try_into().expect("8"))));
                    }
                    if !ok {
                        return;
                    }
                    Node::Dir { entries }
                }
                2 => {
                    let Some(b) = take(&mut pos, len) else { return };
                    Node::Link {
                        target: String::from_utf8_lossy(b).into_owned(),
                    }
                }
                _ => return,
            };
            self.insert(
                ino,
                Inode {
                    node,
                    mode,
                    mtime,
                    nlink,
                },
            );
        }
    }

    /// Resolves a `/`-separated path from the root (test helper).
    pub fn resolve(&self, path: &str) -> Result<Ino, FsError> {
        let mut cur = ROOT_INO;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            cur = self.lookup(cur, part)?;
        }
        Ok(cur)
    }
}

fn validate_name(name: &str) -> Result<(), FsError> {
    if name.is_empty() || name.contains('/') || name == "." || name == ".." || name.len() > 255 {
        return Err(FsError::Invalid);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = FileSystem::new(4);
        let f = fs.create(ROOT_INO, "hello.txt", 0o644, 100).unwrap();
        fs.write(f, 0, b"hello world", 101).unwrap();
        assert_eq!(fs.read(f, 0, 5).unwrap(), b"hello");
        assert_eq!(fs.read(f, 6, 100).unwrap(), b"world");
        let a = fs.getattr(f).unwrap();
        assert_eq!(a.size, 11);
        assert_eq!(a.mtime, 101);
        assert_eq!(a.kind, FileType::Regular);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut fs = FileSystem::new(4);
        let f = fs.create(ROOT_INO, "f", 0o644, 0).unwrap();
        fs.write(f, 10, b"x", 1).unwrap();
        assert_eq!(fs.read(f, 0, 11).unwrap(), b"\0\0\0\0\0\0\0\0\0\0x");
    }

    #[test]
    fn mkdir_lookup_and_nesting() {
        let mut fs = FileSystem::new(4);
        let d1 = fs.mkdir(ROOT_INO, "a", 0o755, 1).unwrap();
        let d2 = fs.mkdir(d1, "b", 0o755, 2).unwrap();
        let f = fs.create(d2, "c", 0o644, 3).unwrap();
        assert_eq!(fs.resolve("/a/b/c").unwrap(), f);
        assert_eq!(fs.lookup(ROOT_INO, "a").unwrap(), d1);
        assert_eq!(fs.getattr(ROOT_INO).unwrap().nlink, 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut fs = FileSystem::new(4);
        fs.create(ROOT_INO, "x", 0o644, 0).unwrap();
        assert_eq!(fs.create(ROOT_INO, "x", 0o644, 0), Err(FsError::Exists));
        assert_eq!(fs.mkdir(ROOT_INO, "x", 0o755, 0), Err(FsError::Exists));
    }

    #[test]
    fn invalid_names_rejected() {
        let mut fs = FileSystem::new(4);
        for bad in ["", "a/b", ".", ".."] {
            assert_eq!(fs.create(ROOT_INO, bad, 0o644, 0), Err(FsError::Invalid));
        }
    }

    #[test]
    fn remove_and_rmdir() {
        let mut fs = FileSystem::new(4);
        let d = fs.mkdir(ROOT_INO, "d", 0o755, 0).unwrap();
        fs.create(d, "f", 0o644, 0).unwrap();
        assert_eq!(fs.rmdir(ROOT_INO, "d", 1), Err(FsError::NotEmpty));
        fs.remove(d, "f", 1).unwrap();
        fs.rmdir(ROOT_INO, "d", 2).unwrap();
        assert_eq!(fs.lookup(ROOT_INO, "d"), Err(FsError::NotFound));
        // Removing a directory with remove() fails.
        let d2 = fs.mkdir(ROOT_INO, "e", 0o755, 3).unwrap();
        let _ = d2;
        assert_eq!(fs.remove(ROOT_INO, "e", 4), Err(FsError::IsDirectory));
    }

    #[test]
    fn rename_replaces_files() {
        let mut fs = FileSystem::new(4);
        let f1 = fs.create(ROOT_INO, "a", 0o644, 0).unwrap();
        fs.write(f1, 0, b"one", 1).unwrap();
        let f2 = fs.create(ROOT_INO, "b", 0o644, 0).unwrap();
        fs.write(f2, 0, b"two", 1).unwrap();
        fs.rename(ROOT_INO, "a", ROOT_INO, "b", 2).unwrap();
        assert_eq!(fs.lookup(ROOT_INO, "a"), Err(FsError::NotFound));
        let b = fs.lookup(ROOT_INO, "b").unwrap();
        assert_eq!(fs.read(b, 0, 10).unwrap(), b"one");
    }

    #[test]
    fn rename_across_directories() {
        let mut fs = FileSystem::new(4);
        let d1 = fs.mkdir(ROOT_INO, "d1", 0o755, 0).unwrap();
        let d2 = fs.mkdir(ROOT_INO, "d2", 0o755, 0).unwrap();
        let f = fs.create(d1, "f", 0o644, 0).unwrap();
        fs.rename(d1, "f", d2, "g", 1).unwrap();
        assert_eq!(fs.resolve("/d2/g").unwrap(), f);
        assert!(fs.resolve("/d1/f").is_err());
    }

    #[test]
    fn symlinks() {
        let mut fs = FileSystem::new(4);
        let l = fs.symlink(ROOT_INO, "link", "/target/path", 5).unwrap();
        assert_eq!(fs.readlink(l).unwrap(), "/target/path");
        assert_eq!(fs.getattr(l).unwrap().kind, FileType::Symlink);
        let f = fs.create(ROOT_INO, "f", 0o644, 0).unwrap();
        assert_eq!(fs.readlink(f), Err(FsError::Invalid));
    }

    #[test]
    fn setattr_truncates() {
        let mut fs = FileSystem::new(4);
        let f = fs.create(ROOT_INO, "f", 0o644, 0).unwrap();
        fs.write(f, 0, b"0123456789", 1).unwrap();
        fs.setattr(f, Some(0o600), Some(4), 2).unwrap();
        let a = fs.getattr(f).unwrap();
        assert_eq!(a.size, 4);
        assert_eq!(a.mode, 0o600);
        assert_eq!(fs.read(f, 0, 10).unwrap(), b"0123");
        // Extending with setattr zero-fills.
        fs.setattr(f, None, Some(8), 3).unwrap();
        assert_eq!(fs.read(f, 0, 10).unwrap(), b"0123\0\0\0\0");
    }

    #[test]
    fn readdir_sorted_deterministic() {
        let mut fs = FileSystem::new(4);
        fs.create(ROOT_INO, "zeta", 0o644, 0).unwrap();
        fs.create(ROOT_INO, "alpha", 0o644, 0).unwrap();
        let names: Vec<String> = fs
            .readdir(ROOT_INO)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn deterministic_inode_allocation() {
        let mut a = FileSystem::new(4);
        let mut b = FileSystem::new(4);
        for i in 0..10 {
            let name = format!("f{i}");
            assert_eq!(
                a.create(ROOT_INO, &name, 0o644, i).unwrap(),
                b.create(ROOT_INO, &name, 0o644, i).unwrap()
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    fn bucket_roundtrip() {
        let mut fs = FileSystem::new(4);
        let d = fs.mkdir(ROOT_INO, "dir", 0o755, 1).unwrap();
        let f = fs.create(d, "file", 0o644, 2).unwrap();
        fs.write(f, 0, b"payload", 3).unwrap();
        fs.symlink(ROOT_INO, "ln", "/dir/file", 4).unwrap();
        let mut restored = FileSystem::new(4);
        for b in 0..fs.num_buckets() {
            let page = fs.encode_bucket(b);
            restored.install_bucket(b, &page);
        }
        assert_eq!(restored, fs);
        let rf = restored.resolve("/dir/file").unwrap();
        assert_eq!(restored.read(rf, 0, 10).unwrap(), b"payload");
    }

    #[test]
    fn stale_handles() {
        let fs = FileSystem::new(4);
        assert_eq!(fs.getattr(Ino(999)), Err(FsError::Stale));
        assert_eq!(fs.read(Ino(999), 0, 1), Err(FsError::Stale));
    }
}
