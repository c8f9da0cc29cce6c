//! Checkpoint pages of the bucket-indexed file system, against a
//! full-scan reference: for random operation histories and bucket counts,
//! every page `encode_bucket` produces is byte-identical to scanning all
//! inodes and keeping those with `ino % nbuckets == bucket`, and
//! installing every page into a fresh file system re-encodes to the same
//! pages (state transfer and rollback restore the state exactly).

use bfs::fs::{FileSystem, FileType, Ino, ROOT_INO};
use proptest::prelude::*;

const BUCKET_COUNTS: [u64; 4] = [1, 7, 128, 1024];

#[derive(Clone, Debug)]
enum Op {
    Create(u8, u8),
    Write(u8, u16, Vec<u8>),
    Mkdir(u8, u8),
    Remove(u8, u8),
    Rmdir(u8, u8),
    Rename(u8, u8, u8, u8),
    Symlink(u8, u8, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(d, n)| Op::Create(d, n)),
        (
            any::<u8>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..300)
        )
            .prop_map(|(f, o, data)| Op::Write(f, o, data)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, n)| Op::Mkdir(d, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, n)| Op::Remove(d, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, n)| Op::Rmdir(d, n)),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(fd, fname, td, tname)| Op::Rename(fd, fname, td, tname)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(d, n, t)| Op::Symlink(d, n, t)),
    ]
}

/// Names come from a small set so removes, renames and collisions hit
/// existing entries often.
fn name(sel: u8) -> String {
    ["a", "b", "c", "d", "e", "f"][sel as usize % 6].to_string()
}

/// Applies `ops`, picking directories and files among the handles that
/// earlier operations returned (stale ones just fail, as over NFS).
fn build(nbuckets: u64, ops: &[Op]) -> FileSystem {
    let mut fs = FileSystem::new(nbuckets);
    let mut dirs = vec![ROOT_INO];
    let mut files: Vec<Ino> = Vec::new();
    for (t, op) in ops.iter().enumerate() {
        let now = t as u64 + 1;
        let dir = |sel: u8| dirs[sel as usize % dirs.len()];
        match op {
            Op::Create(d, n) => {
                if let Ok(i) = fs.create(dir(*d), &name(*n), 0o644, now) {
                    files.push(i);
                }
            }
            Op::Write(f, off, data) => {
                if !files.is_empty() {
                    let f = files[*f as usize % files.len()];
                    let _ = fs.write(f, u64::from(*off % 2048), data, now);
                }
            }
            Op::Mkdir(d, n) => {
                if let Ok(i) = fs.mkdir(dir(*d), &name(*n), 0o755, now) {
                    dirs.push(i);
                }
            }
            Op::Remove(d, n) => {
                let _ = fs.remove(dir(*d), &name(*n), now);
            }
            Op::Rmdir(d, n) => {
                let _ = fs.rmdir(dir(*d), &name(*n), now);
            }
            Op::Rename(fd, fname, td, tname) => {
                let _ = fs.rename(dir(*fd), &name(*fname), dir(*td), &name(*tname), now);
            }
            Op::Symlink(d, n, t) => {
                let _ = fs.symlink(dir(*d), &name(*n), &format!("/{}", name(*t)), now);
            }
        }
    }
    fs
}

/// The allocator cursor, read through the public API: the next inode a
/// create would assign (on a copy, under a name no history uses).
fn next_ino(fs: &FileSystem) -> u64 {
    let mut probe = fs.clone();
    probe
        .create(ROOT_INO, "probe", 0, 0)
        .expect("the root accepts a fresh name")
        .0
}

/// The reference encoder: the page format of `encode_bucket`, computed by
/// scanning every allocated inode number and keeping the bucket's own.
fn full_scan_page(fs: &FileSystem, bucket: u64, nbuckets: u64) -> Vec<u8> {
    let next = next_ino(fs);
    let mut out = Vec::new();
    if bucket == 0 {
        out.extend_from_slice(&next.to_le_bytes());
    }
    let members: Vec<u64> = (1..next)
        .filter(|ino| ino % nbuckets == bucket && fs.getattr(Ino(*ino)).is_ok())
        .collect();
    out.extend_from_slice(&(members.len() as u32).to_le_bytes());
    for ino in members {
        let a = fs.getattr(Ino(ino)).expect("filtered above");
        out.extend_from_slice(&ino.to_le_bytes());
        out.extend_from_slice(&a.mode.to_le_bytes());
        out.extend_from_slice(&a.mtime.to_le_bytes());
        out.extend_from_slice(&a.nlink.to_le_bytes());
        match a.kind {
            FileType::Regular => {
                let data = fs.read(Ino(ino), 0, a.size as u32).expect("a file");
                out.push(0);
                out.extend_from_slice(&(data.len() as u64).to_le_bytes());
                out.extend_from_slice(&data);
            }
            FileType::Directory => {
                let entries = fs.readdir(Ino(ino)).expect("a directory");
                out.push(1);
                out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
                for (name, child) in entries {
                    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                    out.extend_from_slice(name.as_bytes());
                    out.extend_from_slice(&child.0.to_le_bytes());
                }
            }
            FileType::Symlink => {
                let target = fs.readlink(Ino(ino)).expect("a symlink");
                out.push(2);
                out.extend_from_slice(&(target.len() as u64).to_le_bytes());
                out.extend_from_slice(target.as_bytes());
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn bucket_pages_match_full_scan_and_reinstall(
        which in 0usize..4,
        ops in proptest::collection::vec(arb_op(), 0..60),
    ) {
        let nbuckets = BUCKET_COUNTS[which];
        let fs = build(nbuckets, &ops);
        let pages: Vec<Vec<u8>> = (0..nbuckets).map(|b| fs.encode_bucket(b)).collect();
        for (b, page) in pages.iter().enumerate() {
            prop_assert_eq!(page, &full_scan_page(&fs, b as u64, nbuckets), "bucket {}", b);
        }
        let mut restored = FileSystem::new(nbuckets);
        for (b, page) in pages.iter().enumerate() {
            restored.install_bucket(b as u64, page);
        }
        for (b, page) in pages.iter().enumerate() {
            prop_assert_eq!(&restored.encode_bucket(b as u64), page, "bucket {}", b);
        }
        prop_assert_eq!(restored, fs);
    }
}
