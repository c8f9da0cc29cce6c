//! The Andrew-benchmark-style workload (§8.6).
//!
//! The thesis evaluates BFS with the modified Andrew benchmark: five phases
//! that (1) create a directory tree, (2) copy a source tree, (3) stat every
//! file, (4) read every byte, and (5) "compile" (a CPU- and write-heavy
//! mix). We reproduce it as a synthetic generator with the same phase
//! structure, sized by a scale factor like the thesis's Andrew100 variant.
//! The generator emits a deterministic operation script; the same script
//! runs against replicated BFS and the unreplicated baseline.

use crate::service::{NfsOp, NfsReply};
use bft_statemachine::Service;
use bft_types::{ClientId, Requester};

/// The benchmark's five phases.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Phase 1: recursive mkdir.
    MakeDirs,
    /// Phase 2: copy the source tree (create + write).
    Copy,
    /// Phase 3: stat every file and directory.
    Stat,
    /// Phase 4: read every file byte.
    Read,
    /// Phase 5: compile — reads plus object-file writes.
    Compile,
}

/// All phases in benchmark order.
pub const PHASES: [Phase; 5] = [
    Phase::MakeDirs,
    Phase::Copy,
    Phase::Stat,
    Phase::Read,
    Phase::Compile,
];

impl Phase {
    /// Display name matching the thesis's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::MakeDirs => "phase1-mkdir",
            Phase::Copy => "phase2-copy",
            Phase::Stat => "phase3-stat",
            Phase::Read => "phase4-read",
            Phase::Compile => "phase5-compile",
        }
    }
}

/// Shape parameters for the synthetic source tree.
#[derive(Clone, Copy, Debug)]
pub struct AndrewConfig {
    /// Number of directories (the original tree has ~20).
    pub dirs: u32,
    /// Files per directory.
    pub files_per_dir: u32,
    /// Bytes per file.
    pub file_size: u32,
    /// Scale factor (Andrew100 in the thesis is scale 100; tests use 1).
    pub scale: u32,
}

impl Default for AndrewConfig {
    fn default() -> Self {
        AndrewConfig {
            dirs: 4,
            files_per_dir: 5,
            file_size: 1024,
            scale: 1,
        }
    }
}

impl AndrewConfig {
    /// A small configuration for fast tests.
    pub fn tiny() -> Self {
        AndrewConfig {
            dirs: 2,
            files_per_dir: 2,
            file_size: 256,
            scale: 1,
        }
    }
}

/// One scripted operation with its phase label. Handles are symbolic: the
/// runner resolves paths to inode numbers as replies come back.
#[derive(Clone, Debug)]
pub struct ScriptedOp {
    /// The phase this op belongs to.
    pub phase: Phase,
    /// Kind of operation and its symbolic arguments.
    pub kind: OpKind,
    /// Whether the op is read-only.
    pub read_only: bool,
}

/// Symbolic operation kinds (paths instead of inode handles).
#[derive(Clone, Debug)]
pub enum OpKind {
    /// mkdir(parent_path, name).
    Mkdir(String, String),
    /// create(parent_path, name).
    Create(String, String),
    /// write(path, offset, len) of deterministic bytes.
    Write(String, u64, u32),
    /// getattr(path).
    Stat(String),
    /// read(path, offset, len).
    Read(String, u64, u32),
}

/// Generates the deterministic benchmark script.
pub fn generate_script(cfg: &AndrewConfig) -> Vec<ScriptedOp> {
    let mut script = Vec::new();
    let reps = cfg.scale.max(1);
    for rep in 0..reps {
        let root = format!("run{rep}");
        // Phase 1: directory tree.
        script.push(ScriptedOp {
            phase: Phase::MakeDirs,
            kind: OpKind::Mkdir("/".into(), root.clone()),
            read_only: false,
        });
        for d in 0..cfg.dirs {
            script.push(ScriptedOp {
                phase: Phase::MakeDirs,
                kind: OpKind::Mkdir(format!("/{root}"), format!("dir{d}")),
                read_only: false,
            });
        }
        // Phase 2: copy — create files and write their contents in 4 KB
        // chunks (NFS write granularity).
        for d in 0..cfg.dirs {
            for f in 0..cfg.files_per_dir {
                let dir = format!("/{root}/dir{d}");
                let name = format!("src{f}.c");
                script.push(ScriptedOp {
                    phase: Phase::Copy,
                    kind: OpKind::Create(dir.clone(), name.clone()),
                    read_only: false,
                });
                let path = format!("{dir}/{name}");
                let mut off = 0u64;
                while off < cfg.file_size as u64 {
                    let chunk = 4096.min(cfg.file_size as u64 - off) as u32;
                    script.push(ScriptedOp {
                        phase: Phase::Copy,
                        kind: OpKind::Write(path.clone(), off, chunk),
                        read_only: false,
                    });
                    off += chunk as u64;
                }
            }
        }
        // Phase 3: stat everything.
        for d in 0..cfg.dirs {
            script.push(ScriptedOp {
                phase: Phase::Stat,
                kind: OpKind::Stat(format!("/{root}/dir{d}")),
                read_only: true,
            });
            for f in 0..cfg.files_per_dir {
                script.push(ScriptedOp {
                    phase: Phase::Stat,
                    kind: OpKind::Stat(format!("/{root}/dir{d}/src{f}.c")),
                    read_only: true,
                });
            }
        }
        // Phase 4: read every byte.
        for d in 0..cfg.dirs {
            for f in 0..cfg.files_per_dir {
                let path = format!("/{root}/dir{d}/src{f}.c");
                let mut off = 0u64;
                while off < cfg.file_size as u64 {
                    let chunk = 4096.min(cfg.file_size as u64 - off) as u32;
                    script.push(ScriptedOp {
                        phase: Phase::Read,
                        kind: OpKind::Read(path.clone(), off, chunk),
                        read_only: true,
                    });
                    off += chunk as u64;
                }
            }
        }
        // Phase 5: compile — read sources, write object files.
        for d in 0..cfg.dirs {
            for f in 0..cfg.files_per_dir {
                let dir = format!("/{root}/dir{d}");
                let src = format!("{dir}/src{f}.c");
                script.push(ScriptedOp {
                    phase: Phase::Compile,
                    kind: OpKind::Read(src, 0, cfg.file_size),
                    read_only: true,
                });
                let obj = format!("obj{f}.o");
                script.push(ScriptedOp {
                    phase: Phase::Compile,
                    kind: OpKind::Create(dir.clone(), obj.clone()),
                    read_only: false,
                });
                script.push(ScriptedOp {
                    phase: Phase::Compile,
                    kind: OpKind::Write(format!("{dir}/{obj}"), 0, cfg.file_size / 2),
                    read_only: false,
                });
            }
        }
    }
    script
}

/// Deterministic file contents for a write.
pub fn write_payload(len: u32, path: &str, offset: u64) -> Vec<u8> {
    let seed = bft_crypto::digest_parts(&[path.as_bytes(), &offset.to_le_bytes()]).as_u64();
    (0..len)
        .map(|i| (seed.wrapping_add(i as u64) % 251) as u8)
        .collect()
}

/// A path→inode cache that turns symbolic ops into concrete [`NfsOp`]s.
#[derive(Default, Debug)]
pub struct PathResolver {
    cache: std::collections::HashMap<String, u64>,
}

impl PathResolver {
    /// Creates a resolver knowing only the root.
    pub fn new() -> Self {
        let mut cache = std::collections::HashMap::new();
        cache.insert("/".to_string(), crate::fs::ROOT_INO.0);
        PathResolver { cache }
    }

    /// Inode of a cached path.
    pub fn get(&self, path: &str) -> Option<u64> {
        self.cache.get(path).copied()
    }

    /// Records a created/resolved inode.
    pub fn put(&mut self, path: String, ino: u64) {
        self.cache.insert(path, ino);
    }

    /// Converts a scripted op into a concrete NFS op (paths resolved from
    /// the cache; the runner must have executed creates in order).
    ///
    /// # Panics
    ///
    /// Panics when the script references a path that was never created —
    /// a bug in the script, not a runtime condition.
    pub fn concretize(&self, op: &OpKind) -> NfsOp {
        let ino = |p: &str| -> u64 {
            *self
                .cache
                .get(p)
                .unwrap_or_else(|| panic!("script path {p} not resolved"))
        };
        match op {
            OpKind::Mkdir(parent, name) => NfsOp::Mkdir(ino(parent), name.clone(), 0o755),
            OpKind::Create(parent, name) => NfsOp::Create(ino(parent), name.clone(), 0o644),
            OpKind::Write(path, off, len) => {
                NfsOp::Write(ino(path), *off, write_payload(*len, path, *off))
            }
            OpKind::Stat(path) => NfsOp::GetAttr(ino(path)),
            OpKind::Read(path, off, len) => NfsOp::Read(ino(path), *off, *len),
        }
    }

    /// Feeds a reply back so later script ops can resolve the path.
    pub fn learn(&mut self, op: &OpKind, reply: &NfsReply) {
        if let (OpKind::Mkdir(parent, name) | OpKind::Create(parent, name), NfsReply::Handle(h)) =
            (op, reply)
        {
            let path = if parent == "/" {
                format!("/{name}")
            } else {
                format!("{parent}/{name}")
            };
            self.put(path, *h);
        }
    }
}

/// Runs the whole script directly against a local [`BfsService`](crate::service::BfsService) — the
/// unreplicated NFS-std baseline of §8.6 (no protocol, one round trip of
/// wire cost charged by the caller). Returns per-phase operation counts.
pub fn run_unreplicated(
    service: &mut crate::service::BfsService,
    script: &[ScriptedOp],
) -> std::collections::BTreeMap<&'static str, u64> {
    let mut resolver = PathResolver::new();
    let mut counts = std::collections::BTreeMap::new();
    let client = Requester::Client(ClientId(0));
    let mut t = 1u64;
    for sop in script {
        let op = resolver.concretize(&sop.kind);
        t += 1;
        let reply_bytes = service.execute(client, &op.encode(), &t.to_le_bytes());
        let reply = NfsReply::decode(&reply_bytes).expect("well-formed reply");
        assert!(
            !matches!(reply, NfsReply::Err(_)),
            "benchmark op failed: {op:?} -> {reply:?}"
        );
        resolver.learn(&sop.kind, &reply);
        *counts.entry(sop.phase.name()).or_insert(0) += 1;
    }
    counts
}

/// Client-side CPU cost per byte of compiled source, expressed as FNV
/// scan passes over the file contents. 4096 passes over a 1 KB file is
/// ~4 MB of byte-at-a-time hashing, roughly 5 ms per file on this
/// hardware — still well under what a real `gcc` invocation (which the
/// original Andrew benchmark performs per source file) costs per file,
/// so the compute share this charges is an *underestimate* of the real
/// benchmark's.
pub const COMPILE_PASSES: u32 = 4096;
/// Scan passes for phase 4 (`grep`-style read of every byte).
pub const READ_PASSES: u32 = 4;

/// One FNV-1a pass over `bytes`, repeated `passes` times — the real,
/// un-elidable client-side computation the application phases charge.
fn scan(bytes: &[u8], passes: u32) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..passes {
        for &b in bytes {
            acc = (acc ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        acc = acc.rotate_left(7);
    }
    acc
}

/// The application work the real Andrew benchmark performs between file
/// operations, keyed off the completed op: checksumming the source
/// during the copy, scanning every byte in the read phase, and
/// compiling (the dominant cost, as in the thesis) the sources in
/// phase 5. Identical for every configuration — replicated, baseline,
/// and direct all call this from their completion paths — so the
/// overhead ratio compares protocols, not workloads.
pub fn app_work(sop: &ScriptedOp, reply: &NfsReply) -> u64 {
    let acc = match (sop.phase, &sop.kind, reply) {
        // `cp` reads the local source it is about to write: regenerate
        // the payload (the read) and checksum it.
        (Phase::Copy, OpKind::Write(path, offset, len), _) => {
            scan(&write_payload(*len, path, *offset), 1)
        }
        // `grep` scans every byte that comes back.
        (Phase::Read, _, NfsReply::Data(data)) => scan(data, READ_PASSES),
        // The compiler parses each source file it reads.
        (Phase::Compile, OpKind::Read(..), NfsReply::Data(data)) => scan(data, COMPILE_PASSES),
        // Object-file writes: the compiler already generated the bytes.
        _ => 0,
    };
    std::hint::black_box(acc)
}

/// Slot state inside the [`ScriptScheduler`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    Pending,
    Issued,
    Done,
}

/// Dependency-aware scheduler that exposes the script as a pool of
/// independently issuable operations for concurrent closed-loop clients.
///
/// Phases are barriers (the benchmark reports per-phase times), and inside
/// a phase an op becomes ready once every path it references has been
/// resolved — e.g. a `Write` becomes ready when the `Create` that mints
/// its file handle completes. Writes to disjoint offsets of the same file
/// commute, so issuing them concurrently leaves the final state identical
/// to the sequential run.
#[derive(Debug)]
pub struct ScriptScheduler {
    script: Vec<ScriptedOp>,
    resolver: PathResolver,
    state: Vec<SlotState>,
    /// First index of the current phase; everything below is done.
    phase_lo: usize,
    /// One past the last index of the current phase.
    phase_hi: usize,
    done: usize,
    /// Run [`app_work`] on every completion (application mode; off for
    /// pure RPC replay).
    app_work: bool,
}

impl ScriptScheduler {
    /// Wraps a generated script (pure RPC replay: no application work).
    pub fn new(script: Vec<ScriptedOp>) -> Self {
        let n = script.len();
        let phase_hi = Self::phase_end(&script, 0);
        ScriptScheduler {
            script,
            resolver: PathResolver::new(),
            state: vec![SlotState::Pending; n],
            phase_lo: 0,
            phase_hi,
            done: 0,
            app_work: false,
        }
    }

    /// Application mode: [`app_work`] runs on every completion, charging
    /// the client-side compute the real benchmark performs.
    pub fn with_app_work(script: Vec<ScriptedOp>) -> Self {
        ScriptScheduler {
            app_work: true,
            ..Self::new(script)
        }
    }

    fn phase_end(script: &[ScriptedOp], lo: usize) -> usize {
        if lo >= script.len() {
            return lo;
        }
        let phase = script[lo].phase;
        let mut hi = lo;
        while hi < script.len() && script[hi].phase == phase {
            hi += 1;
        }
        hi
    }

    fn required_path(kind: &OpKind) -> &str {
        match kind {
            OpKind::Mkdir(parent, _) | OpKind::Create(parent, _) => parent,
            OpKind::Write(path, _, _) | OpKind::Stat(path) | OpKind::Read(path, _, _) => path,
        }
    }

    /// Total number of scripted operations.
    pub fn len(&self) -> usize {
        self.script.len()
    }

    /// True when the script is empty.
    pub fn is_empty(&self) -> bool {
        self.script.is_empty()
    }

    /// Number of completed operations.
    pub fn completed(&self) -> usize {
        self.done
    }

    /// True once every operation has completed.
    pub fn is_finished(&self) -> bool {
        self.done == self.script.len()
    }

    /// Phase of a scripted op by index.
    pub fn phase_of(&self, idx: usize) -> Phase {
        self.script[idx].phase
    }

    /// Next issuable op: `(index, concrete op, read_only)`. `None` means
    /// nothing is ready right now — either in-flight ops must complete
    /// first (dependencies or the phase barrier) or the script is done.
    pub fn next_ready(&mut self) -> Option<(usize, NfsOp, bool)> {
        for idx in self.phase_lo..self.phase_hi {
            if self.state[idx] != SlotState::Pending {
                continue;
            }
            let sop = &self.script[idx];
            if self.resolver.get(Self::required_path(&sop.kind)).is_none() {
                continue;
            }
            self.state[idx] = SlotState::Issued;
            return Some((idx, self.resolver.concretize(&sop.kind), sop.read_only));
        }
        None
    }

    /// Records the committed reply for an issued op, unblocking dependents.
    ///
    /// # Panics
    ///
    /// Panics if the op was not issued or the reply is an NFS error — the
    /// benchmark script is constructed to succeed, so an error reply is a
    /// replication bug worth failing loudly on.
    pub fn complete(&mut self, idx: usize, reply: &NfsReply) {
        assert_eq!(
            self.state[idx],
            SlotState::Issued,
            "complete() for op {idx} that was not in flight"
        );
        assert!(
            !matches!(reply, NfsReply::Err(_)),
            "scripted op {idx} failed: {:?} -> {reply:?}",
            self.script[idx].kind
        );
        self.resolver.learn(&self.script[idx].kind, reply);
        if self.app_work {
            app_work(&self.script[idx], reply);
        }
        self.state[idx] = SlotState::Done;
        self.done += 1;
        // Advance the phase barrier once the whole window is done.
        while self.phase_lo < self.phase_hi
            && self.state[self.phase_lo..self.phase_hi]
                .iter()
                .all(|s| *s == SlotState::Done)
        {
            self.phase_lo = self.phase_hi;
            self.phase_hi = Self::phase_end(&self.script, self.phase_lo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::BfsService;

    #[test]
    fn script_covers_all_phases() {
        let script = generate_script(&AndrewConfig::default());
        for phase in PHASES {
            assert!(script.iter().any(|s| s.phase == phase), "{phase:?} missing");
        }
        // Phases appear in order.
        let order: Vec<Phase> = script.iter().map(|s| s.phase).collect();
        let mut sorted = order.clone();
        sorted.sort_by_key(|p| PHASES.iter().position(|q| q == p).expect("known"));
        assert_eq!(order, sorted);
    }

    #[test]
    fn script_is_deterministic() {
        let a = generate_script(&AndrewConfig::default());
        let b = generate_script(&AndrewConfig::default());
        assert_eq!(a.len(), b.len());
        assert!(write_payload(16, "/x", 0) == write_payload(16, "/x", 0));
        assert!(write_payload(16, "/x", 0) != write_payload(16, "/y", 0));
    }

    #[test]
    fn scale_multiplies_work() {
        let one = generate_script(&AndrewConfig::default());
        let five = generate_script(&AndrewConfig {
            scale: 5,
            ..AndrewConfig::default()
        });
        assert_eq!(five.len(), one.len() * 5);
    }

    #[test]
    fn unreplicated_run_completes() {
        let mut svc = BfsService::new(16);
        let script = generate_script(&AndrewConfig::tiny());
        let counts = run_unreplicated(&mut svc, &script);
        assert_eq!(counts.len(), 5, "all phases ran: {counts:?}");
        // The tree exists afterwards.
        let f = svc.fs().resolve("/run0/dir0/src0.c").expect("file created");
        let attrs = svc.fs().getattr(f).unwrap();
        assert_eq!(attrs.size, 256);
    }

    #[test]
    fn scheduler_concurrent_run_matches_sequential_state() {
        // Drive the scheduler with a window of 4 in-flight ops, completing
        // them in round-robin order; the final tree must match the purely
        // sequential run (disjoint writes commute, phases are barriers).
        let script = generate_script(&AndrewConfig::tiny());
        let mut seq = BfsService::new(16);
        run_unreplicated(&mut seq, &script);

        let mut svc = BfsService::new(16);
        let mut sched = ScriptScheduler::new(script.clone());
        let client = Requester::Client(ClientId(0));
        let mut t = 1u64;
        let mut inflight: Vec<(usize, NfsOp)> = Vec::new();
        while !sched.is_finished() {
            while inflight.len() < 4 {
                match sched.next_ready() {
                    Some((idx, op, _ro)) => inflight.push((idx, op)),
                    None => break,
                }
            }
            assert!(!inflight.is_empty(), "scheduler deadlocked");
            let (idx, op) = inflight.remove(0);
            t += 1;
            let reply = NfsReply::decode(&svc.execute(client, &op.encode(), &t.to_le_bytes()))
                .expect("well-formed reply");
            sched.complete(idx, &reply);
        }
        assert_eq!(sched.completed(), script.len());
        // The interleaving differs, so mtimes differ; structure and file
        // contents must not.
        for sop in &script {
            let path = match &sop.kind {
                OpKind::Mkdir(parent, name) | OpKind::Create(parent, name) => {
                    if parent == "/" {
                        format!("/{name}")
                    } else {
                        format!("{parent}/{name}")
                    }
                }
                OpKind::Write(path, _, _) => path.clone(),
                _ => continue,
            };
            let a = svc.fs().resolve(&path).expect("exists concurrent");
            let b = seq.fs().resolve(&path).expect("exists sequential");
            let (aa, ab) = (svc.fs().getattr(a).unwrap(), seq.fs().getattr(b).unwrap());
            assert_eq!(aa.kind, ab.kind, "{path}");
            assert_eq!(aa.size, ab.size, "{path}");
            if aa.kind == crate::fs::FileType::Regular {
                let da = svc.fs().read(a, 0, aa.size as u32).unwrap();
                let db = seq.fs().read(b, 0, ab.size as u32).unwrap();
                assert_eq!(da, db, "{path}");
            }
        }
    }

    #[test]
    fn scheduler_respects_phase_barriers() {
        let script = generate_script(&AndrewConfig::tiny());
        let mut sched = ScriptScheduler::new(script);
        let mut svc = BfsService::new(16);
        let client = Requester::Client(ClientId(0));
        let mut t = 1u64;
        let mut current = 0usize;
        while !sched.is_finished() {
            let (idx, op, _ro) = sched.next_ready().expect("progress");
            // Ops never come from a later phase while an earlier phase is
            // incomplete, and never from an earlier (finished) phase.
            let pos = PHASES
                .iter()
                .position(|p| *p == sched.phase_of(idx))
                .unwrap();
            assert!(pos >= current, "phase went backwards");
            current = pos;
            t += 1;
            let reply = NfsReply::decode(&svc.execute(client, &op.encode(), &t.to_le_bytes()))
                .expect("well-formed reply");
            sched.complete(idx, &reply);
        }
    }

    #[test]
    fn read_only_flags_match_op_kinds() {
        let script = generate_script(&AndrewConfig::tiny());
        for s in &script {
            let ro = matches!(s.kind, OpKind::Stat(_) | OpKind::Read(_, _, _));
            assert_eq!(s.read_only, ro);
        }
    }
}
