//! Cluster topology configuration shared by `pbft-node` and
//! `pbft-client`.
//!
//! The format is a deliberately tiny line-oriented `key = value` file —
//! no external parser dependencies, every key checkable by eye:
//!
//! ```text
//! # pbft cluster topology
//! f = 1
//! clients = 8
//! key_seed = 42
//! view_change_ms = 250
//! status_ms = 100
//! checkpoint_interval = 64
//! batching = true
//! replica.0 = 127.0.0.1:5100
//! replica.1 = 127.0.0.1:5101
//! replica.2 = 127.0.0.1:5102
//! replica.3 = 127.0.0.1:5103
//! ```
//!
//! Durability is opt-in: `storage = wal` plus `data_dir = <path>` makes
//! every node persist the §4.3 durable set to an on-disk write-ahead log
//! under `<data_dir>/replica-<id>/`, and recover from it on boot. The
//! default `storage = mem` keeps the pre-storage behavior (nothing
//! touches disk, a node reboot loses volatile state only).
//!
//! A deployment is one group that needs its full `3f + 1` addresses;
//! duplicate replica ids and duplicate listen addresses are rejected
//! with the offending line. Parse failures come back as a typed
//! [`ConfigError`] carrying the line, the key, and a [`ConfigErrorKind`];
//! its `Display` renders the same human-readable messages `pbft-node`
//! has always printed.

use bft_core::{ClientConfig, ClusterKeys, ReplicaConfig};
use bft_types::{GroupParams, SimDuration};
use std::collections::HashMap;
use std::net::SocketAddr;

/// Which replicated service the cluster runs (`service = ...` key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceKind {
    /// The padded-counter benchmark service (default).
    Counter,
    /// BFS, the NFS-shaped file service (§6.3).
    Bfs,
}

impl ServiceKind {
    /// Config-file spelling of this service.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceKind::Counter => "counter",
            ServiceKind::Bfs => "bfs",
        }
    }
}

impl std::fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which storage engine each node runs (`storage = ...` key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageKind {
    /// In-memory durability only (default): a node reboot keeps the
    /// durable set because the process keeps it, nothing touches disk.
    Mem,
    /// On-disk write-ahead log plus compressed checkpoint snapshots
    /// under `data_dir`; a SIGKILLed node recovers from disk on reboot.
    Wal,
}

impl StorageKind {
    /// Config-file spelling of this engine.
    pub fn name(&self) -> &'static str {
        match self {
            StorageKind::Mem => "mem",
            StorageKind::Wal => "wal",
        }
    }
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What went wrong parsing a topology file. Paired with the line and
/// key context in [`ConfigError`]; the message text lives in that
/// type's `Display`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigErrorKind {
    /// A non-comment line without a `key = value` shape.
    ExpectedKeyValue,
    /// `replica.<n>` where `<n>` is not a `usize`.
    BadReplicaIndex,
    /// A replica value that does not parse as a socket address.
    BadAddress {
        /// The rejected value.
        value: String,
    },
    /// The same replica id defined twice.
    DuplicateReplicaId {
        /// Line the id was first defined on.
        first_line: usize,
    },
    /// The same listen address given to two nodes.
    DuplicateAddress {
        /// The repeated address.
        addr: SocketAddr,
        /// Line the address was first used on.
        first_line: usize,
    },
    /// A scalar key whose value failed to parse (`f = x`,
    /// `batching = maybe`, ...).
    BadValue {
        /// The rejected value.
        value: String,
    },
    /// `service = <value>` outside the allowed set.
    UnknownService {
        /// The rejected value.
        value: String,
    },
    /// `storage = <value>` outside the allowed set.
    UnknownStorage {
        /// The rejected value.
        value: String,
    },
    /// `pipeline_depth = 0` would deadlock the primary.
    PipelineDepthZero,
    /// A key this format does not define.
    UnknownKey,
    /// `f` absent or zero — no group size to check addresses against.
    MissingF,
    /// `storage = wal` with no `data_dir` to put the log in.
    WalWithoutDataDir,
    /// The group without its full contiguous `3f + 1` address set.
    IncompleteGroup {
        /// Required group size (`3f + 1`).
        n: usize,
        /// The replica indices actually present, sorted.
        indices: Vec<usize>,
    },
}

/// A topology parse failure: where ([`line`](ConfigError::line)), what
/// key ([`key`](ConfigError::key)), and what kind of problem
/// ([`kind`](ConfigError::kind)). `Display` renders the exact
/// line-numbered messages the CLI binaries print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line the error was detected on; `None` for whole-file
    /// problems (missing `f`, an incomplete group).
    pub line: Option<usize>,
    /// The config key involved, when one exists.
    pub key: Option<String>,
    /// The problem itself.
    pub kind: ConfigErrorKind,
}

impl ConfigError {
    fn at(line: usize, key: &str, kind: ConfigErrorKind) -> Self {
        ConfigError {
            line: Some(line),
            key: Some(key.to_string()),
            kind,
        }
    }

    fn whole_file(key: Option<&str>, kind: ConfigErrorKind) -> Self {
        ConfigError {
            line: None,
            key: key.map(str::to_string),
            kind,
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(line) = self.line {
            write!(f, "line {line}: ")?;
        }
        let key = self.key.as_deref().unwrap_or("");
        match &self.kind {
            ConfigErrorKind::ExpectedKeyValue => write!(f, "expected `key = value`"),
            ConfigErrorKind::BadReplicaIndex => write!(f, "bad replica index `{key}`"),
            ConfigErrorKind::BadAddress { value } => write!(f, "bad address `{value}`"),
            ConfigErrorKind::DuplicateReplicaId { first_line } => {
                write!(
                    f,
                    "duplicate replica id `{key}` (first defined on line {first_line})"
                )
            }
            ConfigErrorKind::DuplicateAddress { addr, first_line } => {
                write!(
                    f,
                    "duplicate listen address `{addr}` (first used on line {first_line})"
                )
            }
            ConfigErrorKind::BadValue { value } => write!(f, "bad {key} `{value}`"),
            ConfigErrorKind::UnknownService { value } => {
                write!(f, "unknown service `{value}` (allowed: counter, bfs)")
            }
            ConfigErrorKind::UnknownStorage { value } => {
                write!(f, "unknown storage `{value}` (allowed: mem, wal)")
            }
            ConfigErrorKind::PipelineDepthZero => {
                write!(f, "pipeline_depth must be at least 1")
            }
            ConfigErrorKind::UnknownKey => write!(f, "unknown key `{key}`"),
            ConfigErrorKind::MissingF => write!(f, "missing or zero `f`"),
            ConfigErrorKind::WalWithoutDataDir => {
                write!(f, "storage = wal requires `data_dir`")
            }
            ConfigErrorKind::IncompleteGroup { n, indices } => write!(
                f,
                "need replica.0 .. replica.{} (3f+1 = {n} addresses), got indices {indices:?}",
                n - 1
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A parsed cluster topology: one PBFT group of `3f + 1` replicas and
/// the settings every node and client shares.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// Fault threshold; the group needs `3f + 1` replica addresses.
    pub f: usize,
    /// Number of client principals provisioned in the key tables.
    pub clients: u32,
    /// Seed all nodes derive shared key material from.
    pub key_seed: u64,
    /// Base view-change timeout in milliseconds.
    pub view_change_ms: u64,
    /// Status-message interval in milliseconds.
    pub status_ms: u64,
    /// Checkpoint period `K`.
    pub checkpoint_interval: u64,
    /// Whether request batching is enabled.
    pub batching: bool,
    /// MAC worker pool size per node. `0` disables the pool: all
    /// authentication work stays on the protocol thread.
    pub workers: usize,
    /// Batches the primary keeps in flight at once (clamped to the
    /// protocol window by `bft-core`).
    pub pipeline_depth: u64,
    /// Which replicated service the nodes serve (`counter` | `bfs`).
    pub service: ServiceKind,
    /// Whether replicas execute prepared requests tentatively (§5.1.2).
    /// On by default; benchmarks disable it to measure the fast path's
    /// contribution.
    pub tentative_execution: bool,
    /// Which storage engine nodes run (`mem` | `wal`).
    pub storage: StorageKind,
    /// Directory the `wal` engine keeps per-replica state under
    /// (required when `storage = wal`, ignored otherwise).
    pub data_dir: Option<String>,
    /// Listen addresses of the replicas, indexed by replica id.
    pub replicas: Vec<SocketAddr>,
}

impl Topology {
    /// A localhost topology for `3f + 1` replicas on consecutive ports.
    pub fn localhost(f: usize, clients: u32, base_port: u16) -> Self {
        let replicas = (0..3 * f + 1)
            .map(|i| {
                // Built directly rather than parsed from a string: this
                // constructor must be infallible (ports are u16 by
                // construction), and a panic here once masked real
                // malformed-address reporting in `parse`.
                SocketAddr::new(
                    std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                    base_port.wrapping_add(i as u16),
                )
            })
            .collect();
        Topology {
            f,
            clients,
            key_seed: 42,
            view_change_ms: 250,
            status_ms: 100,
            checkpoint_interval: 64,
            batching: true,
            workers: 0,
            pipeline_depth: 8,
            service: ServiceKind::Counter,
            tentative_execution: true,
            storage: StorageKind::Mem,
            data_dir: None,
            replicas,
        }
    }

    /// Replaces the replicas' listen addresses (loopback harnesses bind
    /// ephemeral ports after the fact).
    pub fn set_replicas(&mut self, replicas: Vec<SocketAddr>) {
        self.replicas = replicas;
    }

    /// Parses the config file format documented at the module level.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut topo = Topology {
            f: 0,
            clients: 4,
            key_seed: 42,
            view_change_ms: 250,
            status_ms: 100,
            checkpoint_interval: 64,
            batching: true,
            workers: 0,
            pipeline_depth: 8,
            service: ServiceKind::Counter,
            tentative_execution: true,
            storage: StorageKind::Mem,
            data_dir: None,
            replicas: Vec::new(),
        };
        // (replica id, address) for every `replica.<n>` line seen.
        let mut replicas: Vec<(usize, SocketAddr)> = Vec::new();
        let mut seen_ids: HashMap<usize, usize> = HashMap::new();
        let mut seen_addrs: HashMap<SocketAddr, usize> = HashMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: Some(lineno),
                    key: None,
                    kind: ConfigErrorKind::ExpectedKeyValue,
                });
            };
            let (key, value) = (key.trim(), value.trim());
            let parse_u64 = |v: &str, what: &str| {
                v.parse::<u64>().map_err(|_| {
                    ConfigError::at(lineno, what, ConfigErrorKind::BadValue { value: v.into() })
                })
            };
            if let Some(idx) = key.strip_prefix("replica.") {
                let idx: usize = idx
                    .parse()
                    .map_err(|_| ConfigError::at(lineno, key, ConfigErrorKind::BadReplicaIndex))?;
                let addr: SocketAddr = value.parse().map_err(|_| {
                    ConfigError::at(
                        lineno,
                        key,
                        ConfigErrorKind::BadAddress {
                            value: value.into(),
                        },
                    )
                })?;
                if let Some(first) = seen_ids.insert(idx, lineno) {
                    return Err(ConfigError::at(
                        lineno,
                        key,
                        ConfigErrorKind::DuplicateReplicaId { first_line: first },
                    ));
                }
                if let Some(first) = seen_addrs.insert(addr, lineno) {
                    return Err(ConfigError::at(
                        lineno,
                        key,
                        ConfigErrorKind::DuplicateAddress {
                            addr,
                            first_line: first,
                        },
                    ));
                }
                replicas.push((idx, addr));
                continue;
            }
            match key {
                "f" => topo.f = parse_u64(value, "f")? as usize,
                "clients" => topo.clients = parse_u64(value, "clients")? as u32,
                "key_seed" => topo.key_seed = parse_u64(value, "key_seed")?,
                "view_change_ms" => topo.view_change_ms = parse_u64(value, "view_change_ms")?,
                "status_ms" => topo.status_ms = parse_u64(value, "status_ms")?,
                "checkpoint_interval" => {
                    topo.checkpoint_interval = parse_u64(value, "checkpoint_interval")?
                }
                "batching" => {
                    topo.batching = match value {
                        "true" => true,
                        "false" => false,
                        _ => {
                            return Err(ConfigError::at(
                                lineno,
                                key,
                                ConfigErrorKind::BadValue {
                                    value: value.into(),
                                },
                            ))
                        }
                    }
                }
                "workers" => topo.workers = parse_u64(value, "workers")? as usize,
                "service" => {
                    topo.service = match value {
                        "counter" => ServiceKind::Counter,
                        "bfs" => ServiceKind::Bfs,
                        _ => {
                            return Err(ConfigError::at(
                                lineno,
                                key,
                                ConfigErrorKind::UnknownService {
                                    value: value.into(),
                                },
                            ))
                        }
                    }
                }
                "storage" => {
                    topo.storage = match value {
                        "mem" => StorageKind::Mem,
                        "wal" => StorageKind::Wal,
                        _ => {
                            return Err(ConfigError::at(
                                lineno,
                                key,
                                ConfigErrorKind::UnknownStorage {
                                    value: value.into(),
                                },
                            ))
                        }
                    }
                }
                "data_dir" => topo.data_dir = Some(value.to_string()),
                "tentative_execution" => {
                    topo.tentative_execution = match value {
                        "true" => true,
                        "false" => false,
                        _ => {
                            return Err(ConfigError::at(
                                lineno,
                                key,
                                ConfigErrorKind::BadValue {
                                    value: value.into(),
                                },
                            ))
                        }
                    }
                }
                "pipeline_depth" => {
                    topo.pipeline_depth = parse_u64(value, "pipeline_depth")?;
                    if topo.pipeline_depth == 0 {
                        return Err(ConfigError::at(
                            lineno,
                            key,
                            ConfigErrorKind::PipelineDepthZero,
                        ));
                    }
                }
                _ => return Err(ConfigError::at(lineno, key, ConfigErrorKind::UnknownKey)),
            }
        }
        if topo.f == 0 {
            return Err(ConfigError::whole_file(
                Some("f"),
                ConfigErrorKind::MissingF,
            ));
        }
        if topo.storage == StorageKind::Wal && topo.data_dir.is_none() {
            return Err(ConfigError::whole_file(
                Some("storage"),
                ConfigErrorKind::WalWithoutDataDir,
            ));
        }
        let n = 3 * topo.f + 1;
        replicas.sort_by_key(|&(i, _)| i);
        let indices: Vec<usize> = replicas.iter().map(|&(i, _)| i).collect();
        if indices != (0..n).collect::<Vec<_>>() {
            return Err(ConfigError::whole_file(
                None,
                ConfigErrorKind::IncompleteGroup { n, indices },
            ));
        }
        topo.replicas = replicas.into_iter().map(|(_, a)| a).collect();
        Ok(topo)
    }

    /// Renders the topology back into the config file format.
    pub fn to_config_string(&self) -> String {
        let mut out = String::from("# pbft cluster topology\n");
        out.push_str(&format!("f = {}\n", self.f));
        out.push_str(&format!("clients = {}\n", self.clients));
        out.push_str(&format!("key_seed = {}\n", self.key_seed));
        out.push_str(&format!("view_change_ms = {}\n", self.view_change_ms));
        out.push_str(&format!("status_ms = {}\n", self.status_ms));
        out.push_str(&format!(
            "checkpoint_interval = {}\n",
            self.checkpoint_interval
        ));
        out.push_str(&format!("batching = {}\n", self.batching));
        out.push_str(&format!("workers = {}\n", self.workers));
        out.push_str(&format!("pipeline_depth = {}\n", self.pipeline_depth));
        out.push_str(&format!("service = {}\n", self.service));
        out.push_str(&format!(
            "tentative_execution = {}\n",
            self.tentative_execution
        ));
        out.push_str(&format!("storage = {}\n", self.storage));
        if let Some(dir) = &self.data_dir {
            out.push_str(&format!("data_dir = {dir}\n"));
        }
        for (i, addr) in self.replicas.iter().enumerate() {
            out.push_str(&format!("replica.{i} = {addr}\n"));
        }
        out
    }

    /// Group parameters for this topology.
    pub fn group(&self) -> GroupParams {
        GroupParams::for_f(self.f)
    }

    /// The replica protocol configuration this topology implies.
    pub fn replica_config(&self) -> ReplicaConfig {
        let mut config = ReplicaConfig::small(self.f);
        config.num_clients = self.clients.max(config.num_clients);
        config.view_change_timeout = SimDuration::from_millis(self.view_change_ms);
        config.status_interval = SimDuration::from_millis(self.status_ms);
        config.checkpoint_interval = self.checkpoint_interval;
        config.opts.batching = self.batching;
        config.opts.tentative_execution = self.tentative_execution;
        config.pipeline_depth = Some(self.pipeline_depth);
        // Outbound MACs move to the pool only when a pool exists.
        config.defer_multicast_auth = self.workers > 0;
        // Small signature modulus: signatures are off the hot path in
        // MAC mode, and key generation happens on every node boot.
        config.sig_modulus_bits = 256;
        config
    }

    /// Client-side configuration derived from the replica configuration.
    pub fn client_config(&self) -> ClientConfig {
        ClientConfig::from_replica(&self.replica_config())
    }

    /// Deterministic shared key material for every node in the group.
    pub fn keys(&self) -> ClusterKeys {
        let config = self.replica_config();
        ClusterKeys::generate(
            config.group,
            config.num_clients,
            config.sig_modulus_bits,
            self.key_seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_config_text() {
        let topo = Topology::localhost(1, 8, 5100);
        let text = topo.to_config_string();
        let back = Topology::parse(&text).expect("parse own output");
        assert_eq!(back, topo);
    }

    #[test]
    fn parses_comments_and_whitespace() {
        let text = "\n# comment\n f = 1  # trailing\n\nreplica.0=127.0.0.1:1\nreplica.1 = 127.0.0.1:2\nreplica.2 = 127.0.0.1:3\nreplica.3 = 127.0.0.1:4\n";
        let topo = Topology::parse(text).expect("parse");
        assert_eq!(topo.f, 1);
        assert_eq!(topo.replicas.len(), 4);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Topology::parse("nonsense").is_err());
        assert!(Topology::parse("f = x").is_err());
        assert!(Topology::parse("unknown = 1").is_err());
        // Missing replica addresses for 3f+1.
        let err = Topology::parse("f = 1\nreplica.0 = 127.0.0.1:1\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("3f+1"), "{err}");
        // Zero f.
        assert!(Topology::parse("clients = 2").is_err());
    }

    /// Errors carry structured context — the line, the key, and a typed
    /// kind — not just a rendered string, so harnesses can match on the
    /// failure instead of grepping messages.
    #[test]
    fn errors_are_typed_with_line_key_and_kind() {
        let err = Topology::parse("f = 1\nreplica.0 = nope\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert_eq!(err.key.as_deref(), Some("replica.0"));
        assert_eq!(
            err.kind,
            ConfigErrorKind::BadAddress {
                value: "nope".into()
            }
        );
        let err = Topology::parse("f = 1\nbogus = 1\n").unwrap_err();
        assert_eq!(err.kind, ConfigErrorKind::UnknownKey);
        assert_eq!(err.key.as_deref(), Some("bogus"));
        // A deployment is one group: a section for another group is an
        // unknown key, not a config silently run as one group.
        let err = Topology::parse(
            "f = 1\nreplica.0 = 127.0.0.1:1\nreplica.1 = 127.0.0.1:2\n\
             replica.2 = 127.0.0.1:3\nreplica.3 = 127.0.0.1:4\n\
             shard.1.replica.0 = 127.0.0.1:11\n",
        )
        .unwrap_err();
        assert_eq!(err.kind, ConfigErrorKind::UnknownKey);
        assert_eq!(err.line, Some(6));
        assert_eq!(err.to_string(), "line 6: unknown key `shard.1.replica.0`");
        let err = Topology::parse("clients = 2").unwrap_err();
        assert_eq!(err.line, None, "whole-file errors carry no line");
        assert_eq!(err.kind, ConfigErrorKind::MissingF);
        assert_eq!(err.to_string(), "missing or zero `f`");
        // The std Error impl makes it boxable for callers that want one.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("missing"));
    }

    /// Regression: a malformed replica address must come back as a
    /// line-numbered `Err`, never a panic, so `pbft-node` can print a
    /// readable config error.
    #[test]
    fn malformed_address_is_an_error_not_a_panic() {
        for bad in [
            "f = 1\nreplica.0 = not-an-address\n",
            "f = 1\nreplica.0 = 127.0.0.1\n",       // missing port
            "f = 1\nreplica.0 = 127.0.0.1:99999\n", // port out of range
            "f = 1\nreplica.0 = 300.0.0.1:5100\n",  // bad octet
        ] {
            let err = std::panic::catch_unwind(|| Topology::parse(bad))
                .expect("parse must not panic")
                .expect_err("malformed address must be rejected")
                .to_string();
            assert!(err.contains("line 2"), "error names the line: {err}");
            assert!(
                err.contains("bad address"),
                "error names the problem: {err}"
            );
        }
        // A malformed index is reported by key, also without panicking.
        let err = Topology::parse("f = 1\nreplica.zero = 127.0.0.1:5100\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("bad replica index"), "{err}");
    }

    #[test]
    fn worker_and_pipeline_keys_roundtrip() {
        let mut topo = Topology::localhost(1, 8, 5100);
        topo.workers = 3;
        topo.pipeline_depth = 4;
        let back = Topology::parse(&topo.to_config_string()).expect("parse own output");
        assert_eq!(back, topo);
        let rc = back.replica_config();
        assert_eq!(rc.pipeline_depth, Some(4));
        assert!(rc.defer_multicast_auth);
        // No pool → no deferred MACs.
        let mut solo = topo.clone();
        solo.workers = 0;
        assert!(!solo.replica_config().defer_multicast_auth);
        // A zero depth would deadlock the primary; reject it at parse.
        assert!(Topology::parse("f = 1\npipeline_depth = 0\n").is_err());
        assert!(Topology::parse("f = 1\nworkers = x\n").is_err());
    }

    /// The `service` key selects which state machine the nodes run.
    /// Absent key → counter (every pre-BFS config file parses unchanged);
    /// unknown values are rejected naming the line and the alternatives.
    #[test]
    fn service_key_parses_validates_and_defaults() {
        let base = "f = 1\nreplica.0 = 127.0.0.1:1\nreplica.1 = 127.0.0.1:2\n\
                    replica.2 = 127.0.0.1:3\nreplica.3 = 127.0.0.1:4\n";
        // Default: counter.
        let topo = Topology::parse(base).expect("parse");
        assert_eq!(topo.service, ServiceKind::Counter);
        assert!(topo.tentative_execution);
        // Explicit values.
        let topo = Topology::parse(&format!("service = bfs\n{base}")).expect("parse");
        assert_eq!(topo.service, ServiceKind::Bfs);
        let topo = Topology::parse(&format!("service = counter\n{base}")).expect("parse");
        assert_eq!(topo.service, ServiceKind::Counter);
        // Unknown service: line-numbered error naming the allowed values.
        let err = Topology::parse(&format!("{base}service = nfs\n"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 6"), "{err}");
        assert!(err.contains("unknown service `nfs`"), "{err}");
        assert!(err.contains("counter"), "{err}");
        assert!(err.contains("bfs"), "{err}");
        // Round trip.
        let mut topo = Topology::localhost(1, 8, 5100);
        topo.service = ServiceKind::Bfs;
        let back = Topology::parse(&topo.to_config_string()).expect("parse own output");
        assert_eq!(back, topo);
    }

    /// The `storage` key selects the durability engine. Absent key →
    /// mem (every pre-storage config file parses unchanged); `wal`
    /// demands a `data_dir`; unknown engines are rejected naming the
    /// line and the alternatives.
    #[test]
    fn storage_key_parses_validates_and_defaults() {
        let base = "f = 1\nreplica.0 = 127.0.0.1:1\nreplica.1 = 127.0.0.1:2\n\
                    replica.2 = 127.0.0.1:3\nreplica.3 = 127.0.0.1:4\n";
        // Default: mem, no data_dir.
        let topo = Topology::parse(base).expect("parse");
        assert_eq!(topo.storage, StorageKind::Mem);
        assert_eq!(topo.data_dir, None);
        // Explicit wal with a directory.
        let topo = Topology::parse(&format!("storage = wal\ndata_dir = /tmp/pbft\n{base}"))
            .expect("parse");
        assert_eq!(topo.storage, StorageKind::Wal);
        assert_eq!(topo.data_dir.as_deref(), Some("/tmp/pbft"));
        // wal without data_dir is a whole-file error.
        let err = Topology::parse(&format!("storage = wal\n{base}")).unwrap_err();
        assert_eq!(err.kind, ConfigErrorKind::WalWithoutDataDir);
        assert!(err.to_string().contains("requires `data_dir`"), "{err}");
        // Unknown engine: line-numbered, names the alternatives.
        let err = Topology::parse(&format!("{base}storage = paper\n")).unwrap_err();
        assert_eq!(err.line, Some(6));
        assert_eq!(
            err.kind,
            ConfigErrorKind::UnknownStorage {
                value: "paper".into()
            }
        );
        assert!(err.to_string().contains("mem, wal"), "{err}");
        // Round trip, with and without data_dir.
        let mut topo = Topology::localhost(1, 8, 5100);
        topo.storage = StorageKind::Wal;
        topo.data_dir = Some("/var/lib/pbft".into());
        let back = Topology::parse(&topo.to_config_string()).expect("parse own output");
        assert_eq!(back, topo);
        topo.storage = StorageKind::Mem;
        topo.data_dir = None;
        let back = Topology::parse(&topo.to_config_string()).expect("parse own output");
        assert_eq!(back, topo);
    }

    #[test]
    fn tentative_execution_key_parses_and_reaches_replica_config() {
        let mut topo = Topology::localhost(1, 8, 5100);
        assert!(topo.replica_config().opts.tentative_execution);
        topo.tentative_execution = false;
        let back = Topology::parse(&topo.to_config_string()).expect("parse own output");
        assert_eq!(back, topo);
        assert!(!back.replica_config().opts.tentative_execution);
        assert!(Topology::parse("f = 1\ntentative_execution = maybe\n").is_err());
    }

    /// Duplicate replica ids and duplicate listen addresses are
    /// config-file mistakes that would produce a cluster where two nodes
    /// fight over one identity or one port; both are rejected with the
    /// offending line.
    #[test]
    fn rejects_duplicate_ids_and_addresses_naming_the_line() {
        // Same replica id twice.
        let err = Topology::parse(
            "f = 1\nreplica.0 = 127.0.0.1:1\nreplica.1 = 127.0.0.1:2\n\
             replica.1 = 127.0.0.1:3\nreplica.3 = 127.0.0.1:4\n",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("line 4"), "{err}");
        assert!(err.contains("duplicate replica id `replica.1`"), "{err}");
        assert!(err.contains("first defined on line 3"), "{err}");
        // Same listen address on two nodes.
        let err = Topology::parse(
            "f = 1\nreplica.0 = 127.0.0.1:1\nreplica.1 = 127.0.0.1:2\n\
             replica.2 = 127.0.0.1:3\nreplica.3 = 127.0.0.1:2\n",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("line 5"), "{err}");
        assert!(
            err.contains("duplicate listen address `127.0.0.1:2`"),
            "{err}"
        );
        assert!(err.contains("first used on line 3"), "{err}");
    }

    #[test]
    fn incomplete_group_is_rejected() {
        // One index short of 3f+1: the message names the expected keys
        // and the indices actually present.
        let err = Topology::parse(
            "f = 1\nreplica.0 = 127.0.0.1:1\nreplica.1 = 127.0.0.1:2\n\
             replica.3 = 127.0.0.1:4\n",
        )
        .unwrap_err();
        assert_eq!(err.line, None);
        assert_eq!(
            err.kind,
            ConfigErrorKind::IncompleteGroup {
                n: 4,
                indices: vec![0, 1, 3]
            }
        );
        assert_eq!(
            err.to_string(),
            "need replica.0 .. replica.3 (3f+1 = 4 addresses), got indices [0, 1, 3]"
        );
    }

    #[test]
    fn derived_configs_are_consistent() {
        let topo = Topology::localhost(1, 16, 5100);
        let rc = topo.replica_config();
        assert_eq!(rc.group.n, 4);
        assert_eq!(rc.view_change_timeout, SimDuration::from_millis(250));
        assert_eq!(rc.checkpoint_interval, 64);
        // Keys derive deterministically: two nodes that each ran
        // `topo.keys()` independently verify each other's MACs.
        use bft_core::authn::AuthState;
        use bft_types::{NodeId, ReplicaId};
        let mut side_a = AuthState::new(
            rc.auth,
            NodeId::Replica(ReplicaId(0)),
            rc.group,
            rc.num_clients,
            &topo.keys(),
        );
        let side_b = AuthState::new(
            rc.auth,
            NodeId::Replica(ReplicaId(1)),
            rc.group,
            rc.num_clients,
            &topo.keys(),
        );
        let auth = side_a.mac_to(NodeId::Replica(ReplicaId(1)), b"payload");
        assert!(side_b.verify(NodeId::Replica(ReplicaId(0)), b"payload", &auth));
    }
}
