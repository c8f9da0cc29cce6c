//! Replica and client configuration.

use bft_types::{GroupParams, SimDuration};

/// Which authentication scheme the protocol uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthMode {
    /// BFT-PK (Chapter 2): every message carries a public-key signature.
    Signatures,
    /// BFT (Chapter 3): MACs and authenticators; view changes use the
    /// PSet/QSet protocol.
    Macs,
}

/// The Chapter 5 optimizations, individually switchable so the §8.3.3
/// ablation experiments can measure each one's impact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Optimizations {
    /// Digest replies: only the designated replier sends the full result
    /// (§5.1.1). Replies smaller than [`ReplicaConfig::digest_reply_threshold`]
    /// are always sent in full.
    pub digest_replies: bool,
    /// Tentative execution: execute once prepared, reply tentatively
    /// (§5.1.2).
    pub tentative_execution: bool,
    /// Read-only operations bypass the three-phase protocol (§5.1.3).
    pub read_only: bool,
    /// Request batching under load (§5.1.4).
    pub batching: bool,
    /// Separate transmission of large requests (§5.1.5).
    pub separate_request_transmission: bool,
}

impl Default for Optimizations {
    fn default() -> Self {
        Self::all()
    }
}

impl Optimizations {
    /// All optimizations enabled (the configuration the thesis evaluates by
    /// default).
    pub fn all() -> Self {
        Optimizations {
            digest_replies: true,
            tentative_execution: true,
            read_only: true,
            batching: true,
            separate_request_transmission: true,
        }
    }

    /// Every optimization disabled (the ablation baseline).
    pub fn none() -> Self {
        Optimizations {
            digest_replies: false,
            tentative_execution: false,
            read_only: false,
            batching: false,
            separate_request_transmission: false,
        }
    }
}

/// Proactive-recovery (BFT-PR, Chapter 4) parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryConfig {
    /// Whether proactive recovery is enabled at all.
    pub enabled: bool,
    /// Watchdog period `Tw`: time between recoveries of this replica.
    pub watchdog_period: SimDuration,
    /// Session-key refreshment period `Tk` (§4.3.1).
    pub key_refresh_period: SimDuration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            enabled: false,
            watchdog_period: SimDuration::from_secs(120),
            key_refresh_period: SimDuration::from_secs(15),
        }
    }
}

/// Full replica configuration.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Group size parameters (`n`, `f`).
    pub group: GroupParams,
    /// Number of client principals the key tables provision for.
    pub num_clients: u32,
    /// Authentication scheme.
    pub auth: AuthMode,
    /// Optimization switches.
    pub opts: Optimizations,
    /// Checkpoint period `K` (§2.3.4); the thesis uses 128.
    pub checkpoint_interval: u64,
    /// Log size `L` as a multiple of `K`; the thesis uses a small factor
    /// like 2, so `L = log_factor * K`.
    pub log_factor: u64,
    /// Base view-change timeout `T` (doubles on consecutive failed view
    /// changes, §2.3.5).
    pub view_change_timeout: SimDuration,
    /// Interval between periodic status messages (§5.2).
    pub status_interval: SimDuration,
    /// Requests larger than this are transmitted separately rather than
    /// inlined in pre-prepares (§5.1.5; the thesis uses 255 bytes).
    pub inline_threshold: usize,
    /// Replies at or below this size are always sent in full (§5.1.1; the
    /// thesis uses 32 bytes).
    pub digest_reply_threshold: usize,
    /// Maximum number of requests batched into one pre-prepare (the thesis
    /// caps digests per pre-prepare at 16).
    pub max_batch: usize,
    /// Maximum total operation bytes in one pre-prepare batch; a batch
    /// always admits at least one request regardless of its size.
    pub max_batch_bytes: usize,
    /// Sliding-window bound on concurrent protocol instances (§5.1.4).
    pub window: u64,
    /// Cap on batches the primary keeps in flight at once. `None` follows
    /// `window` (the §5.1.4 bound); a smaller value throttles the primary
    /// below the window, e.g. to bound burstiness on a real network. Values
    /// above `window` are clamped: the window is a correctness bound (log
    /// size), the pipeline depth a scheduling choice.
    pub pipeline_depth: Option<u64>,
    /// Defers outbound authenticator computation on the hot multicast path
    /// (pre-prepare/prepare/commit/checkpoint/status) to the runtime's MAC
    /// worker pool: messages leave the replica carrying a nonce-only
    /// placeholder that the runtime must fill before transmission. Only
    /// meaningful under [`AuthMode::Macs`] with recovery disabled; the
    /// deterministic simulator leaves it off.
    pub defer_multicast_auth: bool,
    /// Bound `M` on digest/view pairs per QSet entry (§3.2.5).
    pub qset_bound: usize,
    /// Proactive recovery settings.
    pub recovery: RecoveryConfig,
    /// Modulus size for signature keys (small in tests for speed; the
    /// thesis uses 1024).
    pub sig_modulus_bits: usize,
}

impl ReplicaConfig {
    /// A configuration mirroring the thesis defaults for `f = 1`.
    pub fn small(f: usize) -> Self {
        ReplicaConfig {
            group: GroupParams::for_f(f),
            num_clients: 16,
            auth: AuthMode::Macs,
            opts: Optimizations::all(),
            checkpoint_interval: 128,
            log_factor: 2,
            view_change_timeout: SimDuration::from_millis(250),
            status_interval: SimDuration::from_millis(100),
            inline_threshold: 255,
            digest_reply_threshold: 32,
            max_batch: 16,
            max_batch_bytes: 8192,
            window: 8,
            pipeline_depth: None,
            defer_multicast_auth: false,
            qset_bound: 2,
            recovery: RecoveryConfig::default(),
            sig_modulus_bits: 256,
        }
    }

    /// A configuration with a tiny checkpoint interval, exercising garbage
    /// collection and state transfer quickly in tests.
    pub fn test(f: usize) -> Self {
        ReplicaConfig {
            checkpoint_interval: 8,
            ..Self::small(f)
        }
    }

    /// Log size `L` in sequence numbers.
    pub fn log_size(&self) -> u64 {
        self.log_factor * self.checkpoint_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = ReplicaConfig::small(1);
        assert_eq!(c.group.n, 4);
        assert_eq!(c.log_size(), 256);
        assert!(c.opts.batching);
        assert_eq!(c.max_batch_bytes, 8192);
        assert!(!c.recovery.enabled);
    }

    #[test]
    fn test_config_small_checkpoints() {
        let c = ReplicaConfig::test(1);
        assert_eq!(c.checkpoint_interval, 8);
        assert_eq!(c.log_size(), 16);
    }

    #[test]
    fn optimization_presets() {
        assert!(Optimizations::all().digest_replies);
        assert!(!Optimizations::none().batching);
    }
}
