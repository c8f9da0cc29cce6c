//! The real-network runtime: PBFT over TCP sockets.
//!
//! Castro & Liskov's headline claim is that BFT replication is
//! *practical* — a real library, real clients, real kernels, 3% slower
//! than unreplicated NFS. Everything below `bft-runtime` proves the
//! protocol inside a deterministic virtual-time simulator; this crate
//! takes the *same* state machines ([`bft_core::Replica`] and
//! [`bft_core::ClientProxy`], unchanged, driven through
//! [`bft_core::ReplicaDriver`]) and runs them over real sockets and a
//! real clock:
//!
//! * [`transport`] — a readiness-driven TCP endpoint per node: the
//!   listener, every connection, and a wake pipe sit in one `poll(2)`
//!   set owned by the thread that steps the state machine. Frames are
//!   appended to a bounded byte backlog per connection and written with
//!   one `write` per connection per loop iteration; a frame that does
//!   not fit, or has no route, is dropped and counted — exactly the loss
//!   semantics the protocol already tolerates. Persistent dialed
//!   connections reconnect with exponential backoff through one dialer
//!   helper thread, and the length-prefixed, CRC-checksummed framing
//!   comes from [`bft_types::framing`].
//! * [`clock`] — the [`bft_net::EventWheel`] timer wheel re-keyed from
//!   virtual microseconds to monotonic microseconds since process start;
//!   retransmission, status, and view-change timers run off the real
//!   clock with the same keyed single-shot semantics the simulator uses,
//!   and the next deadline bounds the endpoint's poll timeout.
//! * [`node`] — the replica event loop (`pbft-node`): one protocol
//!   thread owns the replica and its endpoint — poll, step every ready
//!   payload, flush once. A node runs at most `2 + workers` threads: the
//!   loop, the dialer, and the optional [`pool::MacPool`] workers, whose
//!   results wake the same loop.
//! * [`client`] — the client event loop: any number of logical clients
//!   multiplexed over one endpoint on one thread, fed by an
//!   [`client::OpSource`] (open- or closed-loop counter workload, the
//!   Andrew script, the benchmark's sources). `pbft-client` is built on
//!   it.
//! * [`config`] — the cluster topology file shared by both binaries.
//! * [`loopback`] — [`loopback::LoopbackCluster`]: an f=1 cluster on
//!   127.0.0.1 ephemeral ports inside one process, used by the
//!   integration tests, the live chaos runner and the benchmark.
//! * [`inject`] — [`inject::FaultPlane`]: chaos-mode fault injection on
//!   the endpoint's send path (partitions, isolation, per-link
//!   loss/jitter/duplication), consulted once per frame; delayed and
//!   duplicated frames wait in the endpoint's deadline heap. The
//!   simulator's seeded chaos schedules drive real sockets
//!   (`chaos --realnet`).
//!
//! Authentication note: the transport's identity greeting is not
//! authenticated (see [`transport`] for the trust-model caveat), and all
//! nodes derive session-key material deterministically from the
//! topology's `key_seed` ([`bft_core::ClusterKeys::generate`]). That
//! makes a config file sufficient to boot a cluster for development and
//! testing; a hardened deployment would provision per-node keys out of
//! band.

pub mod bfs_driver;
pub mod client;
pub mod clock;
pub mod config;
pub mod inject;
pub mod loopback;
pub mod node;
pub mod pool;
pub mod transport;

pub use bfs_driver::{
    run_andrew_mux, run_andrew_unreplicated_tcp, AndrewRun, PhaseReport, UnreplicatedServer,
};
pub use client::{
    run_client, run_client_with, run_mux_sources, run_workers, ClientHooks, ClientReport, LoadMode,
    NextOp, OpSource, Workload,
};
pub use clock::RtTimers;
pub use config::{ConfigError, ConfigErrorKind, ServiceKind, StorageKind, Topology};
pub use inject::{FaultPlane, LinkTally, SendVerdict, StormSignal};
pub use loopback::{ConvergeFailure, ConvergeTimeout, LoopbackCluster};
pub use node::{
    spawn_counter_replica, spawn_service_replica, spawn_service_replica_faulted, NodeHandle,
    Snapshot,
};
pub use pool::MacPool;
pub use transport::{Endpoint, Transport, TransportStats, Waker};
