//! Deterministic discrete-event simulator for the BFT evaluation: cluster
//! harness, Byzantine fault injection, metrics, and prebuilt experiment
//! scenarios.

pub mod behavior;
pub mod chaos;
pub mod harness;
pub mod metrics;
pub mod scenarios;

pub use behavior::Behavior;
pub use chaos::{run_plan, shrink, ChaosAction, ChaosEvent, ChaosPlan, ChaosReport};
pub use harness::{
    counter_cluster, mem_cluster, Cluster, ClusterConfig, Driver, EngineProfile, Fault, OpGen,
};
pub use metrics::{LatencySeries, Metrics};
