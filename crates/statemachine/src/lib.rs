//! Deterministic state-machine services for BFT replication (§2.1, §6.2).

pub mod service;
pub mod services;

pub use service::{Service, StateMemory, DEFAULT_PAGE_SIZE};
pub use services::{ClockService, CounterService, KvService, MemService, NullService};
