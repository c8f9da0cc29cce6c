//! The chaos campaign's library half: [`realnet_chaos`] replays the
//! simulator's seeded chaos schedules against a live loopback cluster.
//! The `chaos` binary drives both the simulated and the live campaign.

pub mod realnet_chaos;
