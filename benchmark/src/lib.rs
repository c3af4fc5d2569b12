//! The repository's benchmark: four workloads driven over TCP against real
//! `lhrs-netd` processes by one client, every result checked against an
//! oracle, with end-to-end metrics from an untraced run and a per-layer
//! budget measured from outside the program. See `benchmark/README.md`.

pub mod closedloop;
pub mod cluster;
pub mod compare;
pub mod inproc;
pub mod json;
pub mod metrics;
pub mod opstream;
pub mod procfs;
pub mod report;
pub mod run;
pub mod scrape;
pub mod signal;
pub mod stats;
pub mod workload;
