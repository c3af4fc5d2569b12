//! Workspace root crate for the LH\*RS reproduction.
//!
//! This crate hosts the cross-crate integration tests in `tests/` and the
//! runnable examples in `examples/`, re-exports every member crate, and
//! offers a curated [`prelude`] so applications need a single import.
//!
//! ```
//! use lhrs_repro::prelude::*;
//!
//! let cfg = Config {
//!     bucket_capacity: 16,
//!     ..Config::default()
//! };
//! let mut file = LhrsFile::new(cfg).unwrap();
//! file.insert(7, b"payload".to_vec()).unwrap();
//! assert_eq!(file.lookup(7).unwrap().unwrap(), b"payload");
//! ```

pub use lhrs_baselines as baselines;
pub use lhrs_core as lhrs;
pub use lhrs_gf as gf;
pub use lhrs_lh as lh;
pub use lhrs_net as net;
pub use lhrs_obs as obs;
pub use lhrs_rs as rs;
pub use lhrs_sim as sim;

/// The curated one-import surface: configuration, the unified client API,
/// the simulated driver, the networked client, and observability.
///
/// # Writing transport-agnostic code
///
/// [`KvClient`](lhrs_core::KvClient) is implemented by both
/// [`LhrsFile`](lhrs_core::LhrsFile) (simulator) and
/// [`NetClient`](crate::net::client::NetClient) (real TCP cluster), so a
/// load generator written against the trait runs over either:
///
/// ```
/// use lhrs_repro::prelude::*;
///
/// fn load<C: KvClient>(client: &mut C, n: u64) -> u64 {
///     let mut ok = 0;
///     for key in 0..n {
///         if client.insert(key, format!("v{key}").into_bytes()).is_ok() {
///             ok += 1;
///         }
///     }
///     ok
/// }
///
/// let mut file = LhrsFile::new(Config::default()).unwrap();
/// assert_eq!(load(&mut file, 10), 10);
/// ```
///
/// # Observability
///
/// Every [`LhrsFile`](lhrs_core::LhrsFile) records counters, latency histograms, and a
/// structured trace under a logical (simulated-time) clock:
///
/// ```
/// use lhrs_repro::prelude::*;
///
/// let mut file = LhrsFile::new(Config::default()).unwrap();
/// file.insert(1, b"x".to_vec()).unwrap();
/// let snap = file.metrics().snapshot();
/// assert!(snap.counter("deltas_emitted", "") >= 1);
/// assert!(file.metrics().render_prometheus().contains("lhrs_msgs_sent_total"));
/// ```
pub mod prelude {
    pub use lhrs_core::{
        Config, CoordEvent, Error, FilterSpec, Key, KvClient, LhrsFile, NodeId, OpOutcome,
        OpResult, ScanTermination, UpgradeMode,
    };
    pub use lhrs_net::client::NetClient;
    pub use lhrs_net::cluster::ClusterSpec;
    pub use lhrs_obs::{Clock, Metrics, RecoveryReport, TraceLog};
}
