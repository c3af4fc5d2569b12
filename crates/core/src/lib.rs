//! **LH\*RS** — a high-availability Scalable Distributed Data Structure
//! using Reed–Solomon codes (Litwin & Schwarz, SIGMOD 2000): the paper's
//! primary contribution, implemented end to end over the deterministic
//! multicomputer simulator of [`lhrs_sim`].
//!
//! # The scheme in one paragraph
//!
//! An LH\*RS file is an LH\* file (linear hashing distributed over one
//! bucket per server, clients with stale-tolerant images, splits driven by a
//! coordinator) whose data buckets are partitioned into **bucket groups** of
//! `m` consecutive buckets. Each group carries `k` **parity buckets** on
//! separate servers. Within a group, the records holding *rank* `r` in each
//! member bucket form a **record group**; its `m` (zero-padded) payloads are
//! encoded by a systematic Reed–Solomon code into `k` parity records stored
//! one per parity bucket. Every insert, update, delete, or split-move sends
//! a Δ (`new ⊕ old`) to the group's parity buckets, which fold it in with
//! one Galois-field multiply-accumulate. Any `k` unavailable buckets per
//! group — data or parity, in any mix — are rebuilt from the surviving `m`
//! by erasure decoding; a single record can be served in *degraded mode*
//! while the rebuild runs. Because parity cost is `k/m` storage and `k`
//! messages per insert, `k` can grow with the file (*scalable
//! availability*) to hold file-level reliability constant as `M → ∞`.
//!
//! # Quick start
//!
//! ```
//! use lhrs_core::{Config, LhrsFile};
//!
//! let mut file = LhrsFile::new(Config::default()).unwrap();
//! for key in 0..500u64 {
//!     file.insert(key, format!("value-{key}").into_bytes()).unwrap();
//! }
//! assert_eq!(file.lookup(42).unwrap().unwrap(), b"value-42");
//!
//! // Kill a data bucket and read through the failure (degraded mode +
//! // automatic rebuild onto a hot spare):
//! let victim = file.address_of(42);
//! file.crash_data_bucket(victim);
//! assert_eq!(file.lookup(42).unwrap().unwrap(), b"value-42");
//! ```
//!
//! # Module map
//!
//! | module | role |
//! |--------|------|
//! | [`mod@file`] | [`LhrsFile`]: the synchronous driver API around the simulation |
//! | `coordinator` | split management, availability scaling, failure detection, recovery orchestration |
//! | `data_bucket` | primary-record servers: storage, A2 forwarding, Δ-emission, splitting |
//! | `parity_bucket` | parity-record servers: Δ-commits, shard transfer for decode |
//! | `client` | client actor: image (A1/A3), retries, timeout-based failure reporting, scans |
//! | [`availability`] | closed-form file availability `P(M; m, k, p)` for the F2 curves |
//! | `record` | payload cells: `[len | bytes | zero-pad]` fixed-size coding cells |
//! | `msg` | the wire protocol and per-kind accounting labels |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Declares modules under the panic audit (DESIGN §8.2): outside
/// `cfg(test)`, no `unwrap`/`expect`, no `panic!`-family macro, no `[..]`
/// indexing and no narrowing `as`. A justified exception is an
/// `#[expect(lint, reason = "…")]` at the site. `lhrs-net` declares its
/// actor modules with it too.
#[doc(hidden)]
#[macro_export]
macro_rules! audited {
    ($($(#[$extra:meta])* $vis:vis mod $name:ident;)+) => {$(
        $(#[$extra])*
        #[cfg_attr(not(test), deny(
            clippy::unwrap_used,
            clippy::expect_used,
            clippy::panic,
            clippy::unreachable,
            clippy::todo,
            clippy::unimplemented,
            clippy::indexing_slicing,
            clippy::cast_possible_truncation,
        ))]
        $vis mod $name;
    )+};
}

audited! {
    pub mod client;
    // The helpers every frame or exchange passes through also spell out
    // their overflow semantics.
    #[cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
    pub(crate) mod convert;
    pub mod coordinator;
    pub mod data_bucket;
    pub mod parity_bucket;
    #[cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
    pub mod registry;
    pub mod storage;
    #[cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
    pub mod wire;
}
pub mod api;
pub mod availability;
mod config;
mod error;
pub mod file;
pub mod msg;
pub mod node;
pub mod record;

pub use api::{KvClient, OpOutcome};
pub use config::{Config, FsyncPolicy, ScanTermination, UpgradeMode, MAX_RECORD_LEN};
pub use coordinator::CoordEvent;
pub use error::Error;
pub use file::{LhrsFile, RecoveryReport, StorageReport};
pub use lhrs_sim::{FaultPlan, NodeId, Partition};
pub use msg::{FilterSpec, OpResult};
pub use record::GroupKey;

/// Record keys are unsigned 64-bit integers (pre-scramble clustered keys
/// with [`lhrs_lh::scramble`]).
pub type Key = u64;

/// Per-bucket record rank: the `r` of the record-group key `(g, r)`.
pub type Rank = u64;
