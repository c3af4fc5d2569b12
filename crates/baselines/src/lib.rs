//! Baseline SDDS schemes the LH\*RS evaluation compares against, all built
//! on the same simulator, addressing core, and cost accounting as
//! `lhrs-core` so comparisons are apples to apples:
//!
//! * [`ReplicatedLh::plain`] — **LH\***: the base scheme, no redundancy
//!   (0-availability). Insert costs 1 message, key search 2; any bucket
//!   loss loses data.
//! * [`ReplicatedLh::mirror`] — **LH\*m**: every bucket has a mirror on a
//!   separate server. Insert costs 2 messages; storage overhead is 100 %;
//!   1-availability per pair with trivial (copy) recovery.
//! * [`ReplicatedLh::stripe`] — **LH\*s**: each record is striped into `m`
//!   fragments plus one XOR parity fragment on `m + 1` servers per logical
//!   bucket. Storage overhead ≈ 1/m like LH\*RS at k = 1, but a key search
//!   must gather `m` fragments (2m messages) — the search-cost weakness
//!   LH\*RS record grouping exists to avoid.
//! * **LH\*g** comes in two flavours: the *bucket-bound* grouping that
//!   LH\*RS generalises is exactly `lhrs-core` with `k = 1` (the
//!   generator's first parity column is all ones; wrap it with
//!   [`LhrsScheme`]), while [`GroupedLh`] implements the original
//!   *insertion-bound* grouping with a separate parity LH\* file — whose
//!   splits are parity-free but whose recovery must chase scattered group
//!   members (the trade-off LH\*RS flipped).
//!
//! The [`Scheme`] trait gives the benchmark harness a uniform surface:
//! insert, lookup, message counters, storage accounting, and analytic
//! availability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
pub mod grouped;
mod replicated;
mod scheme;

pub use grouped::GroupedLh;
pub use replicated::ReplicatedLh;
pub use scheme::{LhrsScheme, Scheme};
