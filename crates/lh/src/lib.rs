//! Linear-hashing core for the LH\* family of Scalable Distributed Data
//! Structures.
//!
//! This crate is pure address arithmetic — no I/O, no simulation — shared by
//! LH\*RS and every baseline scheme:
//!
//! * [`FileState`] — the coordinator's view `(n, i)`: split pointer and file
//!   level, the split sequence of linear hashing, and the authoritative
//!   addressing function **A1**;
//! * [`ClientImage`] — a client's possibly stale image `(n', i')` with the
//!   image-adjustment algorithm **A3** driven by IAMs;
//! * [`a2_route`] — the server-side forwarding test **A2**, which delivers
//!   any request to the correct bucket in **at most two hops** no matter how
//!   stale the client image is (property-tested in `tests/`);
//! * [`SplitPlan`] — what moves where when bucket `n` splits.
//!
//! # Example
//!
//! ```
//! use lhrs_lh::{ClientImage, FileState, a2_route, A2Outcome};
//!
//! let mut state = FileState::new(1); // N = 1 initial bucket
//! for _ in 0..5 { state.split(); }   // file now has 6 buckets
//! let mut image = ClientImage::new(1); // fresh client: n' = 0, i' = 0
//!
//! let key = 5u64;
//! let guess = image.address(key);          // client sends to its guess
//! let correct = state.address(key);        // where the record really is
//! // Server-side A2 forwarding reaches `correct` in ≤ 2 hops:
//! let mut at = guess;
//! let mut hops = 0;
//! while at != correct {
//!     match a2_route(at, state.level_of(at), key, 1) {
//!         A2Outcome::Accept => break,
//!         A2Outcome::Forward(next) => { at = next; hops += 1; }
//!     }
//! }
//! assert!(hops <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic audit, helper scope: no aborts and no unchecked arithmetic
// outside tests (DESIGN §8.2).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects,
    )
)]

mod image;
mod route;
mod split;
mod state;

pub use image::ClientImage;
pub use route::{a2_route, A2Outcome};
pub use split::SplitPlan;
pub use state::FileState;

/// The LH hash family: `h_l(c) = c mod (2^l · n0)`.
///
/// `n0` is the initial bucket count N of the file (usually 1). The LH\*
/// papers apply `h_l` directly to the key; keys that are not uniformly
/// distributed should be pre-scrambled (see [`scramble`]).
#[inline]
pub fn h(l: u8, n0: u64, key: u64) -> u64 {
    // Total for any (l, n0): the span saturates instead of wrapping, and a
    // degenerate zero span (n0 == 0) addresses bucket 0, as a span of 1.
    let span = if l >= 64 {
        u64::MAX
    } else {
        // Shift amount < 64 here, so wrapping_shl is exact.
        1u64.wrapping_shl(u32::from(l)).saturating_mul(n0)
    };
    key.checked_rem(span).unwrap_or(0)
}

/// A fast 64-bit mixing function (SplitMix64 finaliser) for clients whose
/// keys are clustered; LH behaves best on uniform keys.
#[inline]
pub fn scramble(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_family_is_nested() {
        // h_{l+1}(c) is either h_l(c) or h_l(c) + 2^l·n0 — the defining
        // property that makes linear-hash splits move only "upper half"
        // keys.
        for n0 in [1u64, 2, 3] {
            for l in 0..8u8 {
                for c in 0..2000u64 {
                    let a = h(l, n0, c);
                    let b = h(l + 1, n0, c);
                    assert!(b == a || b == a + (1u64 << l) * n0, "c={c} l={l} n0={n0}");
                }
            }
        }
    }

    #[test]
    fn scramble_is_injective_on_sample() {
        use std::collections::HashSet;
        let set: HashSet<u64> = (0..10_000u64).map(scramble).collect();
        assert_eq!(set.len(), 10_000);
    }
}
