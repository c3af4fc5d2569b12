//! Systematic generalized Reed–Solomon erasure coding over GF(2^f) — the
//! coding layer of LH\*RS.
//!
//! An LH\*RS *bucket group* has `m` data buckets and `k` parity buckets. For
//! every record group, the `m` (zero-padded) data payloads `d_0 … d_{m-1}`
//! are protected by `k` parity payloads
//!
//! ```text
//! p_j = Σ_i Γ[i][j] · d_i        (j = 0 … k-1, arithmetic over GF(2^f))
//! ```
//!
//! where `Γ` is the parity part of a systematic generator matrix `[I | Γ]`.
//! `Γ` is built from a Cauchy matrix and row/column-normalised so that its
//! **first column and first row are all ones** — exactly the LH\*RS
//! construction: the first parity bucket computes a plain XOR (making
//! `k = 1` behave like the predecessor scheme LH\*g, and keeping the first
//! parity bucket cheap at every `k`), and updates originating at the first
//! data bucket of each group need no multiplication. Every square submatrix
//! of a (normalised) Cauchy matrix is nonsingular, so the code is MDS: *any*
//! `k` lost buckets — data or parity — are recoverable from the surviving
//! `m`.
//!
//! The three operations LH\*RS needs are all here:
//!
//! * [`RsCode::encode`] — full parity computation (bucket recovery,
//!   group upgrades);
//! * [`RsCode::apply_delta`] — incremental parity maintenance: commit
//!   `Δ = new ⊕ old` of one record into one parity buffer (the per-insert /
//!   per-update message handler of a parity bucket);
//! * [`RsCode::reconstruct`] — erasure decoding of up to `k` missing
//!   shards by inverting an `m×m` submatrix of `[I | Γ]`.
//!
//! ```
//! use lhrs_rs::RsCode;
//! use lhrs_gf::Gf8;
//!
//! let code: RsCode<Gf8> = RsCode::new(4, 2).unwrap();
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 * 3 + 1; 16]).collect();
//! let mut shards: Vec<Option<Vec<u8>>> =
//!     data.iter().cloned().map(Some).chain([None, None]).collect();
//! code.reconstruct(&mut shards).unwrap(); // fills in the two parity shards
//! // Lose two data buckets:
//! shards[1] = None;
//! shards[3] = None;
//! code.reconstruct(&mut shards).unwrap();
//! assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
//! assert_eq!(shards[3].as_deref(), Some(&data[3][..]));
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

mod code;
mod error;
mod matrix;

pub use code::RsCode;
pub use error::RsError;
pub use matrix::Matrix;
