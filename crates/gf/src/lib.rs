//! Galois-field arithmetic for LH\*RS Reed–Solomon coding.
//!
//! LH\*RS encodes the non-key payloads of a *record group* into parity
//! symbols using a systematic generalized Reed–Solomon code over a binary
//! extension field GF(2^f). The SIGMOD 2000 paper works with small fields
//! (GF(2^4), GF(2^8)); the later TODS refinement moves to GF(2^16) to enlarge
//! the code's support. This crate provides all three:
//!
//! * [`Gf8`] — GF(2^8), the workhorse: one symbol per byte, table-driven.
//! * [`Gf16`] — GF(2^16): one symbol per *pair* of bytes (little-endian),
//!   lazily built 512 KiB log/antilog tables.
//! * [`Gf4`] — GF(2^4): two symbols nibble-packed per byte, used for the
//!   table-size ablation the paper discusses.
//!
//! All fields share the [`GaloisField`] trait so the Reed–Solomon layer
//! (`lhrs-rs`) is generic over the field. Addition in every GF(2^f) is XOR,
//! so [`add_slice`] is field-independent; multiplication kernels
//! ([`GaloisField::mul_slice`], [`GaloisField::mul_add_slice`]) are the hot
//! path of encoding and are implemented with split nibble tables in the
//! style of ISA-L.
//!
//! # Example
//!
//! ```
//! use lhrs_gf::{GaloisField, Gf8};
//!
//! let a = 0x53u8;
//! let b = 0xCAu8;
//! let p = Gf8::mul(a, b);
//! // Multiplication is invertible for non-zero operands.
//! assert_eq!(Gf8::div(p, b), Some(a));
//! // dst ^= 0x1D * src over a whole buffer:
//! let src = [1u8, 2, 3, 4];
//! let mut dst = [0u8; 4];
//! Gf8::mul_add_slice(0x1D, &src, &mut dst);
//! assert_eq!(dst[0], Gf8::mul(0x1D, 1));
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

mod field;
mod gf16;
mod gf4;
mod gf8;

pub use field::{add_slice, GaloisField};
pub use gf16::Gf16;
pub use gf4::Gf4;
pub use gf8::Gf8;

#[cfg(test)]
mod axiom_tests {
    //! Exhaustive (small field) and sampled field-axiom checks shared by all
    //! three fields. The per-field modules hold representation-specific
    //! tests; everything generic lives here.

    use super::*;

    fn check_axioms_sampled<F: GaloisField>(elems: &[F::Elem]) {
        let zero = F::zero();
        let one = F::one();
        for &a in elems {
            // Additive identity and self-inverse (characteristic 2).
            assert_eq!(F::add(a, zero), a);
            assert_eq!(F::add(a, a), zero);
            // Multiplicative identity and annihilator.
            assert_eq!(F::mul(a, one), a);
            assert_eq!(F::mul(a, zero), zero);
            // Inverses.
            if a != zero {
                let inv = F::inv(a).expect("nonzero element has an inverse");
                assert_eq!(F::mul(a, inv), one);
            } else {
                assert_eq!(F::inv(a), None);
            }
            for &b in elems {
                // Commutativity.
                assert_eq!(F::mul(a, b), F::mul(b, a));
                assert_eq!(F::add(a, b), F::add(b, a));
                for &c in elems {
                    // Associativity and distributivity.
                    assert_eq!(F::mul(F::mul(a, b), c), F::mul(a, F::mul(b, c)));
                    assert_eq!(F::mul(a, F::add(b, c)), F::add(F::mul(a, b), F::mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn gf4_axioms_exhaustive() {
        let elems: Vec<u8> = (0..16).collect();
        check_axioms_sampled::<Gf4>(&elems);
    }

    #[test]
    fn gf8_axioms_sampled() {
        // Exhaustive triples would be 2^24; sample a structured subset plus
        // pseudo-random elements.
        let mut elems: Vec<u8> = vec![0, 1, 2, 3, 0x1D, 0x80, 0xFF, 0x53, 0xCA];
        let mut x = 7u8;
        for _ in 0..8 {
            x = x.wrapping_mul(31).wrapping_add(17);
            elems.push(x);
        }
        check_axioms_sampled::<Gf8>(&elems);
    }

    #[test]
    fn gf16_axioms_sampled() {
        let mut elems: Vec<u16> = vec![0, 1, 2, 3, 0xFFFF, 0x8000, 0x1234];
        let mut x = 7u16;
        for _ in 0..8 {
            x = x.wrapping_mul(31).wrapping_add(1017);
            elems.push(x);
        }
        check_axioms_sampled::<Gf16>(&elems);
    }

    #[test]
    fn gf8_mul_matches_carryless_reference() {
        // Reference: schoolbook carry-less multiply then reduce mod 0x11D.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= 0x1D;
                }
                b >>= 1;
            }
            p
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(Gf8::mul(a, b), slow_mul(a, b), "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn exp_log_roundtrip_all_fields() {
        for i in 0..15 {
            let e = Gf4::exp(i);
            assert_eq!(Gf4::log(e), Some(i));
        }
        for i in 0..255 {
            let e = Gf8::exp(i);
            assert_eq!(Gf8::log(e), Some(i));
        }
        for i in (0..65535).step_by(257) {
            let e = Gf16::exp(i);
            assert_eq!(Gf16::log(e), Some(i));
        }
        assert_eq!(Gf8::log(0), None);
        assert_eq!(Gf16::log(0), None);
        assert_eq!(Gf4::log(0), None);
    }

    #[test]
    fn pow_is_repeated_multiplication() {
        for f in 0..8u32 {
            let a = Gf8::exp(f * 13 + 1);
            let mut acc = Gf8::one();
            for e in 0..10u32 {
                assert_eq!(Gf8::pow(a, e), acc);
                acc = Gf8::mul(acc, a);
            }
        }
    }
}
