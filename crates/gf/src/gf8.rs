//! GF(2^8) with the AES-adjacent primitive polynomial
//! x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and generator α = 2 — the classical
//! Reed–Solomon field and the default for LH\*RS parity buckets.
//!
//! All tables are built at compile time by `const fn`s, so there is no
//! runtime initialisation and no locking on the hot path.

use crate::field::GaloisField;

/// Reduction polynomial (without the x^8 term): x^4+x^3+x^2+1.
const POLY: u16 = 0x11D;

/// Antilog table doubled to 512 entries so `exp[log a + log b]` needs no
/// modular reduction (`log a + log b ≤ 508`).
const EXP: [u8; 512] = build_exp();
/// Log table; entry 0 is a sentinel (zero has no logarithm) guarded by the
/// callers.
const LOG: [u16; 256] = build_log();

#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "const-evaluated: a bad index, overflow or narrowing fails the build"
)]
const fn build_exp() -> [u8; 512] {
    let mut t = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        t[i] = x as u8;
        t[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Positions 510, 511 are never indexed (max index 508) but fill them for
    // definedness.
    t[510] = t[0];
    t[511] = t[1];
    t
}

#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "const-evaluated: a bad index, overflow or narrowing fails the build"
)]
const fn build_log() -> [u16; 256] {
    let mut t = [0u16; 256];
    let mut i = 0;
    while i < 255 {
        t[EXP[i] as usize] = i as u16;
        i += 1;
    }
    t
}

/// Marker type implementing [`GaloisField`] for GF(2^8).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Gf8;

/// Antilog lookup that degrades to 0 (never a valid α^i) instead of
/// aborting the calling actor if an index is somehow out of range.
#[inline]
fn exp_at(i: usize) -> u8 {
    EXP.get(i).copied().unwrap_or(0)
}

/// Log lookup as a ready-to-index `usize`; the sentinel 0 comes back for
/// the (caller-excluded) zero symbol.
#[inline]
fn log_of(a: u8) -> usize {
    usize::from(LOG.get(usize::from(a)).copied().unwrap_or(0))
}

impl Gf8 {
    /// Build the two 16-entry split tables for multiplier `c`: products of
    /// `c` with the low nibble values and with the high nibble values. One
    /// byte multiply then costs two lookups and one XOR.
    #[inline]
    fn split_tables(c: u8) -> ([u8; 16], [u8; 16]) {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for (x, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            let xv = u8::try_from(x).unwrap_or(0);
            *l = <Gf8 as GaloisField>::mul(c, xv);
            *h = <Gf8 as GaloisField>::mul(c, xv.wrapping_shl(4));
        }
        (lo, hi)
    }

    /// One byte multiply via prebuilt split tables (both tables have 16
    /// entries, and a nibble is always < 16).
    #[inline]
    fn split_mul(lo: &[u8; 16], hi: &[u8; 16], s: u8) -> u8 {
        lo.get(usize::from(s & 0x0F)).copied().unwrap_or(0)
            ^ hi.get(usize::from(s >> 4)).copied().unwrap_or(0)
    }
}

impl GaloisField for Gf8 {
    type Elem = u8;
    const BITS: u32 = 8;
    const ORDER: u32 = 256;
    const SYMBOL_BYTES: usize = 1;
    const NAME: &'static str = "GF(2^8)";

    #[inline]
    fn zero() -> u8 {
        0
    }

    #[inline]
    fn one() -> u8 {
        1
    }

    #[inline]
    fn add(a: u8, b: u8) -> u8 {
        a ^ b
    }

    #[inline]
    fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            // log(a) + log(b) <= 508, inside the doubled antilog table.
            exp_at(log_of(a).wrapping_add(log_of(b)))
        }
    }

    #[inline]
    fn inv(a: u8) -> Option<u8> {
        if a == 0 {
            None
        } else {
            // log(a) <= 254, so the subtraction cannot underflow.
            Some(exp_at(255usize.wrapping_sub(log_of(a))))
        }
    }

    #[inline]
    fn exp(i: u32) -> u8 {
        exp_at(usize::try_from(i % 255).unwrap_or(0))
    }

    #[inline]
    fn log(a: u8) -> Option<u32> {
        if a == 0 {
            None
        } else {
            Some(u32::try_from(log_of(a)).unwrap_or(0))
        }
    }

    #[inline]
    fn from_usize(x: usize) -> u8 {
        // Truncation to the field width is this method's documented contract.
        u8::try_from(x & 0xFF).unwrap_or(0)
    }

    #[inline]
    fn to_usize(a: u8) -> usize {
        usize::from(a)
    }

    fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        let n = src.len().min(dst.len());
        let (Some(src), Some(dst)) = (src.get(..n), dst.get_mut(..n)) else {
            return;
        };
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => {
                let (lo, hi) = Self::split_tables(c);
                for (s, d) in src.iter().zip(dst.iter_mut()) {
                    *d = Self::split_mul(&lo, &hi, *s);
                }
            }
        }
    }

    fn mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        let n = src.len().min(dst.len());
        let (Some(src), Some(dst)) = (src.get(..n), dst.get_mut(..n)) else {
            return;
        };
        match c {
            0 => {}
            1 => crate::field::add_slice(src, dst),
            _ => {
                let (lo, hi) = Self::split_tables(c);
                for (s, d) in src.iter().zip(dst.iter_mut()) {
                    *d ^= Self::split_mul(&lo, &hi, *s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_has_full_order() {
        // α = 2 must generate all 255 nonzero elements.
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(!seen[x as usize], "generator order < 255");
            seen[x as usize] = true;
            x = Gf8::mul(x, 2);
        }
        assert_eq!(x, 1, "α^255 must be 1");
    }

    #[test]
    fn inv_matches_exhaustive_search() {
        for a in 1..=255u8 {
            let inv = Gf8::inv(a).unwrap();
            assert_eq!(Gf8::mul(a, inv), 1, "a={a}");
        }
    }

    #[test]
    fn div_roundtrip() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                let q = Gf8::div(a, b).unwrap();
                assert_eq!(Gf8::mul(q, b), a);
            }
        }
        assert_eq!(Gf8::div(7, 0), None);
    }

    #[test]
    fn mul_slice_matches_scalar_loop() {
        let src: Vec<u8> = (0..=255u8).chain(0..=100).collect();
        for c in [0u8, 1, 2, 0x1D, 0xFF, 0x53] {
            let mut dst = vec![0xAAu8; src.len()];
            Gf8::mul_slice(c, &src, &mut dst);
            for (s, d) in src.iter().zip(&dst) {
                assert_eq!(*d, Gf8::mul(c, *s));
            }
        }
    }

    #[test]
    fn mul_add_slice_matches_scalar_loop() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 0x1D, 0xFF] {
            let base: Vec<u8> = (0..=255u8).map(|x| x.wrapping_mul(7)).collect();
            let mut dst = base.clone();
            Gf8::mul_add_slice(c, &src, &mut dst);
            for i in 0..src.len() {
                assert_eq!(dst[i], base[i] ^ Gf8::mul(c, src[i]));
            }
        }
    }

    #[test]
    fn mul_add_slice_identity_multiplier_is_xor() {
        let src = [0x0Fu8; 32];
        let mut dst = [0xF0u8; 32];
        Gf8::mul_add_slice(1, &src, &mut dst);
        assert!(dst.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn mul_slice_length_mismatch_degrades_to_common_prefix() {
        let mut dst = [0xAAu8; 4];
        Gf8::mul_slice(3, &[1, 2, 3], &mut dst);
        assert_eq!(
            dst,
            [Gf8::mul(3, 1), Gf8::mul(3, 2), Gf8::mul(3, 3), 0xAA],
            "prefix multiplied, surplus dst untouched"
        );

        let mut acc = [1u8, 1];
        Gf8::mul_add_slice(2, &[5, 6, 7, 8], &mut acc);
        assert_eq!(acc, [1 ^ Gf8::mul(2, 5), 1 ^ Gf8::mul(2, 6)]);
    }
}
