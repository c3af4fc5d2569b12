//! GF(2^4) with primitive polynomial x^4 + x + 1 (0x13) and generator α = 2.
//!
//! The SIGMOD 2000 paper discusses GF(2^4) as the smallest practical field:
//! its multiplication table fits in 256 bytes, at the price of supporting at
//! most 2^4 = 16 code symbols (m + k ≤ 17 for generalized RS). Buffers pack
//! two symbols per byte (low nibble first); scalar multiplication acts
//! nibble-wise, so one 256-entry lookup table per multiplier processes a
//! whole byte (both symbols) at once.

use crate::field::GaloisField;

const POLY: u8 = 0x13;

const EXP: [u8; 30] = build_exp();
const LOG: [u8; 16] = build_log();

#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    reason = "const-evaluated: a bad index, overflow or narrowing fails the build"
)]
const fn build_exp() -> [u8; 30] {
    let mut t = [0u8; 30];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 15 {
        t[i] = x;
        t[i + 15] = x;
        x <<= 1;
        if x & 0x10 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    t
}

#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "const-evaluated: a bad index, overflow or narrowing fails the build"
)]
const fn build_log() -> [u8; 16] {
    let mut t = [0u8; 16];
    let mut i = 0;
    while i < 15 {
        t[EXP[i] as usize] = i as u8;
        i += 1;
    }
    t
}

/// For each multiplier c in 0..16, a 256-entry table mapping a packed byte
/// (two nibbles) to the packed byte of both nibble products. 4 KiB total,
/// const-built.
const PAIR_MUL: [[u8; 256]; 16] = build_pair_mul();

#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    reason = "const-evaluated: a bad index, overflow or narrowing fails the build"
)]
const fn scalar_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[(LOG[a as usize] + LOG[b as usize]) as usize]
    }
}

#[expect(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "const-evaluated: a bad index, overflow or narrowing fails the build"
)]
const fn build_pair_mul() -> [[u8; 256]; 16] {
    let mut t = [[0u8; 256]; 16];
    let mut c = 0;
    while c < 16 {
        let mut x = 0usize;
        while x < 256 {
            let lo = scalar_mul(c as u8, (x & 0x0F) as u8);
            let hi = scalar_mul(c as u8, (x >> 4) as u8);
            t[c][x] = lo | (hi << 4);
            x += 1;
        }
        c += 1;
    }
    t
}

/// Zero table for the (unreachable) out-of-range multiplier fallback.
static ZERO_PAIR: [u8; 256] = [0; 256];

/// Antilog lookup that degrades to 0 (never a valid α^i) instead of
/// aborting the calling actor if an index is somehow out of range.
#[inline]
fn exp_at(i: usize) -> u8 {
    EXP.get(i).copied().unwrap_or(0)
}

/// Log lookup as a ready-to-index `usize`; the multiplier is masked to the
/// low nibble so the lookup is total.
#[inline]
fn log_of(a: u8) -> usize {
    usize::from(LOG.get(usize::from(a & 0x0F)).copied().unwrap_or(0))
}

/// The 256-entry packed-pair table for multiplier `c` (masked to a nibble).
#[inline]
fn pair_table(c: u8) -> &'static [u8; 256] {
    PAIR_MUL.get(usize::from(c & 0x0F)).unwrap_or(&ZERO_PAIR)
}

/// One packed-byte multiply; a `u8` always indexes a 256-entry table.
#[inline]
fn pair_mul_at(t: &[u8; 256], s: u8) -> u8 {
    t.get(usize::from(s)).copied().unwrap_or(0)
}

/// Marker type implementing [`GaloisField`] for GF(2^4).
///
/// Elements are stored in the low nibble of a `u8`; the high nibble must be
/// zero for scalar operations (buffer kernels handle packed pairs).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Gf4;

impl GaloisField for Gf4 {
    type Elem = u8;
    const BITS: u32 = 4;
    const ORDER: u32 = 16;
    const SYMBOL_BYTES: usize = 1;
    const NAME: &'static str = "GF(2^4)";

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
        debug_assert!(a < 16 && b < 16);
        a ^ b
    }

    #[inline]
    fn mul(a: u8, b: u8) -> u8 {
        debug_assert!(a < 16 && b < 16);
        if a == 0 || b == 0 {
            0
        } else {
            // log(a) + log(b) <= 28, inside the doubled antilog table.
            exp_at(log_of(a).wrapping_add(log_of(b)))
        }
    }

    #[inline]
    fn inv(a: u8) -> Option<u8> {
        debug_assert!(a < 16);
        if a == 0 {
            None
        } else {
            // log(a) <= 14, so the subtraction cannot underflow.
            Some(exp_at(15usize.wrapping_sub(log_of(a))))
        }
    }

    #[inline]
    fn exp(i: u32) -> u8 {
        exp_at(usize::try_from(i % 15).unwrap_or(0))
    }

    #[inline]
    fn log(a: u8) -> Option<u32> {
        debug_assert!(a < 16);
        if a == 0 {
            None
        } else {
            Some(u32::try_from(log_of(a)).unwrap_or(0))
        }
    }

    #[inline]
    fn from_usize(x: usize) -> u8 {
        // Truncation to the field width is this method's documented contract.
        u8::try_from(x & 0x0F).unwrap_or(0)
    }

    #[inline]
    fn to_usize(a: u8) -> usize {
        usize::from(a)
    }

    fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        debug_assert!(c < 16);
        let n = src.len().min(dst.len());
        let (Some(src), Some(dst)) = (src.get(..n), dst.get_mut(..n)) else {
            return;
        };
        let t = pair_table(c);
        for (s, d) in src.iter().zip(dst.iter_mut()) {
            *d = pair_mul_at(t, *s);
        }
    }

    fn mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        debug_assert!(c < 16);
        let n = src.len().min(dst.len());
        let (Some(src), Some(dst)) = (src.get(..n), dst.get_mut(..n)) else {
            return;
        };
        match c {
            0 => {}
            1 => crate::field::add_slice(src, dst),
            _ => {
                let t = pair_table(c);
                for (s, d) in src.iter().zip(dst.iter_mut()) {
                    *d ^= pair_mul_at(t, *s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_table_exhaustive_against_carryless() {
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let hi = a & 0x08 != 0;
                a <<= 1;
                if hi {
                    a ^= 0x03;
                }
                a &= 0x0F;
                b >>= 1;
            }
            p
        }
        for a in 0..16u8 {
            for b in 0..16u8 {
                assert_eq!(Gf4::mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn pair_mul_handles_both_nibbles() {
        let src = [0x53u8, 0xFF, 0x01, 0x10];
        let mut dst = [0u8; 4];
        Gf4::mul_slice(0x7, &src, &mut dst);
        for (s, d) in src.iter().zip(&dst) {
            assert_eq!(d & 0x0F, Gf4::mul(7, s & 0x0F));
            assert_eq!(d >> 4, Gf4::mul(7, s >> 4));
        }
    }

    #[test]
    fn all_nonzero_elements_invertible() {
        for a in 1..16u8 {
            assert_eq!(Gf4::mul(a, Gf4::inv(a).unwrap()), 1);
        }
        assert_eq!(Gf4::inv(0), None);
    }

    #[test]
    fn mul_add_slice_accumulates() {
        let src = [0x21u8; 8];
        let mut dst = [0x12u8; 8];
        let mut expect = [0u8; 8];
        for i in 0..8 {
            let lo = Gf4::mul(3, src[i] & 0x0F) ^ (dst[i] & 0x0F);
            let hi = Gf4::mul(3, src[i] >> 4) ^ (dst[i] >> 4);
            expect[i] = lo | (hi << 4);
        }
        Gf4::mul_add_slice(3, &src, &mut dst);
        assert_eq!(dst, expect);
    }
}
