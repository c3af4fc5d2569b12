//! The [`GaloisField`] trait: the algebraic interface the Reed–Solomon layer
//! programs against, plus the field-independent [`add_slice`] kernel.

use std::fmt::Debug;
use std::hash::Hash;

/// A binary extension field GF(2^f) with table-driven arithmetic and
/// byte-buffer kernels.
///
/// Implementations are zero-sized marker types ([`crate::Gf8`]); all
/// methods are associated functions so call sites read like
/// `Gf8::mul(a, b)`.
///
/// # Buffer representation
///
/// The slice kernels operate on `&[u8]` buffers holding a packed vector of
/// field symbols, [`GaloisField::SYMBOL_BYTES`] bytes each (one for
/// GF(2^8)). Because scalar multiplication acts symbol-wise and addition is
/// XOR, every kernel is linear over the packed representation, which is
/// what the Reed–Solomon encoder relies on.
pub trait GaloisField: Copy + Clone + Debug + Default + Send + Sync + 'static {
    /// The unsigned integer type holding one field element.
    type Elem: Copy + Eq + Ord + Debug + Default + Hash + Send + Sync + 'static;

    /// Field width f in GF(2^f).
    const BITS: u32;

    /// Number of field elements, 2^f.
    const ORDER: u32;

    /// Bytes per symbol in packed buffers.
    const SYMBOL_BYTES: usize;

    /// Short human-readable name, e.g. `"GF(2^8)"`.
    const NAME: &'static str;

    /// The additive identity.
    fn zero() -> Self::Elem;

    /// The multiplicative identity.
    fn one() -> Self::Elem;

    /// Field addition (XOR in characteristic 2).
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Field multiplication.
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Multiplicative inverse; `None` for zero.
    fn inv(a: Self::Elem) -> Option<Self::Elem>;

    /// `a / b`; `None` when `b` is zero.
    fn div(a: Self::Elem, b: Self::Elem) -> Option<Self::Elem> {
        Self::inv(b).map(|ib| Self::mul(a, ib))
    }

    /// `generator^i` where the generator is the primitive element used to
    /// build the log/antilog tables. `i` is taken modulo `ORDER - 1`.
    fn exp(i: u32) -> Self::Elem;

    /// Discrete logarithm base the table generator; `None` for zero.
    fn log(a: Self::Elem) -> Option<u32>;

    /// `a^e` by log/antilog (with `0^0 = 1` by convention).
    fn pow(a: Self::Elem, e: u32) -> Self::Elem {
        if e == 0 {
            return Self::one();
        }
        let Some(la) = Self::log(a) else {
            // log is None exactly for zero, and 0^e = 0 for e > 0.
            return Self::zero();
        };
        // la < 2^16 and e < 2^32, so the product cannot wrap; ORDER >= 2.
        let l = u64::from(la)
            .wrapping_mul(u64::from(e))
            .checked_rem(u64::from(Self::ORDER).saturating_sub(1))
            .unwrap_or(0);
        // l < ORDER - 1 <= u32::MAX after the modulo, so the conversion is
        // total; fall back to the zero exponent rather than aborting.
        Self::exp(u32::try_from(l).unwrap_or(0))
    }

    /// Lossy conversion from `usize` (truncates to field width). Used to
    /// build Vandermonde evaluation points 0, 1, 2, ….
    fn from_usize(x: usize) -> Self::Elem;

    /// Widening conversion to `usize` for table indexing.
    fn to_usize(a: Self::Elem) -> usize;

    /// `dst = c * src`, symbol-wise over packed buffers.
    ///
    /// Kernels never panic: mismatched or non-symbol-aligned lengths degrade
    /// to the longest symbol-aligned common prefix, leaving any excess
    /// untouched. Callers that need strict lengths (the Reed–Solomon layer)
    /// validate at their own boundary; a bad buffer from a remote peer must
    /// surface as a verify error, not abort the bucket actor.
    fn mul_slice(c: Self::Elem, src: &[u8], dst: &mut [u8]);

    /// `dst ^= c * src`, symbol-wise over packed buffers — the inner loop of
    /// Reed–Solomon encoding and of LH\*RS parity Δ-commits.
    ///
    /// Same prefix-degrade contract as [`GaloisField::mul_slice`].
    fn mul_add_slice(c: Self::Elem, src: &[u8], dst: &mut [u8]);
}

/// `dst ^= src` — field-independent buffer addition (all GF(2^f) add by XOR).
///
/// This is the entire per-parity-bucket work for the all-ones generator
/// column, i.e. the XOR fast path that makes LH\*RS's first parity bucket as
/// cheap as LH\*g's.
///
/// Mismatched lengths degrade to the common prefix (the extra suffix of the
/// longer buffer is left untouched) instead of aborting: a length bug in a
/// caller must surface as a decode/verify error on that one operation, not
/// as a killed bucket actor that the coordinator then has to rebuild.
pub fn add_slice(src: &[u8], dst: &mut [u8]) {
    let n = src.len().min(dst.len());
    let (Some(src), Some(dst)) = (src.get(..n), dst.get_mut(..n)) else {
        return;
    };
    // Process word-sized chunks; the compiler vectorizes this loop.
    let mut s8 = src.chunks_exact(8);
    let mut d8 = dst.chunks_exact_mut(8);
    for (s, d) in (&mut s8).zip(&mut d8) {
        if let (Ok(sv), Ok(dv)) = (<[u8; 8]>::try_from(s), <[u8; 8]>::try_from(&*d)) {
            let v = u64::from_ne_bytes(sv) ^ u64::from_ne_bytes(dv);
            d.copy_from_slice(&v.to_ne_bytes());
        }
    }
    for (s, d) in s8.remainder().iter().zip(d8.into_remainder()) {
        *d ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_slice_xors_all_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let src: Vec<u8> = (0..len as u32).map(|i| (i * 37 + 1) as u8).collect();
            let mut dst: Vec<u8> = (0..len as u32).map(|i| (i * 11 + 5) as u8).collect();
            let expect: Vec<u8> = src.iter().zip(&dst).map(|(a, b)| a ^ b).collect();
            add_slice(&src, &mut dst);
            assert_eq!(dst, expect, "len={len}");
        }
    }

    #[test]
    fn add_slice_is_involution() {
        let src: Vec<u8> = (0..100).map(|i| (i * 3) as u8).collect();
        let orig: Vec<u8> = (0..100).map(|i| (i * 7 + 2) as u8).collect();
        let mut dst = orig.clone();
        add_slice(&src, &mut dst);
        add_slice(&src, &mut dst);
        assert_eq!(dst, orig);
    }

    #[test]
    fn add_slice_length_mismatch_degrades_to_common_prefix() {
        // Longer dst: only the prefix is XORed, the suffix is untouched.
        let mut dst = [10u8, 20, 30, 40];
        add_slice(&[1, 2], &mut dst);
        assert_eq!(dst, [11, 22, 30, 40]);
        // Longer src: dst is XORed with the matching prefix of src.
        let mut dst = [10u8, 20];
        add_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9], &mut dst);
        assert_eq!(dst, [11, 22]);
        // Word-sized src against a sub-word dst still covers the prefix.
        let mut dst = [0xffu8; 3];
        add_slice(&[1u8; 16], &mut dst);
        assert_eq!(dst, [0xfe; 3]);
    }
}
