//! Property-based tests of the field axioms and slice-kernel linearity of
//! GF(2^8). These are the invariants the Reed–Solomon layer and the
//! LH*RS parity Δ-protocol depend on. Each property runs as seeded cases
//! via `lhrs-testkit` (hermetic stand-in for proptest).

use lhrs_gf::{add_slice, GaloisField, Gf8};
use lhrs_testkit::cases;

fn axioms<F: GaloisField>(a: F::Elem, b: F::Elem, c: F::Elem) {
    // Group/ring axioms.
    assert_eq!(F::add(a, b), F::add(b, a));
    assert_eq!(F::mul(a, b), F::mul(b, a));
    assert_eq!(F::add(F::add(a, b), c), F::add(a, F::add(b, c)));
    assert_eq!(F::mul(F::mul(a, b), c), F::mul(a, F::mul(b, c)));
    assert_eq!(F::mul(a, F::add(b, c)), F::add(F::mul(a, b), F::mul(a, c)));
    assert_eq!(F::add(a, F::zero()), a);
    assert_eq!(F::mul(a, F::one()), a);
    assert_eq!(F::add(a, a), F::zero());
    // Division is the inverse of multiplication.
    if b != F::zero() {
        let q = F::div(a, b).unwrap();
        assert_eq!(F::mul(q, b), a);
    }
}

#[test]
fn gf8_axioms() {
    cases("gf8_axioms", 256, |rng| {
        axioms::<Gf8>(rng.next_u8(), rng.next_u8(), rng.next_u8());
    });
}

/// mul_add_slice must be linear: applying (c1 then c2) equals applying
/// (c1 ^+ c2 products) — i.e. accumulation over GF distributes, which is
/// exactly what lets parity buckets apply record deltas incrementally.
#[test]
fn gf8_mul_add_slice_is_linear() {
    cases("gf8_mul_add_slice_is_linear", 128, |rng| {
        let c1 = rng.next_u8();
        let c2 = rng.next_u8();
        let data = {
            let n = rng.range_usize(0, 257);
            rng.bytes(n)
        };
        let mut acc = vec![0u8; data.len()];
        Gf8::mul_add_slice(c1, &data, &mut acc);
        Gf8::mul_add_slice(c2, &data, &mut acc);
        let mut direct = vec![0u8; data.len()];
        Gf8::mul_add_slice(c1 ^ c2, &data, &mut direct);
        assert_eq!(acc, direct);
    });
}

/// Scalar multiplication distributes over buffer XOR:
/// c*(x ^ y) == c*x ^ c*y. This is the correctness core of the LH*RS
/// Δ-commit: sending Δ = new ^ old and accumulating γ·Δ onto the parity
/// yields the same parity as re-encoding from scratch.
#[test]
fn gf8_delta_commit_equivalence() {
    cases("gf8_delta_commit_equivalence", 128, |rng| {
        let c = rng.next_u8();
        let old = {
            let n = rng.range_usize(1, 129);
            rng.bytes(n)
        };
        let new_seed = {
            let n = rng.range_usize(1, 129);
            rng.bytes(n)
        };
        let n = old.len().min(new_seed.len());
        let old = &old[..n];
        let newv = &new_seed[..n];

        // Parity after encoding `old`, then Δ-committing to `new`.
        let mut parity = vec![0u8; n];
        Gf8::mul_add_slice(c, old, &mut parity);
        let mut delta = old.to_vec();
        add_slice(newv, &mut delta);
        Gf8::mul_add_slice(c, &delta, &mut parity);

        // Parity from encoding `new` directly.
        let mut direct = vec![0u8; n];
        Gf8::mul_add_slice(c, newv, &mut direct);
        assert_eq!(parity, direct);
    });
}
