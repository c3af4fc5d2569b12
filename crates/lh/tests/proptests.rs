//! Property-based tests of the LH* addressing guarantees: A1 correctness,
//! the A2 two-hop bound under arbitrarily stale images, A3 convergence and
//! safety, and split/merge inversion. Seeded cases via `lhrs-testkit`.

use lhrs_lh::{a2_route, A2Outcome, ClientImage, FileState};
use lhrs_testkit::{cases, Rng};

/// Resolve a request via A2 from `start`, panicking on chains > 3.
fn resolve(state: &FileState, start: u64, key: u64) -> (u64, usize) {
    let mut at = start;
    let mut hops = 0;
    loop {
        match a2_route(at, state.level_of(at), key, state.n0()) {
            A2Outcome::Accept => return (at, hops),
            A2Outcome::Forward(next) => {
                at = next;
                hops += 1;
                assert!(hops <= 3, "A2 chain exceeded 3 hops");
            }
        }
    }
}

fn random_keys(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u64> {
    (0..rng.range_usize(lo, hi))
        .map(|_| rng.next_u64())
        .collect()
}

/// A1 always yields an existing bucket, for any file size and key.
#[test]
fn a1_address_in_range() {
    cases("a1_address_in_range", 128, |rng| {
        let splits = rng.range_usize(0, 300);
        let key = rng.next_u64();
        let n0 = rng.range(1, 5);
        let mut state = FileState::new(n0);
        for _ in 0..splits {
            state.split();
        }
        assert!(state.address(key) < state.bucket_count());
    });
}

/// The two-hop guarantee: a request starting at the address computed by
/// ANY older image reaches the correct bucket in at most 2 hops.
#[test]
fn a2_two_hop_bound() {
    cases("a2_two_hop_bound", 128, |rng| {
        let splits = rng.range_usize(0, 200);
        let n0 = rng.range(1, 4);
        let mut state = FileState::new(n0);
        for _ in 0..splits {
            state.split();
        }
        // Build an image corresponding to an earlier point in history.
        let image_splits = rng.range_usize(0, splits + 1);
        let mut img_state = FileState::new(n0);
        for _ in 0..image_splits {
            img_state.split();
        }
        for key in random_keys(rng, 1, 30) {
            let start = img_state.address(key); // image = old true state
            let (at, hops) = resolve(&state, start, key);
            assert_eq!(at, state.address(key));
            assert!(hops <= 2, "took {hops} hops");
        }
    });
}

/// A3 safety: an image fed arbitrary valid IAMs from the true state
/// never overtakes it, and one IAM per key resolves that key.
#[test]
fn a3_safety_and_resolution() {
    cases("a3_safety_and_resolution", 128, |rng| {
        let splits = rng.range_usize(1, 200);
        let mut state = FileState::new(1);
        for _ in 0..splits {
            state.split();
        }
        let mut img = ClientImage::new(1);
        for key in random_keys(rng, 1, 50) {
            let correct = state.address(key);
            if img.address(key) != correct {
                img.adjust(state.level_of(correct), correct);
                assert_eq!(img.address(key), correct);
            }
            assert!(img.bucket_count() <= state.bucket_count());
        }
    });
}

/// Splits preserve addressing: after a split, every key is addressed
/// either where it was, or to the new bucket if it came from the split
/// source.
#[test]
fn split_only_moves_source_keys() {
    cases("split_only_moves_source_keys", 128, |rng| {
        let splits = rng.range_usize(0, 150);
        let mut state = FileState::new(1);
        for _ in 0..splits {
            state.split();
        }
        let keys = random_keys(rng, 1, 50);
        let before: Vec<u64> = keys.iter().map(|&k| state.address(k)).collect();
        let plan = state.split();
        for (idx, &k) in keys.iter().enumerate() {
            let now = state.address(k);
            if before[idx] == plan.source {
                assert!(now == plan.source || now == plan.target);
                assert_eq!(now == plan.target, plan.moves(k));
            } else {
                assert_eq!(now, before[idx]);
            }
        }
    });
}

/// merge() exactly undoes split() anywhere in the growth history.
#[test]
fn merge_inverts_split() {
    cases("merge_inverts_split", 128, |rng| {
        let splits = rng.range_usize(0, 300);
        let n0 = rng.range(1, 4);
        let mut state = FileState::new(n0);
        for _ in 0..splits {
            state.split();
        }
        let before = state;
        let plan = state.split();
        let merged = state.merge().unwrap();
        assert_eq!(state, before);
        assert_eq!(merged, plan);
    });
}
