//! [`ClientImage`]: a client's possibly stale view of the file state, with
//! algorithms A1 (client side) and A3 (image adjustment).

use crate::h;

/// A client's image `(n', i')` of the LH\* file state.
///
/// Clients never read the real file state — that would make the coordinator
/// a hot spot. Instead each client keeps this image, addresses requests with
/// A1 computed over the image, and refines the image from the Image
/// Adjustment Messages (IAMs) servers send when a request arrives at a
/// forwarding bucket.
///
/// # Note on the A3 transcription
///
/// The paper states A3 as `i' ← j − 1; n' ← a + 1` followed by a wrap test.
/// Taken literally this lets the image *overtake* the real file when the
/// IAM originates from a newly created high-numbered bucket (e.g. `a = 8`,
/// `j = 4` while the true state is `n = 2, i = 3`, ten buckets: the literal
/// rule yields an image of sixteen buckets and the client would address
/// non-existent servers). The implementation therefore uses the sound form
/// of the same idea: an IAM `(j, a)` proves the file reached at least the
/// state *just after bucket `a` obtained level `j`*, which is
/// `i_min = j − 1`, `n_min = (a mod 2^{i_min}·N) + 1` (with wrap), and the
/// image advances to the lexicographic maximum of its current value and
/// that minimal state. This keeps every guarantee the paper claims for A3 —
/// forward-only movement, convergence, and "the same addressing error
/// cannot happen twice" — while never exceeding the true state; both
/// properties are enforced by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientImage {
    n: u64,
    i: u8,
    n0: u64,
}

impl ClientImage {
    /// A brand-new client: `n' = 0`, `i' = 0` — the worst-case image. A
    /// zero `n0` is clamped to 1.
    pub fn new(n0: u64) -> Self {
        debug_assert!(n0 >= 1);
        ClientImage {
            n: 0,
            i: 0,
            n0: n0.max(1),
        }
    }

    /// `2^lvl · N`, saturating — a corrupt level in an IAM must not wrap
    /// the implied bucket count (same rule as `FileState`).
    fn boundary_at(&self, lvl: u8) -> u64 {
        if lvl >= 64 {
            u64::MAX
        } else {
            // The shift amount is < 64 here, so wrapping_shl is exact.
            self.n0.saturating_mul(1u64.wrapping_shl(u32::from(lvl)))
        }
    }

    /// Image split pointer `n'`.
    pub fn split_pointer(&self) -> u64 {
        self.n
    }

    /// Image file level `i'`.
    pub fn level(&self) -> u8 {
        self.i
    }

    /// Number of buckets the client believes exist (saturating).
    pub fn bucket_count(&self) -> u64 {
        self.n.saturating_add(self.boundary_at(self.i))
    }

    /// **A1 over the image**: the bucket this client sends a request for
    /// `key` to. May be wrong; A2 forwarding fixes it in ≤ 2 hops.
    pub fn address(&self, key: u64) -> u64 {
        let a = h(self.i, self.n0, key);
        if a < self.n {
            h(self.i.saturating_add(1), self.n0, key)
        } else {
            a
        }
    }

    /// **Algorithm A3** — refine the image from an IAM carrying the level
    /// `j` of the bucket `a` that finally handled the request (see the type
    /// docs for the exact rule implemented).
    pub fn adjust(&mut self, j: u8, a: u64) {
        if j == 0 {
            return; // a level-0 bucket proves nothing beyond the initial state
        }
        let i_min = j.saturating_sub(1);
        // n0 >= 1 keeps the span nonzero, so the remainder always exists.
        let span = self.boundary_at(i_min);
        let mut n_min = a.checked_rem(span).unwrap_or(0).saturating_add(1);
        let mut i_new = i_min;
        if n_min >= span {
            n_min = 0;
            i_new = i_new.saturating_add(1);
        }
        // Forward-only: lexicographic max on (level, pointer).
        if (i_new, n_min) > (self.i, self.n) {
            self.i = i_new;
            self.n = n_min;
        }
    }

    /// The level this image assumes bucket `m` has (same arithmetic as
    /// [`crate::FileState::level_of`], over the image). Used to tag scan
    /// messages so servers can propagate them to buckets the image does not
    /// know about, exactly once.
    ///
    /// Total: a bucket outside the image's range degrades to `i' + 1` (the
    /// level it would have) instead of aborting; debug builds still trap.
    pub fn level_of(&self, m: u64) -> u8 {
        debug_assert!(m < self.bucket_count(), "bucket {m} not in image");
        if m < self.n || m >= self.boundary_at(self.i) {
            self.i.saturating_add(1)
        } else {
            self.i
        }
    }

    /// Step the image *backwards* by one split — used when a client
    /// discovers its image is ahead of a file that has shrunk through
    /// bucket merges (the allocation table reports the addressed bucket no
    /// longer exists). Returns `false` at the initial state.
    pub fn regress(&mut self) -> bool {
        if self.n == 0 {
            if self.i == 0 {
                return false;
            }
            self.i = self.i.saturating_sub(1);
            self.n = self.boundary_at(self.i);
        }
        self.n = self.n.saturating_sub(1);
        true
    }

    /// The raw `(n', i')` pair — handy for assertions in tests.
    pub fn parts(&self) -> (u64, u8) {
        (self.n, self.i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileState;

    #[test]
    fn fresh_image_addresses_bucket_zero_family() {
        let img = ClientImage::new(1);
        for key in 0..100 {
            assert_eq!(img.address(key), 0);
        }
    }

    #[test]
    fn adjust_moves_image_forward_only() {
        let mut img = ClientImage::new(1);
        img.adjust(3, 1);
        let before = img.parts();
        // Weaker IAMs must not regress the image.
        img.adjust(1, 0);
        assert_eq!(img.parts(), before);
        img.adjust(3, 0); // same level, smaller implied pointer
        assert_eq!(img.parts(), before);
    }

    #[test]
    fn image_never_overtakes_true_state() {
        // Feed the client IAMs from the true state after every split; the
        // image bucket count must never exceed the true bucket count.
        let mut state = FileState::new(1);
        let mut img = ClientImage::new(1);
        for key in 0..500u64 {
            state.split();
            let a = state.address(key * 7 + 1);
            img.adjust(state.level_of(a), a);
            assert!(
                img.bucket_count() <= state.bucket_count(),
                "image overtook file at key {key}: {:?} vs {:?}",
                img.parts(),
                (state.split_pointer(), state.level())
            );
        }
    }

    #[test]
    fn iam_from_new_bucket_implies_exact_minimal_state() {
        // True state (n = 2, i = 3): ten buckets. Bucket 8 (level 4) was
        // created when bucket 0 split; an IAM (j = 4, a = 8) must imply
        // state (n = 1, i = 3) — nine buckets — not sixteen.
        let mut img = ClientImage::new(1);
        img.adjust(4, 8);
        assert_eq!(img.parts(), (1, 3));
        assert_eq!(img.bucket_count(), 9);
    }

    #[test]
    fn iam_wrap_to_next_level() {
        // IAM (j = 3, a = 3): bucket 3 got level 3 when it split at state
        // (n = 3, i = 2); the successor state wraps to (n = 0, i = 3).
        let mut img = ClientImage::new(1);
        img.adjust(3, 3);
        assert_eq!(img.parts(), (0, 3));
        assert_eq!(img.bucket_count(), 8);
    }

    #[test]
    fn same_error_cannot_repeat_and_key_resolves() {
        // After an IAM for key c from its correct bucket, the client
        // addresses c correctly — the strong form of "the same addressing
        // error cannot happen twice".
        for splits in [1usize, 3, 5, 9, 20, 37] {
            let mut state = FileState::new(1);
            for _ in 0..splits {
                state.split();
            }
            let mut img = ClientImage::new(1);
            for key in 0..300u64 {
                let guess = img.address(key);
                let correct = state.address(key);
                if guess != correct {
                    img.adjust(state.level_of(correct), correct);
                    assert_eq!(
                        img.address(key),
                        correct,
                        "key {key} unresolved after IAM (splits={splits})"
                    );
                }
            }
        }
    }

    #[test]
    fn regress_inverts_adjust_path() {
        // Walk an image forward via IAMs, then regress step by step: the
        // bucket count decreases by exactly one per step down to 1.
        let mut state = FileState::new(1);
        for _ in 0..13 {
            state.split();
        }
        let mut img = ClientImage::new(1);
        for key in 0..200u64 {
            let a = state.address(key);
            img.adjust(state.level_of(a), a);
        }
        let mut count = img.bucket_count();
        while img.regress() {
            assert_eq!(img.bucket_count(), count - 1);
            count -= 1;
        }
        assert_eq!(img.parts(), (0, 0));
        assert!(!img.regress(), "cannot regress below the initial state");
    }

    #[test]
    fn regress_mirrors_file_state_merge() {
        // regress() must step through exactly the same (n, i) sequence as
        // FileState::merge.
        let mut state = FileState::new(1);
        for _ in 0..23 {
            state.split();
        }
        let mut img = ClientImage::new(1);
        // Drive the image to the exact state.
        for key in 0..500u64 {
            let a = state.address(key);
            img.adjust(state.level_of(a), a);
        }
        assert_eq!(img.parts(), (state.split_pointer(), state.level()));
        while state.merge().is_some() {
            assert!(img.regress());
            assert_eq!(img.parts(), (state.split_pointer(), state.level()));
        }
    }

    #[test]
    fn converges_in_logarithmically_many_iams() {
        // A new client reaches a fully accurate image after O(log M) IAMs
        // on a uniform key stream (the paper's convergence claim). Each
        // addressing error jumps the image pointer to a uniformly random
        // later position, so the expected error count is harmonic —
        // O(log M) — for a 256-bucket file well under 40.
        let mut state = FileState::new(1);
        for _ in 0..255 {
            state.split();
        }
        let mut img = ClientImage::new(1);
        let mut iams = 0;
        for raw in 0..100_000u64 {
            let key = crate::scramble(raw);
            let guess = img.address(key);
            let correct = state.address(key);
            if guess != correct {
                iams += 1;
                img.adjust(state.level_of(correct), correct);
            }
            if img.parts() == (state.split_pointer(), state.level()) {
                break;
            }
        }
        assert_eq!(
            img.parts(),
            (state.split_pointer(), state.level()),
            "image never converged"
        );
        assert!(
            iams <= 40,
            "took {iams} IAMs to converge on a 256-bucket file"
        );
    }
}
