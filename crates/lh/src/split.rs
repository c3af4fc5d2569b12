//! Split plans: what moves where when bucket `n` splits.

use crate::h;

/// The outcome of advancing the file state by one split (or, read backwards,
/// one merge): bucket `source` re-hashes its records with `h_{new_level}`;
/// those mapping to `target` move there, the rest stay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitPlan {
    /// The bucket that splits (the old split-pointer position).
    pub source: u64,
    /// The newly appended bucket `source + 2^{new_level-1}·N`.
    pub target: u64,
    /// Level of both `source` and `target` after the split.
    pub new_level: u8,
    /// Initial bucket count of the file (needed to re-run the hash).
    pub n0: u64,
}

impl SplitPlan {
    /// Whether `key` moves from `source` to `target` under this plan.
    ///
    /// Only meaningful for keys currently addressed to `source`.
    pub fn moves(&self, key: u64) -> bool {
        h(self.new_level, self.n0, key) == self.target
    }
}

#[cfg(test)]
mod tests {
    use crate::FileState;

    #[test]
    fn plan_numbers_match_lh_arithmetic() {
        let mut state = FileState::new(2); // N = 2
        let p0 = state.split();
        assert_eq!((p0.source, p0.target, p0.new_level), (0, 2, 1));
        let p1 = state.split();
        assert_eq!((p1.source, p1.target, p1.new_level), (1, 3, 1));
        let p2 = state.split();
        assert_eq!((p2.source, p2.target, p2.new_level), (0, 4, 2));
    }
}
