//! Checked integer narrowing for the actor hot paths.
//!
//! The panic audit denies narrowing `as` casts in the actor modules
//! (`clippy::cast_possible_truncation`, DESIGN §8.2): a truncated bucket
//! number or shard index silently addresses the *wrong* bucket, which is
//! worse than a crash. These helpers make the conversion policy explicit at
//! the call site.

/// Narrow a `u64` to `usize` for indexing, saturating on (32-bit-target)
/// overflow. Saturation composes with `.get(...)`: an absurd value indexes
/// past the end and surfaces as a lookup miss instead of aborting or, far
/// worse, wrapping around to a valid-but-wrong slot.
#[inline]
pub(crate) fn to_index(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_index_is_identity_in_range_and_saturates() {
        assert_eq!(to_index(0), 0);
        assert_eq!(to_index(4096), 4096);
        // On 64-bit targets u64::MAX fits; either way the result is MAX.
        assert_eq!(to_index(u64::MAX), usize::MAX);
    }
}
