//! Fixed-bucket latency histograms: power-of-two microsecond boundaries,
//! lock-free observation, Prometheus-compatible cumulative snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (inclusive, microseconds) of the finite histogram buckets.
/// Powers of two from 1 µs to ~131 ms; everything above lands in the
/// implicit `+Inf` bucket.
pub const BUCKET_BOUNDS_US: [u64; 18] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
];

const NBUCKETS: usize = BUCKET_BOUNDS_US.len() + 1; // + the +Inf bucket

/// A concurrent fixed-bucket histogram. Observations and snapshots are
/// wait-free; buckets saturate instead of wrapping.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; NBUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

fn saturating_incr(cell: &AtomicU64, delta: u64) {
    // fetch_update never fails with a `Some(..)` closure; the result is
    // ignored rather than unwrapped to keep the hot path panic-free.
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(delta))
    });
}

impl Histogram {
    /// Record one latency observation, in microseconds.
    pub fn observe(&self, value_us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|b| value_us <= *b)
            .unwrap_or(NBUCKETS.saturating_sub(1));
        if let Some(cell) = self.counts.get(idx) {
            saturating_incr(cell, 1);
        }
        saturating_incr(&self.sum_us, value_us);
        saturating_incr(&self.count, 1);
    }

    /// A consistent-enough copy of the current state (individual cells are
    /// read atomically; cross-cell skew is bounded by in-flight updates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; NBUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts; the last entry is
    /// the `+Inf` overflow bucket.
    pub counts: [u64; NBUCKETS],
    /// Sum of all observed values, µs (saturating).
    pub sum_us: u64,
    /// Total number of observations (saturating).
    pub count: u64,
}

impl HistogramSnapshot {
    /// Cumulative count of observations `<= bound_us`, where `bound_us`
    /// must be one of [`BUCKET_BOUNDS_US`]; any other value returns the
    /// total count (the `+Inf` reading).
    pub fn cumulative_le(&self, bound_us: u64) -> u64 {
        match BUCKET_BOUNDS_US.iter().position(|b| *b == bound_us) {
            Some(idx) => self.counts.iter().take(idx.saturating_add(1)).sum(),
            None => self.count,
        }
    }

    /// Mean observation in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let h = Histogram::default();
        // Boundary values are inclusive: v <= bound.
        h.observe(1); // bucket le=1
        h.observe(2); // le=2
        h.observe(3); // le=4
        h.observe(4); // le=4
        h.observe(5); // le=8
        let s = h.snapshot();
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[2], 2);
        assert_eq!(s.counts[3], 1);
        assert_eq!(s.cumulative_le(4), 4);
        assert_eq!(s.cumulative_le(8), 5);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_us, 15);
        assert_eq!(s.mean_us(), 3);
    }

    #[test]
    fn zero_goes_to_smallest_bucket_and_huge_to_inf() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.counts[0], 1, "0 <= 1 lands in the first bucket");
        assert_eq!(s.counts[NBUCKETS - 1], 1, "overflow lands in +Inf");
        assert_eq!(s.cumulative_le(BUCKET_BOUNDS_US[NBUCKETS - 2]), 1);
        assert_eq!(s.cumulative_le(u64::MAX), 2, "non-boundary reads +Inf");
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.snapshot().sum_us, u64::MAX);
    }
}
