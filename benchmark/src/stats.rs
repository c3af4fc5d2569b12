//! The arithmetic that defines the reported numbers: percentiles, medians
//! over time segments, and the quartile spread used to judge steadiness.

/// Percentiles a latency report may name, lowest first.
const PERCENTILES: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The nearest rank of percentile `p` in a sample of `n`: the smallest rank
/// with at least `p` percent of the sample at or below it. Computed in
/// hundredths of a percent, in integers: `99.9 / 100.0 * 1000.0` is not 999
/// in floating point.
fn rank(n: usize, p: f64) -> usize {
    let basis_points = (p * 100.0).round() as usize;
    (n * basis_points).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted sample. `None` for an
/// empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    sorted.get(rank(sorted.len(), p).checked_sub(1)?).copied()
}

/// The highest percentile of [`PERCENTILES`] that still has at least ten
/// samples beyond it in a sample of `n`: a tail percentile resting on fewer
/// is one stall's latency, not a property of the system. `None` when even
/// the median has fewer than ten samples beyond it.
pub fn top_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rfind(|p| n.saturating_sub(rank(n, *p)) >= 10)
}

/// Median of a sample of floats (mean of the two middle values for an even
/// count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Completion times and latencies of one operation class, split into
/// equal time segments of the measured window.
pub struct Segments {
    /// Per segment: latencies (ns) of the operations completed in it.
    latencies: Vec<Vec<u64>>,
    segment_ns: u64,
}

impl Segments {
    /// `count` equal segments covering `window_ns`.
    pub fn new(count: usize, window_ns: u64) -> Segments {
        Segments {
            latencies: vec![Vec::new(); count.max(1)],
            segment_ns: (window_ns / count.max(1) as u64).max(1),
        }
    }

    /// Record an operation that completed `at_ns` after the window opened.
    /// Completions past the window's end are not part of it.
    pub fn record(&mut self, at_ns: u64, latency_ns: u64) {
        let idx = usize::try_from(at_ns / self.segment_ns).unwrap_or(usize::MAX);
        if let Some(seg) = self.latencies.get_mut(idx) {
            seg.push(latency_ns);
        }
    }

    /// Operations recorded over all segments.
    pub fn total(&self) -> usize {
        self.latencies.iter().map(Vec::len).sum()
    }

    /// Completions in each segment.
    pub fn counts(&self) -> Vec<usize> {
        self.latencies.iter().map(Vec::len).collect()
    }

    /// A segment's length in seconds.
    pub fn segment_seconds(&self) -> f64 {
        self.segment_ns as f64 / 1e9
    }

    /// Percentile `p` over every sample of the window, in ns.
    pub fn overall_percentile(&self, p: f64) -> Option<u64> {
        let mut all: Vec<u64> = self.latencies.iter().flatten().copied().collect();
        all.sort_unstable();
        percentile(&all, p)
    }

    /// Median over the segments of each segment's percentile `p`, in ns.
    /// A whole-window tail percentile is owned by the one worst stall and
    /// does not repeat from run to run; the median of per-segment tails
    /// does. Empty segments are left out.
    pub fn segment_median_percentile(&self, p: f64) -> Option<f64> {
        let per_segment: Vec<f64> = self
            .latencies
            .iter()
            .filter_map(|seg| {
                let mut s = seg.clone();
                s.sort_unstable();
                percentile(&s, p).map(|v| v as f64)
            })
            .collect();
        median(&per_segment)
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method). `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let cut = |i: usize| {
        let pos = i * (len + 1);
        let j = (pos / 4).clamp(1, len - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread a metric's bound is judged against.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // 99.9 % of 1000 samples leaves exactly one beyond.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.9), Some(999));
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(0), None);
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(99), Some(50.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(999), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(9_999), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        assert_eq!(top_percentile(100_000), Some(99.99));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn segments_split_the_window_and_drop_late_completions() {
        let mut s = Segments::new(10, 10_000);
        for t in 0..10_000u64 {
            // One op per ns; latency equals the segment index, except one
            // huge stall in segment 3.
            s.record(t, t / 1000);
        }
        s.record(3_500, 1_000_000);
        s.record(10_000, 5); // at the window's end: not part of it
        s.record(u64::MAX, 5);
        assert_eq!(s.total(), 10_001);
        assert_eq!(
            s.counts(),
            [1000, 1000, 1000, 1001, 1000, 1000, 1000, 1000, 1000, 1000]
        );
        assert_eq!(s.segment_seconds(), 1e-6);
        // The stall owns the whole-window maximum but not the segment median.
        assert_eq!(s.overall_percentile(100.0), Some(1_000_000));
        assert_eq!(s.segment_median_percentile(100.0), Some(5.5));
        assert_eq!(s.segment_median_percentile(50.0), Some(4.5));
    }

    #[test]
    fn segment_median_skips_empty_segments() {
        let mut s = Segments::new(4, 400);
        s.record(0, 10);
        s.record(350, 30);
        assert_eq!(s.segment_median_percentile(99.0), Some(20.0));
        assert_eq!(Segments::new(4, 400).segment_median_percentile(99.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartile_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
