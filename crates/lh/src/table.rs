//! [`LhTable`]: a self-contained single-node linear-hash dictionary.
//!
//! This is classic Litwin linear hashing (the [L80] citation of the paper)
//! over the same [`FileState`] arithmetic the distributed schemes use. It
//! serves three purposes: an executable specification of the bucket math, a
//! handy in-memory dictionary for examples, and the in-bucket store behind
//! the simulated servers.

use crate::split::partition_keys;
use crate::FileState;

/// A growable linear-hash table mapping `u64` keys to values.
///
/// Splits are triggered by a load-factor threshold (records per bucket
/// exceeding `split_load × capacity`), mirroring the uncontrolled-split
/// policy of the paper's files.
///
/// ```
/// use lhrs_lh::LhTable;
///
/// let mut table = LhTable::new(8);
/// for key in 0..1000u64 {
///     table.insert(lhrs_lh::scramble(key), key * 2);
/// }
/// assert_eq!(table.get(lhrs_lh::scramble(7)), Some(&14));
/// assert!(table.bucket_count() > 64, "the table grew by splitting");
/// ```
#[derive(Debug, Clone)]
pub struct LhTable<V> {
    state: FileState,
    buckets: Vec<Vec<(u64, V)>>,
    len: usize,
    /// Records per bucket above which an insert triggers a split.
    split_threshold: usize,
}

impl<V> LhTable<V> {
    /// Create a table with the given per-bucket split threshold (`b` in the
    /// paper's notation — bucket capacity). A zero threshold is clamped
    /// to 1.
    pub fn new(split_threshold: usize) -> Self {
        debug_assert!(split_threshold >= 1);
        LhTable {
            state: FileState::new(1),
            buckets: vec![Vec::new()],
            len: 0,
            split_threshold: split_threshold.max(1),
        }
    }

    /// The bucket slot for `key`. The table invariant
    /// (`buckets.len() == state.bucket_count()`) keeps this in range; the
    /// conversion saturates rather than truncating on narrow hosts.
    fn slot(&self, key: u64) -> usize {
        usize::try_from(self.state.address(key)).unwrap_or(usize::MAX)
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets currently allocated.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Average load factor: records / (buckets × threshold).
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.buckets.len().saturating_mul(self.split_threshold) as f64
    }

    /// Insert or replace; returns the previous value if the key existed.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let a = self.slot(key);
        let Some(bucket) = self.buckets.get_mut(a) else {
            debug_assert!(false, "A1 addressed a nonexistent bucket");
            return None;
        };
        for slot in bucket.iter_mut() {
            if slot.0 == key {
                return Some(std::mem::replace(&mut slot.1, value));
            }
        }
        bucket.push((key, value));
        let overflow = bucket.len() > self.split_threshold;
        self.len = self.len.saturating_add(1);
        // Uncontrolled split policy: split whenever the *inserted-into*
        // bucket overflows (the overflow report of the paper).
        if overflow {
            self.split_once();
        }
        None
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.buckets
            .get(self.slot(key))?
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let a = self.slot(key);
        let bucket = self.buckets.get_mut(a)?;
        let pos = bucket.iter().position(|(k, _)| *k == key)?;
        let (_, v) = bucket.swap_remove(pos);
        self.len = self.len.saturating_sub(1);
        Some(v)
    }

    /// Iterate over all `(key, value)` pairs in bucket order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|(k, v)| (*k, v)))
    }

    /// Undo the last split: fold the last bucket back into its split
    /// source (the merge of §4.3). Returns `false` at the initial size.
    /// Typical use is shrinking a deletion-heavy table:
    ///
    /// ```
    /// use lhrs_lh::LhTable;
    /// let mut t = LhTable::new(4);
    /// for k in 0..200u64 { t.insert(k, ()); }
    /// for k in 0..190u64 { t.remove(k); }
    /// while t.load_factor() < 0.4 && t.merge_once() {}
    /// assert!(t.bucket_count() < 20);
    /// assert_eq!(t.get(195), Some(&()));
    /// ```
    pub fn merge_once(&mut self) -> bool {
        let Some(plan) = self.state.merge() else {
            return false;
        };
        debug_assert_eq!(
            Some(plan.target),
            u64::try_from(self.buckets.len())
                .ok()
                .map(|l| l.saturating_sub(1))
        );
        let Some(movers) = self.buckets.pop() else {
            return false;
        };
        let source = usize::try_from(plan.source).unwrap_or(usize::MAX);
        if let Some(bucket) = self.buckets.get_mut(source) {
            bucket.extend(movers);
        }
        true
    }

    /// Perform one linear-hash split (bucket pointed to by the split
    /// pointer, which is generally *not* the overflowing bucket).
    fn split_once(&mut self) {
        let plan = self.state.split();
        debug_assert_eq!(Some(plan.target), u64::try_from(self.buckets.len()).ok());
        let slot = usize::try_from(plan.source).unwrap_or(usize::MAX);
        let Some(bucket) = self.buckets.get_mut(slot) else {
            debug_assert!(false, "split source bucket missing");
            self.buckets.push(Vec::new());
            return;
        };
        let source = std::mem::take(bucket);
        let keys = source.iter().map(|(k, _)| *k);
        let (_stay, movers) = partition_keys(&plan, keys);
        let mover_set: std::collections::HashSet<u64> = movers.into_iter().collect();
        let mut stay_records = Vec::new();
        let mut move_records = Vec::new();
        for (k, v) in source {
            if mover_set.contains(&k) {
                move_records.push((k, v));
            } else {
                stay_records.push((k, v));
            }
        }
        if let Some(bucket) = self.buckets.get_mut(slot) {
            *bucket = stay_records;
        }
        self.buckets.push(move_records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = LhTable::new(4);
        for k in 0..1000u64 {
            assert_eq!(t.insert(k, k * 2), None);
        }
        assert_eq!(t.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(t.get(k), Some(&(k * 2)));
        }
        assert_eq!(t.get(5000), None);
        for k in (0..1000u64).step_by(2) {
            assert_eq!(t.remove(k), Some(k * 2));
        }
        assert_eq!(t.len(), 500);
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(1), Some(&2));
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut t = LhTable::new(4);
        assert_eq!(t.insert(7, "a"), None);
        assert_eq!(t.insert(7, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(7), Some(&"b"));
    }

    #[test]
    fn table_scales_and_keeps_reasonable_load() {
        let mut t = LhTable::new(8);
        for k in 0..20_000u64 {
            t.insert(crate::scramble(k), k);
        }
        assert!(t.bucket_count() > 1000, "table must have split many times");
        let lf = t.load_factor();
        // The paper reports ~0.7 average load for uncontrolled splitting.
        assert!((0.5..=0.95).contains(&lf), "load factor {lf} out of range");
        // Every record still findable after thousands of splits.
        for k in 0..20_000u64 {
            assert_eq!(t.get(crate::scramble(k)), Some(&k));
        }
    }

    #[test]
    fn iter_sees_every_record_once() {
        let mut t = LhTable::new(3);
        for k in 0..500u64 {
            t.insert(k, ());
        }
        let mut keys: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 500);
    }

    #[test]
    fn merge_restores_addressability() {
        let mut t = LhTable::new(4);
        for k in 0..800u64 {
            t.insert(crate::scramble(k), k);
        }
        let big = t.bucket_count();
        // Shrink halfway down, verifying every key at each step.
        for _ in 0..big / 2 {
            assert!(t.merge_once());
        }
        assert_eq!(t.bucket_count(), big - big / 2);
        for k in 0..800u64 {
            assert_eq!(t.get(crate::scramble(k)), Some(&k), "key {k}");
        }
        // All the way to one bucket.
        while t.merge_once() {}
        assert_eq!(t.bucket_count(), 1);
        assert!(!t.merge_once());
        assert_eq!(t.len(), 800);
    }

    #[test]
    fn sequential_keys_also_work() {
        // Linear hashing degrades gracefully on sequential keys (they are
        // the best case for `c mod 2^l`).
        let mut t = LhTable::new(4);
        for k in 0..5000u64 {
            t.insert(k, k);
        }
        for k in 0..5000u64 {
            assert_eq!(t.get(k), Some(&k));
        }
        let lf = t.load_factor();
        assert!(lf > 0.4, "load factor {lf}");
    }
}
