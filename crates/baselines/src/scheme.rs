//! The uniform [`Scheme`] interface the benchmark harness drives, and the
//! adapter wrapping `lhrs-core`.

use lhrs_core::{Config, LhrsFile};
use lhrs_obs::Snapshot;

/// Uniform interface over every scheme in the comparison (T7).
pub trait Scheme {
    /// Scheme name for report rows.
    fn name(&self) -> &'static str;

    /// Insert a record (panics on duplicate key — the comparison workloads
    /// never produce one).
    fn insert(&mut self, key: u64, payload: Vec<u8>);

    /// Key search.
    fn lookup(&mut self, key: u64) -> Option<Vec<u8>>;

    /// Every counter so far: messages by kind, bytes, fault outcomes.
    fn stats(&self) -> Snapshot;

    /// Logical data buckets `M`.
    fn data_buckets(&self) -> u64;

    /// Total servers consumed (buckets of every replica / parity).
    fn total_servers(&self) -> u64;

    /// `(application payload bytes, redundancy bytes)` stored.
    fn storage_bytes(&self) -> (u64, u64);

    /// Analytic probability that all data survives, with per-bucket
    /// availability `p`.
    fn availability(&self, p: f64) -> f64;

    /// How many arbitrary bucket losses the scheme always tolerates.
    fn tolerates(&self) -> usize;
}

/// Adapter presenting `lhrs-core` (at any `k`) through the [`Scheme`]
/// interface. `k = 1` is the LH\*g-equivalent XOR configuration.
pub struct LhrsScheme {
    file: LhrsFile,
    name: &'static str,
}

impl LhrsScheme {
    /// Wrap a file built from `cfg` under a display name.
    pub fn new(name: &'static str, cfg: Config) -> Self {
        LhrsScheme {
            file: LhrsFile::new(cfg).expect("valid config"),
            name,
        }
    }

    /// Access the wrapped file.
    pub fn file_mut(&mut self) -> &mut LhrsFile {
        &mut self.file
    }
}

impl Scheme for LhrsScheme {
    fn name(&self) -> &'static str {
        self.name
    }

    fn insert(&mut self, key: u64, payload: Vec<u8>) {
        self.file.insert(key, payload).expect("insert");
    }

    fn lookup(&mut self, key: u64) -> Option<Vec<u8>> {
        self.file.lookup(key).expect("lookup")
    }

    fn stats(&self) -> Snapshot {
        self.file.stats()
    }

    fn data_buckets(&self) -> u64 {
        self.file.bucket_count()
    }

    fn total_servers(&self) -> u64 {
        let r = self.file.storage_report();
        (r.data_buckets + r.parity_buckets) as u64
    }

    fn storage_bytes(&self) -> (u64, u64) {
        let r = self.file.storage_report();
        (r.data_bytes as u64, r.parity_bytes as u64)
    }

    fn availability(&self, p: f64) -> f64 {
        lhrs_core::availability::file_availability(
            self.file.bucket_count(),
            self.file.config().group_size,
            self.file.config().initial_k,
            p,
        )
    }

    fn tolerates(&self) -> usize {
        self.file.config().initial_k
    }
}
