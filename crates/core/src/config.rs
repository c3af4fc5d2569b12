//! File-level configuration.

use lhrs_gf::{GaloisField, Gf8};
use lhrs_sim::LatencyModel;

/// How existing bucket groups acquire additional parity buckets when the
/// scalable-availability rule raises the file's availability level `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeMode {
    /// Upgrade every existing group immediately when `k` increases.
    /// Predictable availability, bursty messaging.
    Eager,
    /// Upgrade a group the next time a split touches it (source or target
    /// in the group). Spreads the cost over normal growth; groups lag until
    /// touched.
    Lazy,
}

/// How scan completion is detected (§2.1 of the LH\* design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanTermination {
    /// Every reached bucket replies (with its number and level even when it
    /// has no hits); the client verifies it heard from *all* buckets of the
    /// file. Exact, costs ~2 messages per bucket.
    Deterministic,
    /// Only buckets with matching records reply; the client finishes after
    /// `silence_us` µs without a new reply. Costs M + hits messages but can
    /// in principle terminate early (hence "probabilistic").
    Probabilistic {
        /// Silence window that ends the scan.
        silence_us: u64,
    },
}

/// When the durable bucket store issues `fsync` on its write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every appended record. Safest, slowest.
    Always,
    /// Sync once per message batch (the default): an OS crash can lose the
    /// tail of the current batch, a process crash loses nothing.
    #[default]
    Batch,
    /// Never sync explicitly; leave flushing to the OS. Fastest, loses the
    /// page-cache tail on power failure — fine for experiments.
    Never,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        })
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy {other:?} (expected always|batch|never)"
            )),
        }
    }
}

/// Configuration of an LH\*RS file.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bucket-group size `m`: data buckets per group (the paper uses 4–128).
    pub group_size: usize,
    /// Initial availability level `k`: parity buckets per group (`k ≥ 1`).
    pub initial_k: usize,
    /// Data-bucket capacity `b`: records per bucket above which the bucket
    /// reports an overflow to the coordinator.
    pub bucket_capacity: usize,
    /// Maximum record payload length in bytes. Payloads are stored in
    /// fixed-size coding cells of `record_len + 4` bytes (4-byte length
    /// prefix), which is what the parity arithmetic runs over.
    pub record_len: usize,
    /// Scalable-availability thresholds: when the data-bucket count `M`
    /// first exceeds `thresholds[t]`, the file availability level becomes
    /// `initial_k + t + 1`. Empty = fixed `k` forever.
    pub scale_thresholds: Vec<u64>,
    /// How lagging groups catch up after a `k` increase.
    pub upgrade_mode: UpgradeMode,
    /// Whether parity buckets acknowledge Δ-commits (2-messages-per-parity
    /// reliable mode). The paper's base cost model is unacknowledged
    /// (1 + k messages per insert), the default here.
    pub ack_parity: bool,
    /// Whether data buckets acknowledge inserts/updates/deletes to the
    /// client. Required for client-side failure detection of blind writes;
    /// adds one message per operation. Lookups always get replies.
    pub ack_writes: bool,
    /// Scan termination protocol.
    pub scan_termination: ScanTermination,
    /// Client request timeout (µs) before reporting a suspected bucket
    /// failure to the coordinator.
    pub client_timeout_us: u64,
    /// Retransmissions a client attempts per operation (with exponential
    /// backoff, doubling from `client_timeout_us`) before escalating to the
    /// coordinator. Rides out message loss without involving the
    /// coordinator; 0 restores the escalate-immediately behaviour.
    pub client_retries: u32,
    /// Ceiling (µs) on the client's per-retry backoff delay.
    pub retry_backoff_cap_us: u64,
    /// Interval (µs) at which a data bucket retransmits unacknowledged
    /// Δ-commits to parity buckets. Only used when `ack_parity` is on;
    /// nothing is retransmitted (or even tracked) in the paper's
    /// fire-and-forget base mode.
    pub delta_retransmit_us: u64,
    /// Period (µs) of the coordinator's liveness questions: each round of
    /// a group check (opened by a client's `Suspect`) and of a Δ-suffix
    /// pull. A silent shard is declared dead `coord_retries + 1` periods
    /// after the check opens.
    pub probe_timeout_us: u64,
    /// Interval (µs) at which the coordinator retransmits unanswered
    /// recovery traffic (shard transfers, installs) and structural orders
    /// (splits, merges).
    pub coord_retransmit_us: u64,
    /// Retransmission rounds the coordinator attempts per exchange (group
    /// check, shard collection and install, degraded read, split, merge,
    /// file-state scan, suffix pull) before giving up.
    pub coord_retries: u32,
    /// Pipelined-client in-flight window: how many operations a batch
    /// driver (`KvClient::run_batch` over the multiplexed network client)
    /// keeps outstanding at once. 1 restores strict one-op-at-a-time
    /// behaviour; must be ≥ 1. Keep `clients × client_window` below
    /// [`crate::data_bucket::REPLAY_CACHE_CAP`] so a retried write still
    /// finds its first execution's result.
    pub client_window: usize,
    /// Snapshot interval for durable buckets: after this many write-ahead
    /// log appends since the last snapshot, a bucket writes a fresh
    /// snapshot and truncates its log. 0 disables periodic snapshots
    /// (structural events — splits, merges, installs — still snapshot).
    /// Ignored when no [`crate::storage::BucketStore`] is attached.
    pub wal_snapshot_every: u64,
    /// When the durable store fsyncs its write-ahead log.
    pub wal_fsync: FsyncPolicy,
    /// Network latency model for the simulated multicomputer.
    pub latency: LatencyModel,
    /// Total simulated server pool (data + parity + spares). The file
    /// cannot outgrow the pool; size it to the experiment.
    pub node_pool: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            group_size: 4,
            initial_k: 1,
            bucket_capacity: 32,
            record_len: 64,
            scale_thresholds: Vec::new(),
            upgrade_mode: UpgradeMode::Eager,
            ack_parity: false,
            ack_writes: false,
            scan_termination: ScanTermination::Deterministic,
            client_timeout_us: 10_000,
            client_retries: 3,
            retry_backoff_cap_us: 160_000,
            delta_retransmit_us: 8_000,
            probe_timeout_us: 5_000,
            coord_retransmit_us: 8_000,
            coord_retries: 10,
            client_window: 64,
            wal_snapshot_every: 1024,
            wal_fsync: FsyncPolicy::default(),
            latency: LatencyModel::default(),
            node_pool: 512,
        }
    }
}

impl Config {
    /// Validate parameter sanity. One rule set for every way a file is
    /// configured: [`crate::LhrsFile::new`] and a networked deployment's
    /// `cluster.conf` both call it.
    ///
    /// # Errors
    /// [`crate::Error::InvalidConfig`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), crate::Error> {
        if self.group_size == 0
            || self.initial_k == 0
            || self.bucket_capacity == 0
            || self.record_len == 0
        {
            return Err(crate::Error::InvalidConfig(
                "group_size, initial_k, bucket_capacity, record_len must all be ≥ 1".into(),
            ));
        }
        if self.record_len > MAX_RECORD_LEN {
            return Err(crate::Error::InvalidConfig(format!(
                "record_len must be ≤ {MAX_RECORD_LEN} (got {})",
                self.record_len
            )));
        }
        let shards = self
            .group_size
            .saturating_add(self.initial_k)
            .saturating_add(self.scale_thresholds.len());
        if shards > MAX_SHARDS {
            return Err(crate::Error::InvalidConfig(format!(
                "m + k_max = {shards} exceeds the {MAX_SHARDS} points of {}",
                Gf8::NAME
            )));
        }
        if self.delta_retransmit_us == 0
            || self.coord_retransmit_us == 0
            || self.probe_timeout_us == 0
            || self.client_timeout_us == 0
        {
            return Err(crate::Error::InvalidConfig(
                "delta_retransmit_us, coord_retransmit_us, probe_timeout_us and \
                 client_timeout_us must be ≥ 1 µs"
                    .into(),
            ));
        }
        if self.client_window == 0 {
            return Err(crate::Error::InvalidConfig(
                "client_window must be ≥ 1".into(),
            ));
        }
        if self.retry_backoff_cap_us < self.client_timeout_us {
            return Err(crate::Error::InvalidConfig(
                "retry_backoff_cap_us must be at least client_timeout_us".into(),
            ));
        }
        if !self.scale_thresholds.windows(2).all(|w| w[0] < w[1]) {
            return Err(crate::Error::InvalidConfig(
                "scale_thresholds must be strictly increasing".into(),
            ));
        }
        if self.node_pool < 2 + self.group_size + self.initial_k {
            return Err(crate::Error::InvalidConfig(
                "node_pool too small for even the initial file".into(),
            ));
        }
        Ok(())
    }

    /// The fixed coding-cell length: payload length prefix plus padded
    /// payload.
    pub(crate) fn cell_len(&self) -> usize {
        4 + self.record_len
    }
}

/// Upper bound on `m + k_max`: the Cauchy construction needs that many
/// distinct points of GF(2^8).
const MAX_SHARDS: usize = Gf8::ORDER as usize;

/// Upper bound on [`Config::record_len`] accepted by [`Config::validate`]:
/// a whole bucket's shard transfer of maximal records must still fit a
/// network frame with room to spare.
pub const MAX_RECORD_LEN: usize = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(Config::default().validate().is_ok());
    }

    #[test]
    fn zero_parameters_rejected() {
        for f in [
            |c: &mut Config| c.group_size = 0,
            |c: &mut Config| c.initial_k = 0,
            |c: &mut Config| c.bucket_capacity = 0,
            |c: &mut Config| c.record_len = 0,
            |c: &mut Config| c.probe_timeout_us = 0,
            |c: &mut Config| c.client_timeout_us = 0,
        ] {
            let mut c = Config::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn field_shard_limits_enforced() {
        let c = Config {
            group_size: 250,
            initial_k: 10,
            node_pool: 4096,
            ..Config::default()
        };
        assert!(c.validate().is_err(), "m + k > 256 invalid under GF(2^8)");
        let c = Config {
            group_size: 250,
            initial_k: 6,
            node_pool: 4096,
            ..Config::default()
        };
        assert!(c.validate().is_ok(), "m + k = 256 fits GF(2^8)");
    }

    #[test]
    fn thresholds_must_increase() {
        let c = Config {
            scale_thresholds: vec![16, 16],
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn fsync_policy_round_trips_through_strings() {
        for p in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            assert_eq!(p.to_string().parse::<FsyncPolicy>(), Ok(p));
        }
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn zero_client_window_rejected() {
        let c = Config {
            client_window: 0,
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }
}
