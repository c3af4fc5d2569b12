//! Edge cases and unusual configurations: degenerate group sizes, extreme
//! keys and payloads, acknowledged-parity mode, pool exhaustion handling,
//! and bit-for-bit determinism of whole runs.

use lhrs_core::{Config, Error, FilterSpec, LhrsFile};
use lhrs_sim::LatencyModel;

fn base() -> Config {
    Config {
        group_size: 4,
        initial_k: 2,
        bucket_capacity: 8,
        record_len: 32,
        latency: LatencyModel::instant(),
        node_pool: 512,
        ..Config::default()
    }
}

#[test]
fn group_size_one_behaves_like_per_bucket_replication() {
    // m = 1: every bucket is its own group with k dedicated parity buckets
    // (RS over a single data shard degenerates to k copies' worth of
    // redundancy — structurally closest to mirroring).
    let mut cfg = base();
    cfg.group_size = 1;
    cfg.initial_k = 1;
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..200u64 {
        file.insert(key, vec![key as u8; 16]).unwrap();
    }
    file.verify_integrity().unwrap();
    let r = file.storage_report();
    assert_eq!(
        r.parity_buckets, r.data_buckets,
        "one parity bucket per data bucket"
    );
    // Failure of any single bucket recoverable.
    let mut cfg2 = file.config().clone();
    cfg2.latency = LatencyModel::default();
    file.crash_data_bucket(3);
    let rep = file.check_group(3); // group == bucket when m = 1
    assert!(rep.recovered);
    file.verify_integrity().unwrap();
}

#[test]
fn large_group_small_file() {
    // m = 64 while the file has only a handful of buckets: most columns
    // are non-existent (implicit zero shards).
    let mut cfg = base();
    cfg.group_size = 64;
    cfg.initial_k = 2;
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..120u64 {
        file.insert(key, vec![7u8; 20]).unwrap();
    }
    assert!(
        file.bucket_count() < 64,
        "file must not have filled group 0"
    );
    file.verify_integrity().unwrap();
    // Two failures still recoverable from mostly-phantom columns.
    file.crash_data_bucket(0);
    file.crash_data_bucket(1);
    let rep = file.check_group(0);
    assert!(rep.recovered, "{rep:?}");
    for key in 0..120u64 {
        assert_eq!(file.lookup(key).unwrap().unwrap(), vec![7u8; 20]);
    }
}

#[test]
fn extreme_keys_and_payload_sizes() {
    let mut file = LhrsFile::new(base()).unwrap();
    // Empty payload, max-length payload, extreme key values.
    file.insert(0, Vec::new()).unwrap();
    file.insert(u64::MAX, vec![0xFF; 32]).unwrap();
    file.insert(1, vec![0xAB; 32]).unwrap();
    assert_eq!(file.lookup(0).unwrap().unwrap(), Vec::<u8>::new());
    assert_eq!(file.lookup(u64::MAX).unwrap().unwrap(), vec![0xFF; 32]);
    // Over-length payload rejected before touching the network.
    let before = file.stats();
    assert!(matches!(
        file.insert(2, vec![0u8; 33]),
        Err(Error::PayloadTooLarge { got: 33, max: 32 })
    ));
    assert_eq!(file.stats().since(&before).total_messages(), 0);
    file.verify_integrity().unwrap();
}

#[test]
fn empty_payload_records_survive_recovery() {
    // Zero-length payloads produce all-zero cells; membership is tracked
    // by key lists, so they must survive a rebuild.
    let mut cfg = base();
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..80u64 {
        file.insert(key, Vec::new()).unwrap();
    }
    file.crash_data_bucket(file.address_of(17));
    assert_eq!(file.lookup(17).unwrap().unwrap(), Vec::<u8>::new());
    file.verify_integrity().unwrap();
    let r = file.storage_report();
    assert_eq!(r.data_records, 80);
}

#[test]
fn acked_parity_mode_roundtrip() {
    let mut cfg = base();
    cfg.ack_parity = true;
    cfg.ack_writes = true;
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..300u64 {
        file.insert(key, vec![key as u8; 24]).unwrap();
    }
    file.verify_integrity().unwrap();
    // Cost check: 1 + 2k + 1(write ack) per steady insert.
    let cost = file.cost_of(|f| {
        for key in 10_000..10_020u64 {
            f.insert(key, vec![1u8; 24]).unwrap();
        }
    });
    let structural: u64 = [
        "overflow",
        "split",
        "split-load",
        "split-done",
        "init-data",
        "init-parity",
        "parity-batch",
    ]
    .iter()
    .map(|k| cost.count(k))
    .sum();
    let per_op = (cost.total_messages() - structural) as f64 / 20.0;
    assert!(
        (6.0..=6.6).contains(&per_op),
        "acked insert should cost 1 + 2k + ack = 6, got {per_op}"
    );
}

#[test]
fn identical_runs_are_bit_identical() {
    fn run() -> (u64, u64, Vec<(u64, Vec<u8>)>) {
        let mut cfg = base();
        cfg.latency = LatencyModel::default(); // jitter included
        let mut file = LhrsFile::new(cfg).unwrap();
        for key in 0..400u64 {
            file.insert(lhrs_lh::scramble(key), vec![(key % 256) as u8; 16])
                .unwrap();
        }
        file.crash_data_bucket(5);
        // Read a key that lives in the crashed bucket so the degraded path
        // plus rebuild run before the scan.
        let victim = (0..400u64)
            .map(lhrs_lh::scramble)
            .find(|&k| file.address_of(k) == 5)
            .expect("some key lives in bucket 5");
        let _ = file.lookup(victim).unwrap();
        let hits = file.scan(FilterSpec::KeyRange(0, u64::MAX / 7)).unwrap();
        (file.stats().total_messages(), file.now_us(), hits)
    }
    assert_eq!(run(), run());
}

#[test]
fn small_pool_is_rejected_up_front() {
    let mut cfg = base();
    cfg.node_pool = 3; // cannot even host coordinator+client+bucket+parity
    assert!(matches!(LhrsFile::new(cfg), Err(Error::InvalidConfig(_))));
}

/// Overflow reports that arrive while the coordinator is busy are owed as
/// deferred splits. Once the pool cannot fund them they must be dropped,
/// not left owed with nothing in flight: an owed split keeps the
/// coordinator busy for good, which refuses every merge — the one
/// operation that could refill the pool.
#[test]
fn unfundable_deferred_splits_do_not_block_merges() {
    for node_pool in 7..=11 {
        let mut cfg = base();
        cfg.initial_k = 1;
        cfg.latency = LatencyModel::default();
        cfg.node_pool = node_pool;
        let mut file = LhrsFile::new(cfg).unwrap();
        let keys = (0..400u64).map(|k| (lhrs_lh::scramble(k), vec![1u8; 8]));
        file.insert_batch(keys).unwrap();
        assert!(file.force_merge(), "node_pool {node_pool}");
    }
}

#[test]
fn duplicate_key_after_recovery_still_detected() {
    let mut cfg = base();
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..200u64 {
        file.insert(key, vec![1u8; 8]).unwrap();
    }
    let bucket = file.address_of(50);
    file.crash_data_bucket(bucket);
    let rep = file.check_group(bucket / 4);
    assert!(rep.recovered);
    // The rebuilt bucket still knows key 50 exists.
    assert_eq!(file.insert(50, vec![2u8; 8]), Err(Error::DuplicateKey(50)));
    assert_eq!(file.lookup(50).unwrap().unwrap(), vec![1u8; 8]);
}

#[test]
fn rank_counter_survives_recovery() {
    // After a rebuild, the recovered bucket's insert counter must not
    // collide with ranks already used by pre-crash records.
    let mut cfg = base();
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..200u64 {
        file.insert(key, vec![3u8; 8]).unwrap();
    }
    let bucket = file.address_of(10);
    file.crash_data_bucket(bucket);
    let rep = file.check_group(bucket / 4);
    assert!(rep.recovered);
    // Insert more records that land in the recovered bucket; parity must
    // stay consistent (a rank collision would corrupt a parity record).
    for key in 200..600u64 {
        file.insert(key, vec![4u8; 8]).unwrap();
    }
    file.verify_integrity().unwrap();
}
