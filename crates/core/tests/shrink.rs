//! File shrinking through bucket merges (§4.3 design variation): the exact
//! inverse of splitting, with parity retraction/re-enrolment, node
//! decommissioning, and client-image coarsening.

use lhrs_core::{Config, FilterSpec, LhrsFile};
use lhrs_obs::Event;
use lhrs_sim::LatencyModel;

fn cfg() -> Config {
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

fn payload(key: u64) -> Vec<u8> {
    format!("m{key}").into_bytes()
}

#[test]
fn merge_undoes_one_split() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..200u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let m_before = file.bucket_count();
    assert!(file.force_merge());
    assert_eq!(file.bucket_count(), m_before - 1);
    let merged = file
        .events()
        .iter()
        .any(|e| matches!(e.event, Event::MergeDone { .. }));
    assert!(merged);
    file.verify_integrity().unwrap();
    for key in 0..200u64 {
        assert_eq!(
            file.lookup(key).unwrap().unwrap(),
            payload(key),
            "key {key}"
        );
    }
}

#[test]
fn shrink_all_the_way_to_one_bucket() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..150u64 {
        file.insert(key, payload(key)).unwrap();
    }
    // Delete most records, then shrink repeatedly.
    for key in 30..150u64 {
        file.delete(key).unwrap();
    }
    while file.force_merge() {}
    assert_eq!(file.bucket_count(), 1);
    assert!(!file.force_merge(), "cannot shrink below one bucket");
    file.verify_integrity().unwrap();
    for key in 0..30u64 {
        assert_eq!(file.lookup(key).unwrap().unwrap(), payload(key));
    }
    for key in 30..150u64 {
        assert_eq!(file.lookup(key).unwrap(), None);
    }
    // All records are back in bucket 0; parity groups beyond group 0 were
    // decommissioned.
    assert_eq!(file.group_count(), 1);
    let r = file.storage_report();
    assert_eq!(r.data_buckets, 1);
    assert_eq!(r.parity_buckets, 2);
}

#[test]
fn stale_ahead_client_coarsens_its_image() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..300u64 {
        file.insert(key, payload(key)).unwrap();
    }
    // Warm the default client's image to the full size.
    for key in 0..50u64 {
        file.lookup(key).unwrap();
    }
    let (_, _) = file.client_image(0);
    // Shrink by several buckets; the client's image is now AHEAD.
    for _ in 0..5 {
        assert!(file.force_merge());
    }
    // Lookups still work: the client coarsens its image via the allocation
    // table instead of addressing ghosts.
    for key in 0..300u64 {
        assert_eq!(
            file.lookup(key).unwrap().unwrap(),
            payload(key),
            "key {key}"
        );
    }
    // Scans too.
    let hits = file.scan(FilterSpec::All).unwrap();
    assert_eq!(hits.len(), 300);
    file.verify_integrity().unwrap();
}

#[test]
fn shrink_then_regrow_reuses_pool_nodes() {
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..400u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let m_big = file.bucket_count();
    for _ in 0..6 {
        assert!(file.force_merge());
    }
    // Regrow past the original size: the retired nodes must serve again.
    for key in 400..900u64 {
        file.insert(key, payload(key)).unwrap();
    }
    assert!(file.bucket_count() >= m_big);
    file.verify_integrity().unwrap();
    for key in 0..900u64 {
        assert_eq!(
            file.lookup(key).unwrap().unwrap(),
            payload(key),
            "key {key}"
        );
    }
}

#[test]
fn merge_interleaved_with_failures() {
    let mut c = cfg();
    c.latency = LatencyModel::default();
    let mut file = LhrsFile::new(c).unwrap();
    for key in 0..300u64 {
        file.insert(key, payload(key)).unwrap();
    }
    assert!(file.force_merge());
    // Crash a bucket after the merge and recover.
    file.crash_data_bucket(2);
    let rep = file.check_group(0);
    assert!(rep.recovered, "{rep:?}");
    file.verify_integrity().unwrap();
    // Merge again after the recovery.
    assert!(file.force_merge());
    file.verify_integrity().unwrap();
    for key in 0..300u64 {
        assert_eq!(file.lookup(key).unwrap().unwrap(), payload(key));
    }
}
