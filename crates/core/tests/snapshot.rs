//! Logical snapshots: export every record, rebuild a file — possibly under
//! different (m, k) — and round-trip exactly.

use lhrs_core::{Config, Error, FilterSpec, LhrsFile};
use lhrs_sim::LatencyModel;

fn cfg(m: usize, k: usize) -> Config {
    Config {
        group_size: m,
        initial_k: k,
        bucket_capacity: 8,
        record_len: 32,
        latency: LatencyModel::instant(),
        node_pool: 1024,
        ..Config::default()
    }
}

#[test]
fn snapshot_roundtrip_same_config() {
    let mut file = LhrsFile::new(cfg(4, 2)).unwrap();
    for key in 0..400u64 {
        file.insert(lhrs_lh::scramble(key), format!("snap-{key}").into_bytes())
            .unwrap();
    }
    let bytes = file.export_snapshot();
    let mut restored = LhrsFile::import_snapshot(cfg(4, 2), &bytes).unwrap();
    restored.verify_integrity().unwrap();
    for key in 0..400u64 {
        assert_eq!(
            restored.lookup(lhrs_lh::scramble(key)).unwrap().unwrap(),
            format!("snap-{key}").into_bytes()
        );
    }
    assert_eq!(restored.scan(FilterSpec::All).unwrap().len(), 400);
}

#[test]
fn snapshot_migrates_across_configurations() {
    // Export from (m=4, k=1) and import into (m=8, k=3): the paper's
    // "add/retune availability without reorganising" use case.
    let mut file = LhrsFile::new(cfg(4, 1)).unwrap();
    for key in 0..300u64 {
        file.insert(key, vec![(key % 251) as u8; 20]).unwrap();
    }
    let bytes = file.export_snapshot();
    let mut restored = LhrsFile::import_snapshot(cfg(8, 3), &bytes).unwrap();
    restored.verify_integrity().unwrap();
    assert_eq!(restored.k_file(), 3);
    for key in 0..300u64 {
        assert_eq!(
            restored.lookup(key).unwrap().unwrap(),
            vec![(key % 251) as u8; 20]
        );
    }
    // And the restored file survives its k-level of failures.
    let mut c2 = restored.config().clone();
    c2.latency = LatencyModel::default();
    restored.crash_data_bucket(0);
    restored.crash_data_bucket(1);
    let rep = restored.check_group(0);
    assert!(rep.recovered, "{rep:?}");
}

#[test]
fn snapshot_of_empty_file() {
    let file = LhrsFile::new(cfg(4, 1)).unwrap();
    let bytes = file.export_snapshot();
    let restored = LhrsFile::import_snapshot(cfg(4, 1), &bytes).unwrap();
    assert_eq!(restored.storage_report().data_records, 0);
}

#[test]
fn malformed_snapshots_rejected() {
    assert!(matches!(
        LhrsFile::import_snapshot(cfg(4, 1), b"garbage"),
        Err(Error::InvalidConfig(_))
    ));
    // Truncated payload.
    let mut file = LhrsFile::new(cfg(4, 1)).unwrap();
    file.insert(1, vec![9u8; 16]).unwrap();
    let mut bytes = file.export_snapshot();
    bytes.truncate(bytes.len() - 3);
    assert!(matches!(
        LhrsFile::import_snapshot(cfg(4, 1), &bytes),
        Err(Error::InvalidConfig(_))
    ));
    // Trailing junk.
    let mut bytes = file.export_snapshot();
    bytes.push(0);
    assert!(LhrsFile::import_snapshot(cfg(4, 1), &bytes).is_err());
}

#[test]
fn hostile_record_count_is_an_error_not_a_panic() {
    // A count the input cannot possibly hold must be rejected before any
    // allocation is sized by it.
    for count in [u64::MAX, 1 << 40, 2] {
        let mut bytes = b"LHRS1".to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            LhrsFile::import_snapshot(cfg(4, 1), &bytes),
            Err(Error::InvalidConfig(_))
        ));
    }
}

#[test]
fn snapshot_is_deterministic_and_sorted() {
    let mut a = LhrsFile::new(cfg(4, 2)).unwrap();
    let mut b = LhrsFile::new(cfg(2, 1)).unwrap();
    // Insert the same set in different orders into different layouts.
    for key in 0..200u64 {
        a.insert(key, vec![key as u8; 8]).unwrap();
    }
    for key in (0..200u64).rev() {
        b.insert(key, vec![key as u8; 8]).unwrap();
    }
    assert_eq!(
        a.export_snapshot(),
        b.export_snapshot(),
        "snapshots are canonical: sorted by key, layout-independent"
    );
}
