//! Soak scenario: one long, seeded, mixed-life run of a single file —
//! growth, shrink, failures (single, double, parity), degraded reads,
//! recoveries, restarts, scans, availability upgrades — with full parity
//! verification after every phase. The kind of run a downstream adopter
//! would script before trusting the library.

use std::collections::HashMap;

use lhrs_core::{Config, Error, FilterSpec, LhrsFile, UpgradeMode};
use lhrs_lh::scramble;
use lhrs_sim::LatencyModel;

#[test]
fn long_mixed_lifecycle() {
    let mut file = LhrsFile::new(Config {
        group_size: 4,
        initial_k: 1,
        bucket_capacity: 16,
        record_len: 48,
        scale_thresholds: vec![12, 48],
        upgrade_mode: UpgradeMode::Eager,
        latency: LatencyModel::default(),
        node_pool: 2048,
        ..Config::default()
    })
    .unwrap();
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let val = |key: u64, gen: u64| format!("soak-{key}-{gen}").into_bytes();

    // Phase 1: growth through two availability-scaling thresholds.
    for key in 0..1200u64 {
        let k = scramble(key);
        file.insert(k, val(key, 0)).unwrap();
        model.insert(k, val(key, 0));
    }
    assert_eq!(file.k_file(), 3, "two thresholds crossed");
    file.verify_integrity().unwrap();

    // Phase 2: churn — updates, deletes, re-inserts.
    for key in (0..1200u64).step_by(2) {
        let k = scramble(key);
        file.update(k, val(key, 1)).unwrap();
        model.insert(k, val(key, 1));
    }
    for key in (0..1200u64).step_by(5) {
        let k = scramble(key);
        file.delete(k).unwrap();
        model.remove(&k);
    }
    for key in 1200..1500u64 {
        let k = scramble(key);
        file.insert(k, val(key, 2)).unwrap();
        model.insert(k, val(key, 2));
    }
    file.verify_integrity().unwrap();

    // Phase 3: failures in several groups, mixed shapes.
    let m_now = file.bucket_count();
    assert!(m_now >= 32);
    // 3a: single data bucket, healed by a degraded read.
    let victim = scramble(77);
    file.crash_data_bucket(file.address_of(victim));
    assert_eq!(
        file.lookup(victim).unwrap().as_ref(),
        model.get(&victim),
        "degraded read"
    );
    // 3b: triple failure in one group (k = 3 tolerates it).
    file.crash_data_bucket(8);
    file.crash_data_bucket(9);
    file.crash_parity_bucket(2, 1);
    let rep = file.check_group(2);
    assert!(rep.recovered, "{rep:?}");
    // 3c: parity-only failure elsewhere.
    file.crash_parity_bucket(5, 0);
    let rep = file.check_group(5);
    assert!(rep.recovered);
    file.verify_integrity().unwrap();

    // Phase 4: a restarted ghost node must demote itself.
    let bucket = file.address_of(scramble(300));
    file.crash_data_bucket(bucket);
    let _ = file.lookup(scramble(300)).unwrap(); // triggers rebuild elsewhere
    assert!(!file.restart_data_bucket(bucket), "ghost must retire");
    file.verify_integrity().unwrap();

    // Phase 5: shrink after a deletion wave, then regrow.
    for key in (0..1500u64).step_by(3) {
        let k = scramble(key);
        match file.delete(k) {
            Ok(()) => {
                model.remove(&k);
            }
            Err(Error::KeyNotFound(_)) => {}
            Err(e) => panic!("{e}"),
        }
    }
    for _ in 0..6 {
        assert!(file.force_merge());
    }
    file.verify_integrity().unwrap();
    for key in 2000..2400u64 {
        let k = scramble(key);
        file.insert(k, val(key, 3)).unwrap();
        model.insert(k, val(key, 3));
    }
    file.verify_integrity().unwrap();

    // Phase 6: full verification — every model record, a scan, a fresh
    // client, and the file-state drill.
    for (k, v) in &model {
        assert_eq!(file.lookup(*k).unwrap().as_ref(), Some(v), "key {k}");
    }
    let hits = file.scan(FilterSpec::All).unwrap();
    assert_eq!(hits.len(), model.len());
    let fresh = file.add_client();
    for (k, v) in model.iter().take(100) {
        assert_eq!(file.lookup_via(fresh, *k).unwrap().as_ref(), Some(v));
    }
    let (n, i) = file.drill_file_state_recovery();
    assert_eq!(n + (1 << i), file.bucket_count());

    // Phase 7: fault-injected churn. This file runs without write/parity
    // acks, so the plan stays loss-free (loss needs the acknowledged
    // retransmission paths — see crates/core/tests/fault_drills.rs);
    // duplication and reordering are absorbed by the completion records and the
    // per-column Δ sequencing alone.
    file.set_fault_plan(
        lhrs_core::FaultPlan::new(0x50AC)
            .dup_permille(60)
            .reorder_permille(80)
            .reorder_window_us(400),
    );
    for key in 3000..3200u64 {
        let k = scramble(key);
        file.insert(k, val(key, 4)).unwrap();
        model.insert(k, val(key, 4));
    }
    for key in (3000..3200u64).step_by(2) {
        let k = scramble(key);
        file.update(k, val(key, 5)).unwrap();
        model.insert(k, val(key, 5));
    }
    for key in (3000..3200u64).step_by(7) {
        let k = scramble(key);
        file.delete(k).unwrap();
        model.remove(&k);
    }
    let stats = file.stats();
    assert!(
        stats.counter("fault_duplicated", "") > 0,
        "duplication must actually fire"
    );
    assert!(
        stats.counter("fault_reordered", "") > 0,
        "reordering must actually fire"
    );
    file.clear_fault_plan();
    file.verify_integrity().unwrap();
    for (k, v) in &model {
        assert_eq!(file.lookup(*k).unwrap().as_ref(), Some(v), "key {k}");
    }

    // Sanity over the whole life: every failure we injected was detected
    // and every recovery completed.
    let metrics = file.metrics();
    let detected = metrics.counter_kind("events", "failure_detected");
    let recovered = metrics.counter("recoveries_completed");
    assert!(detected >= 4, "{detected} detections");
    assert_eq!(detected, recovered, "every detection must end in recovery");
    assert_eq!(
        metrics.counter("recoveries_failed"),
        0,
        "none unrecoverable"
    );
}
