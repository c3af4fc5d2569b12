//! End-to-end scenarios for LH*RS over the simulated multicomputer:
//! growth, addressing, parity consistency, failures, degraded reads,
//! multi-bucket recovery, scalable availability, and the drills.

use lhrs_core::{Config, Error, FilterSpec, LhrsFile, UpgradeMode};
use lhrs_obs::Event;
use lhrs_sim::LatencyModel;

fn small_cfg() -> Config {
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
    format!("payload-{key:08}").into_bytes()
}

#[test]
fn insert_lookup_roundtrip_small() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    for key in 0..50u64 {
        file.insert(key, payload(key)).unwrap();
    }
    for key in 0..50u64 {
        assert_eq!(file.lookup(key).unwrap().unwrap(), payload(key));
    }
    assert_eq!(file.lookup(9999).unwrap(), None);
    file.verify_integrity().unwrap();
}

#[test]
fn file_scales_through_many_splits() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    for key in 0..2000u64 {
        file.insert(lhrs_lh::scramble(key), payload(key)).unwrap();
    }
    assert!(file.bucket_count() > 100, "M = {}", file.bucket_count());
    assert!(file.group_count() >= 25);
    for key in 0..2000u64 {
        assert_eq!(
            file.lookup(lhrs_lh::scramble(key)).unwrap().unwrap(),
            payload(key),
            "key {key}"
        );
    }
    file.verify_integrity().unwrap();

    let report = file.storage_report();
    assert_eq!(report.data_records, 2000);
    // Storage overhead ≈ k/m = 0.5 for m=4, k=2.
    assert!(
        (0.4..=0.75).contains(&report.storage_overhead),
        "overhead {}",
        report.storage_overhead
    );
    // Uncontrolled splitting keeps load factor near the canonical ~0.7.
    assert!(
        (0.4..=0.95).contains(&report.load_factor),
        "load {}",
        report.load_factor
    );
}

#[test]
fn duplicate_insert_rejected() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    file.insert(7, b"a".to_vec()).unwrap();
    assert_eq!(file.insert(7, b"b".to_vec()), Err(Error::DuplicateKey(7)));
    assert_eq!(file.lookup(7).unwrap().unwrap(), b"a");
}

#[test]
fn update_and_delete_maintain_parity() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    for key in 0..200u64 {
        file.insert(key, payload(key)).unwrap();
    }
    for key in (0..200u64).step_by(3) {
        file.update(key, format!("updated-{key}").into_bytes())
            .unwrap();
    }
    for key in (0..200u64).step_by(5) {
        // Keys divisible by 15 were updated then deleted.
        file.delete(key).unwrap();
    }
    file.verify_integrity().unwrap();
    assert_eq!(file.lookup(3).unwrap().unwrap(), b"updated-3");
    assert_eq!(file.lookup(5).unwrap(), None);
    assert_eq!(file.lookup(15).unwrap(), None);
    assert_eq!(file.update(5, b"x".to_vec()), Err(Error::KeyNotFound(5)));
    assert_eq!(file.delete(5), Err(Error::KeyNotFound(5)));
}

#[test]
fn rank_reuse_after_delete() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    for key in 0..20u64 {
        file.insert(key, payload(key)).unwrap();
    }
    for key in 0..20u64 {
        file.delete(key).unwrap();
    }
    for key in 100..120u64 {
        file.insert(key, payload(key)).unwrap();
    }
    file.verify_integrity().unwrap();
    let report = file.storage_report();
    assert_eq!(report.data_records, 20);
}

#[test]
fn scan_returns_all_matching_records() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    for key in 0..300u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let all = file.scan(FilterSpec::All).unwrap();
    assert_eq!(all.len(), 300);
    // Sorted by key and exact.
    for (i, (k, v)) in all.iter().enumerate() {
        assert_eq!(*k, i as u64);
        assert_eq!(v, &payload(i as u64));
    }
    let range = file.scan(FilterSpec::KeyRange(100, 110)).unwrap();
    assert_eq!(range.len(), 10);
    let contains = file
        .scan(FilterSpec::PayloadContains(b"payload-00000042".to_vec()))
        .unwrap();
    assert_eq!(contains.len(), 1);
    assert_eq!(contains[0].0, 42);
}

#[test]
fn scan_from_stale_client_covers_every_bucket() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    for key in 0..500u64 {
        file.insert(lhrs_lh::scramble(key), payload(key)).unwrap();
    }
    // A brand-new client with a one-bucket image scans the whole file via
    // server-side propagation.
    let fresh = file.add_client();
    let hits = file.scan_via(fresh, FilterSpec::All).unwrap();
    assert_eq!(hits.len(), 500);
}

#[test]
fn lookup_through_failed_bucket_served_degraded_and_recovered() {
    let mut cfg = small_cfg();
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..400u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let victim_key = 123u64;
    let bucket = file.address_of(victim_key);
    file.crash_data_bucket(bucket);

    // The lookup must still succeed (timeout → coordinator → degraded
    // read), and the bucket must be rebuilt onto a spare.
    assert_eq!(
        file.lookup(victim_key).unwrap().unwrap(),
        payload(victim_key)
    );
    let recovered = file
        .events()
        .iter()
        .any(|e| matches!(e.event, Event::RecoveryEnd { ok: true, .. }));
    assert!(recovered, "bucket was not rebuilt: {:?}", file.events());

    // After recovery everything is intact, including the failed bucket's
    // other records.
    file.verify_integrity().unwrap();
    for key in 0..400u64 {
        assert_eq!(
            file.lookup(key).unwrap().unwrap(),
            payload(key),
            "key {key}"
        );
    }
}

#[test]
fn degraded_lookup_of_absent_key_is_unsuccessful_search() {
    let mut cfg = small_cfg();
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..100u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let missing_key = 100_000u64;
    let bucket = file.address_of(missing_key);
    file.crash_data_bucket(bucket);
    assert_eq!(file.lookup(missing_key).unwrap(), None);
}

#[test]
fn double_failure_recovered_with_k2() {
    let mut cfg = small_cfg();
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..600u64 {
        file.insert(key, payload(key)).unwrap();
    }
    // Kill two data buckets of the same group (k = 2 tolerates it).
    let group = 1u64;
    file.crash_data_bucket(group * 4);
    file.crash_data_bucket(group * 4 + 1);
    let report = file.check_group(group);
    assert_eq!(report.failed_shards, vec![0, 1]);
    assert!(report.recovered, "{report:?}");
    file.verify_integrity().unwrap();
    for key in 0..600u64 {
        assert_eq!(
            file.lookup(key).unwrap().unwrap(),
            payload(key),
            "key {key}"
        );
    }
}

#[test]
fn mixed_data_and_parity_failure_recovered() {
    let mut cfg = small_cfg();
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..600u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let group = 2u64;
    file.crash_data_bucket(group * 4 + 2);
    file.crash_parity_bucket(group, 1);
    let report = file.check_group(group);
    assert_eq!(report.failed_shards, vec![2, 4 + 1]);
    assert!(report.recovered);
    file.verify_integrity().unwrap();
}

#[test]
fn parity_only_failure_recovered() {
    let mut cfg = small_cfg();
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..300u64 {
        file.insert(key, payload(key)).unwrap();
    }
    file.crash_parity_bucket(0, 0);
    file.crash_parity_bucket(0, 1);
    let report = file.check_group(0);
    assert_eq!(report.failed_shards, vec![4, 5]);
    assert!(report.recovered);
    file.verify_integrity().unwrap();
}

#[test]
fn over_tolerance_failure_is_unrecoverable() {
    let mut cfg = small_cfg();
    cfg.initial_k = 1;
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..400u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let group = 1u64;
    file.crash_data_bucket(group * 4);
    file.crash_data_bucket(group * 4 + 1);
    let report = file.check_group(group);
    assert_eq!(report.failed_shards.len(), 2);
    assert!(report.unrecoverable);
    assert!(!report.recovered);
}

#[test]
fn reads_in_a_dead_group_fail_cleanly() {
    // Beyond-tolerance loss: subsequent operations on that group's keys
    // return a clean error rather than hanging or panicking.
    let mut cfg = small_cfg();
    cfg.initial_k = 1;
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..400u64 {
        file.insert(key, payload(key)).unwrap();
    }
    file.crash_data_bucket(4);
    file.crash_data_bucket(5);
    let report = file.check_group(1);
    assert!(report.unrecoverable);
    // A key whose bucket is in the dead group:
    let dead_key = (0..400u64)
        .find(|&k| (4..8).contains(&file.address_of(k)) && file.address_of(k) < 6)
        .expect("some key lives in a dead bucket");
    assert!(file.lookup(dead_key).is_err(), "dead-group read must error");
    // Keys in healthy groups are unaffected.
    let live_key = (0..400u64)
        .find(|&k| !(4..8).contains(&file.address_of(k)))
        .unwrap();
    assert_eq!(file.lookup(live_key).unwrap().unwrap(), payload(live_key));
}

#[test]
fn writes_to_failed_bucket_complete_after_recovery() {
    let mut cfg = small_cfg();
    cfg.ack_writes = true; // failure detection needs write acks
    cfg.latency = LatencyModel::default();
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..300u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let key = 42u64;
    let bucket = file.address_of(key);
    file.crash_data_bucket(bucket);
    // The update stalls, escalates, waits for recovery, then lands.
    file.update(key, b"after-recovery".to_vec()).unwrap();
    file.verify_integrity().unwrap();
    assert_eq!(file.lookup(key).unwrap().unwrap(), b"after-recovery");
}

#[test]
fn scalable_availability_eager_upgrades_groups() {
    let mut cfg = small_cfg();
    cfg.initial_k = 1;
    cfg.scale_thresholds = vec![8, 32];
    cfg.upgrade_mode = UpgradeMode::Eager;
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..1500u64 {
        file.insert(lhrs_lh::scramble(key), payload(key)).unwrap();
    }
    assert!(file.bucket_count() > 32);
    assert_eq!(file.k_file(), 3);
    // Eager mode: every group is at k_file.
    for g in 0..file.group_count() as u64 {
        assert_eq!(file.group_k(g), 3, "group {g} lagging");
    }
    file.verify_integrity().unwrap();
    // The trace tells the same story: one SplitStart per bucket beyond the
    // first, one KRaised per threshold, and group 0 upgraded up to k = 3.
    let events = |kind| file.metrics().counter_kind("events", kind);
    assert_eq!(events("split_start"), file.bucket_count() - 1);
    assert_eq!(events("k_raised"), 2);
    assert_eq!(
        events("group_upgraded"),
        file.metrics().counter("group_upgrades")
    );
    // The ring kept the whole run, so the one upgrade of group 0 to k = 3
    // is in it exactly once.
    assert_eq!(file.metrics().trace_log().unwrap().dropped(), 0);
    let to_k3 = file
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::GroupUpgraded { group: 0, k: 3 }))
        .count();
    assert_eq!(to_k3, 1);
    // And the extra parity actually works: kill 3 shards of group 0.
    let mut cfg2 = file.config().clone();
    cfg2.latency = LatencyModel::default();
    file.crash_data_bucket(0);
    file.crash_data_bucket(1);
    file.crash_parity_bucket(0, 2);
    let report = file.check_group(0);
    assert!(report.recovered, "{report:?}");
    file.verify_integrity().unwrap();
}

#[test]
fn scalable_availability_lazy_upgrades_on_touch() {
    let mut cfg = small_cfg();
    cfg.initial_k = 1;
    cfg.scale_thresholds = vec![8];
    cfg.upgrade_mode = UpgradeMode::Lazy;
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..2000u64 {
        file.insert(lhrs_lh::scramble(key), payload(key)).unwrap();
    }
    assert_eq!(file.k_file(), 2);
    // Groups recently touched by splits are upgraded; verify at least that
    // integrity holds everywhere and at least one group reached k = 2.
    assert!((0..file.group_count() as u64).any(|g| file.group_k(g) == 2));
    file.verify_integrity().unwrap();
}

#[test]
fn file_state_recovery_drill() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    for key in 0..700u64 {
        file.insert(lhrs_lh::scramble(key), payload(key)).unwrap();
    }
    let m = file.bucket_count();
    let (n, i) = file.drill_file_state_recovery();
    assert_eq!(n + (1u64 << i), m, "recovered state inconsistent with M");
    assert_eq!(
        file.events().last().map(|e| &e.event),
        Some(&Event::StateRecovered { n, i })
    );
    // File still fully operational afterwards.
    assert_eq!(
        file.lookup(lhrs_lh::scramble(3)).unwrap().unwrap(),
        payload(3)
    );
}

#[test]
fn fresh_client_image_converges_via_iams() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    for key in 0..1000u64 {
        file.insert(lhrs_lh::scramble(key), payload(key)).unwrap();
    }
    let fresh = file.add_client();
    assert_eq!(file.client_image(fresh), (0, 0));
    let mut errors = 0;
    for key in 0..200u64 {
        let k = lhrs_lh::scramble(key);
        let before = file.client_iams(fresh);
        assert_eq!(file.lookup_via(fresh, k).unwrap().unwrap(), payload(key));
        if file.client_iams(fresh) > before {
            errors += 1;
        }
    }
    // Image converges: the number of addressing errors is logarithmic, and
    // late lookups stop erring entirely.
    assert!(errors <= 25, "too many IAMs: {errors}");
    let before = file.client_iams(fresh);
    for key in 200..300u64 {
        let k = lhrs_lh::scramble(key);
        file.lookup_via(fresh, k).unwrap();
    }
    let late_errors = file.client_iams(fresh) - before;
    assert!(late_errors <= 2, "image failed to converge: {late_errors}");
}

#[test]
fn insert_batch_pipelines() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    let n = file
        .insert_batch((0..500u64).map(|k| (k, payload(k))))
        .unwrap();
    assert_eq!(n, 500);
    file.verify_integrity().unwrap();
    for key in (0..500u64).step_by(17) {
        assert_eq!(file.lookup(key).unwrap().unwrap(), payload(key));
    }
}

/// A batch with two keys that already exist reports the lower op's key,
/// although the higher op's error reply arrives first: the client's image
/// sends the lower op's key to a bucket that forwards it, and the higher
/// op's straight home.
#[test]
fn insert_batch_reports_the_lowest_ops_duplicate_key() {
    let mut file = LhrsFile::new(small_cfg()).unwrap();
    let mut keys = 0u64;
    while file.bucket_count() < 8 {
        file.insert(keys, payload(keys)).unwrap();
        keys += 1;
    }
    let (n, i) = file.client_image(0);
    let image = |k| match lhrs_lh::h(i, 1, k) {
        a if a < n => lhrs_lh::h(i + 1, 1, k),
        a => a,
    };
    let forwarded = (0..keys).find(|&k| image(k) != file.address_of(k));
    let forwarded = forwarded.expect("the image lags the file");
    let direct = (0..keys).find(|&k| image(k) == file.address_of(k)).unwrap();
    for _ in 0..3 {
        let batch = [forwarded, direct].map(|k| (k, payload(k)));
        assert_eq!(
            file.insert_batch(batch),
            Err(Error::DuplicateKey(forwarded))
        );
    }
}

#[test]
fn message_costs_match_the_paper_model() {
    // Key search ≈ 2 messages (request + reply), insert ≈ 1 + k messages
    // (request + one parity delta per parity bucket), independent of file
    // size — the headline LH*RS cost model.
    let mut cfg = small_cfg();
    cfg.initial_k = 2;
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..1200u64 {
        file.insert(lhrs_lh::scramble(key), payload(key)).unwrap();
    }
    // Warm the default client's image.
    for key in 0..50u64 {
        file.lookup(lhrs_lh::scramble(key)).unwrap();
    }

    // Steady-state lookups: exactly 2 messages once the image is exact.
    let cost = file.cost_of(|f| {
        for key in 500..600u64 {
            f.lookup(lhrs_lh::scramble(key)).unwrap();
        }
    });
    let per_lookup = cost.total_messages() as f64 / 100.0;
    assert!(
        (2.0..=2.3).contains(&per_lookup),
        "lookup cost {per_lookup} msg"
    );

    // Steady-state inserts (no splits triggered: use fresh keys but count
    // only non-structural messages).
    let cost = file.cost_of(|f| {
        for key in 10_000..10_050u64 {
            f.insert(lhrs_lh::scramble(key), payload(key)).unwrap();
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
    let op_msgs = cost.total_messages() - structural;
    let per_insert = op_msgs as f64 / 50.0;
    // 1 (request) + 2 (parity deltas, k = 2), small slack for forwarding.
    assert!(
        (3.0..=3.5).contains(&per_insert),
        "insert cost {per_insert} msg"
    );
}

#[test]
fn default_config_demo_matches_docs() {
    // Mirrors the crate-level example (with default latency + jitter).
    let mut file = LhrsFile::new(Config::default()).unwrap();
    for key in 0..500u64 {
        file.insert(key, format!("value-{key}").into_bytes())
            .unwrap();
    }
    assert_eq!(file.lookup(42).unwrap().unwrap(), b"value-42");
    let victim = file.address_of(42);
    file.crash_data_bucket(victim);
    assert_eq!(file.lookup(42).unwrap().unwrap(), b"value-42");
    file.verify_integrity().unwrap();
}

#[test]
fn rebuild_without_a_spare_node_stalls_instead_of_aborting() {
    // The smallest legal pool: three spares, all consumed growing group 0
    // to its four buckets. Further splits are dropped (they would need a
    // new group), and a rebuild has nowhere to land.
    let mut cfg = small_cfg();
    cfg.initial_k = 1;
    cfg.ack_writes = true;
    cfg.node_pool = 2 + cfg.group_size + cfg.initial_k;
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..60u64 {
        file.insert(lhrs_lh::scramble(key), payload(key)).unwrap();
    }
    assert_eq!(file.bucket_count(), 4, "the pool caps the file");

    file.crash_data_bucket(1);
    let report = file.check_group(0);
    assert_eq!(report.failed_shards, vec![1]);
    assert!(!report.recovered && !report.unrecoverable, "{report:?}");
    assert_eq!(
        file.events().last().map(|e| &e.event),
        Some(&Event::RecoveryStalled {
            group: 0,
            needed: 1
        })
    );
    assert_eq!(file.metrics().counter("recoveries_stalled"), 1);
    assert_eq!(file.metrics().counter_kind("events", "recovery_stalled"), 1);
    // The coordinator is still serving: the other buckets answer, and the
    // lost one reads degraded through the parity bucket.
    for key in 0..60u64 {
        let k = lhrs_lh::scramble(key);
        assert_eq!(file.lookup(k).unwrap().unwrap(), payload(key), "key {k}");
    }
}
