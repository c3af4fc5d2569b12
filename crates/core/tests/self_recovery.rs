//! §2.5.4 self-detected recovery: a node restarting after an outage must
//! ask the coordinator whether it still owns its bucket before serving —
//! and is demoted to a hot spare if the bucket was recreated elsewhere.

use lhrs_core::{Config, LhrsFile};
use lhrs_sim::LatencyModel;

fn cfg() -> Config {
    Config {
        group_size: 4,
        initial_k: 2,
        bucket_capacity: 16,
        record_len: 32,
        latency: LatencyModel::default(),
        node_pool: 512,
        ..Config::default()
    }
}

fn payload(key: u64) -> Vec<u8> {
    format!("sr{key}").into_bytes()
}

#[test]
fn unnoticed_outage_resumes_ownership() {
    // The bucket crashes and comes back before anyone touches it: it is
    // still the owner and resumes with its (intact, un-missed) state.
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..300u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let bucket = file.address_of(42);
    file.crash_data_bucket(bucket);
    // Nobody accessed it during the outage.
    assert!(
        file.restart_data_bucket(bucket),
        "unreplaced node must resume as owner"
    );
    file.verify_integrity().unwrap();
    for key in 0..300u64 {
        assert_eq!(
            file.lookup(key).unwrap().unwrap(),
            payload(key),
            "key {key}"
        );
    }
}

#[test]
fn replaced_node_is_demoted_to_spare() {
    // The bucket crashes, a lookup triggers detection + rebuild onto a
    // spare, then the old node comes back: it must retire, and the file
    // keeps serving from the replacement.
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..300u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let victim_key = 42u64;
    let bucket = file.address_of(victim_key);
    file.crash_data_bucket(bucket);
    // Access during the outage → degraded read + recovery onto a spare.
    assert_eq!(
        file.lookup(victim_key).unwrap().unwrap(),
        payload(victim_key)
    );
    let recovered = file
        .events()
        .iter()
        .any(|e| matches!(e.event, lhrs_obs::Event::RecoveryEnd { ok: true, .. }));
    assert!(recovered, "rebuild must have run during the outage");

    assert!(
        !file.restart_data_bucket(bucket),
        "displaced node must be demoted to a spare"
    );
    file.verify_integrity().unwrap();
    for key in 0..300u64 {
        assert_eq!(
            file.lookup(key).unwrap().unwrap(),
            payload(key),
            "key {key}"
        );
    }
    // The demoted node is reusable: grow the file and everything stays
    // consistent.
    for key in 1000..1400u64 {
        file.insert(key, payload(key)).unwrap();
    }
    file.verify_integrity().unwrap();
}

#[test]
fn ownership_check_clears_false_suspicion() {
    // A transient outage that WAS noticed (suspicion recorded) but healed
    // before the group check confirmed anything: after the node resumes
    // ownership, normal operation continues without a rebuild.
    let mut file = LhrsFile::new(cfg()).unwrap();
    for key in 0..200u64 {
        file.insert(key, payload(key)).unwrap();
    }
    let bucket = file.address_of(7);
    file.crash_data_bucket(bucket);
    assert!(file.restart_data_bucket(bucket));
    // Now a lookup goes straight through — no degraded path.
    let cost = file.cost_of(|f| {
        assert_eq!(f.lookup(7).unwrap().unwrap(), payload(7));
    });
    assert_eq!(cost.count("find-record"), 0, "no degraded read needed");
    assert!(cost.total_messages() <= 4);
}
