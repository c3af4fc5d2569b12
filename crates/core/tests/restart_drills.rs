//! Kill -9 restart drills: the three-way matrix the durable-bucket
//! subsystem must survive.
//!
//! * **memory-loss** — RAM-only node (no store factory): the classic
//!   LH\*RS path, a full k-out-of-m+k Reed–Solomon rebuild.
//! * **disk-survives** — the node's store outlives the process: restart is
//!   a local snapshot+WAL replay plus a Δ-suffix pull from the parity
//!   group, and must move strictly fewer bytes than the full rebuild.
//! * **disk-lost** — the disk died with the process (k of them, to
//!   exercise the worst tolerable loss): the coordinator falls back to the
//!   full rebuild and `recovery_shards_rebuilt == k`.
//!
//! Zero acked-data loss in every arm, asserted through the
//! `Metrics`/`RestartReport` API.

use std::collections::BTreeMap;

use lhrs_core::parity_bucket::DELTA_HISTORY_CAP;
use lhrs_core::storage::{MemHub, StoreId};
use lhrs_core::{Config, CoordEvent, FaultPlan, LhrsFile, Partition};
use lhrs_obs::RestartReport;
use lhrs_sim::LatencyModel;

fn restart_cfg() -> Config {
    Config {
        group_size: 4,
        initial_k: 2,
        bucket_capacity: 8,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        latency: LatencyModel::instant(),
        node_pool: 256,
        // Never auto-snapshot: the drills steer the snapshot/log split
        // themselves (structural snapshots at splits still fire).
        wal_snapshot_every: 0,
        ..Config::default()
    }
}

fn payload(key: u64) -> Vec<u8> {
    format!("restart-{key}").into_bytes()
}

/// Grow a file past its first splits; returns the acked oracle.
fn load(file: &mut LhrsFile, n: u64) -> BTreeMap<u64, Vec<u8>> {
    let mut oracle = BTreeMap::new();
    for key in 0..n {
        file.insert(key, payload(key)).unwrap();
        oracle.insert(key, payload(key));
    }
    assert!(file.bucket_count() > 4, "workload must span two groups");
    oracle
}

/// Every acked record must read back exactly.
fn assert_no_acked_loss(file: &mut LhrsFile, oracle: &BTreeMap<u64, Vec<u8>>) {
    for (key, want) in oracle {
        let got = file.lookup(*key).unwrap();
        assert_eq!(got.as_deref(), Some(want.as_slice()), "key {key}");
    }
    file.verify_integrity().unwrap();
}

const LOAD: u64 = 60;

/// Arm 1 — memory-loss: no durable store, full RS rebuild. Returns the
/// bytes the rebuild moved (the baseline the Δ-suffix arm must beat).
fn run_memory_loss_arm() -> u64 {
    let mut file = LhrsFile::new(restart_cfg()).unwrap();
    let oracle = load(&mut file, LOAD);

    file.crash_data_bucket(0);
    let rec = file.check_group(0);
    assert!(rec.recovered, "group must recover: {rec:?}");
    assert_eq!(rec.failed_shards, vec![0]);

    let report = RestartReport::from_metrics("memory-loss", file.metrics());
    assert_eq!(report.restart_recoveries, 0);
    assert_eq!(report.restart_fallbacks, 0);
    assert_eq!(report.recovery_shards_rebuilt, 1);
    assert!(report.recovery_bytes_moved > 0);
    // No store was ever attached: the WAL counters must stay silent.
    assert_eq!(report.wal_appends, 0);
    assert_eq!(report.replay_ops, 0);

    assert_no_acked_loss(&mut file, &oracle);
    report.recovery_bytes_moved
}

/// Arm 2 — disk-survives: local replay + Δ-suffix. Returns the bytes the
/// catch-up moved over the network.
fn run_disk_survives_arm() -> u64 {
    let mut file = LhrsFile::new(restart_cfg()).unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    let oracle = load(&mut file, LOAD);

    let id = StoreId::Data { bucket: 0 };
    let disk = hub.disk(&id).expect("bucket 0 has a disk");
    assert!(
        disk.ops_len() > 0,
        "drill needs logged ops beyond the last snapshot"
    );
    file.crash_data_bucket(0);
    // Simulate the unsynced page cache dying with the process: the log
    // tail after the last snapshot is gone, so the replayed state is
    // behind the parity group and a real Δ-suffix is needed.
    disk.truncate_ops(0);

    let resumed = file.restart_data_bucket_from_store(0).unwrap();
    assert!(resumed, "bucket 0 must resume as owner");

    let report = RestartReport::from_metrics("disk-survives", file.metrics());
    assert_eq!(report.restart_recoveries, 1, "{report:?}");
    assert!(
        file.events().iter().any(|(_, e)| matches!(
            e,
            CoordEvent::BucketRestarted { bucket: 0, suffix_len } if *suffix_len == report.suffix_entries
        )),
        "{:?}",
        file.events()
    );
    assert_eq!(report.restart_fallbacks, 0);
    assert_eq!(
        report.recovery_shards_rebuilt, 0,
        "no RS rebuild on this path"
    );
    assert!(report.suffix_entries > 0, "catch-up must apply a suffix");
    assert!(report.recovery_bytes_moved > 0);
    assert!(report.wal_appends > 0, "committed ops must hit the WAL");
    assert!(report.wal_snapshots > 0, "splits must snapshot");

    assert_no_acked_loss(&mut file, &oracle);
    report.recovery_bytes_moved
}

/// Arm 3 — disk-lost: k disks die with their processes; the factory
/// declines and the coordinator rebuilds all k shards the classic way.
fn run_disk_lost_arm() {
    let cfg = restart_cfg();
    let k = cfg.initial_k;
    let mut file = LhrsFile::new(cfg).unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    let oracle = load(&mut file, LOAD);

    for bucket in 0..k as u64 {
        file.crash_data_bucket(bucket);
        hub.destroy(&StoreId::Data { bucket });
    }
    for bucket in 0..k as u64 {
        let err = file.restart_data_bucket_from_store(bucket);
        assert!(err.is_err(), "destroyed disk must refuse to seed");
    }
    let rec = file.check_group(0);
    assert!(rec.recovered, "group must recover: {rec:?}");

    let report = RestartReport::from_metrics("disk-lost", file.metrics());
    assert_eq!(report.restart_recoveries, 0);
    assert_eq!(
        report.recovery_shards_rebuilt, k as u64,
        "full rebuild of every lost shard"
    );
    assert!(report.recovery_bytes_moved > 0);

    assert_no_acked_loss(&mut file, &oracle);
}

#[test]
fn three_way_restart_matrix() {
    let full_bytes = run_memory_loss_arm();
    let suffix_bytes = run_disk_survives_arm();
    run_disk_lost_arm();
    assert!(
        suffix_bytes < full_bytes,
        "Δ-suffix catch-up ({suffix_bytes} B) must move strictly fewer \
         bytes than the full RS rebuild ({full_bytes} B)"
    );
}

/// Disk survives but the parity group's Δ-history no longer reaches back
/// to the replayed sequence: the coordinator must detect the uncovered
/// suffix and fall back to the full rebuild — without losing a record.
#[test]
fn truncated_history_falls_back_to_full_rebuild() {
    let mut file = LhrsFile::new(restart_cfg()).unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    let mut oracle = load(&mut file, LOAD);
    // Outrun the history: more Δs on bucket 0's column than a parity
    // bucket retains.
    assert_eq!(file.address_of(0), 0);
    for round in 0..=DELTA_HISTORY_CAP as u64 {
        let value = format!("rewrite-{round}").into_bytes();
        file.update(0, value.clone()).unwrap();
        oracle.insert(0, value);
    }

    file.crash_data_bucket(0);
    hub.disk(&StoreId::Data { bucket: 0 })
        .expect("bucket 0 has a disk")
        .truncate_ops(0);

    let resumed = file.restart_data_bucket_from_store(0).unwrap();
    assert!(
        !resumed,
        "the node must be demoted when the suffix is uncoverable"
    );

    let report = RestartReport::from_metrics("history-truncated", file.metrics());
    assert_eq!(report.restart_recoveries, 0);
    assert_eq!(report.restart_fallbacks, 1, "{report:?}");
    assert!(
        report.recovery_shards_rebuilt >= 1,
        "fallback must trigger the RS rebuild"
    );

    assert_no_acked_loss(&mut file, &oracle);
}

/// A store whose writes start failing must be *poisoned* — the snapshot
/// erased and the store detached — so the next boot cannot silently
/// replay the holey log as if it were complete. The crashed shard routes
/// through the full RS rebuild instead, with zero acked loss (the RAM
/// state stayed authoritative while the node lived).
#[test]
fn failing_store_is_poisoned_and_rebuilt() {
    let mut file = LhrsFile::new(restart_cfg()).unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    let mut oracle = load(&mut file, LOAD);

    let disk = hub
        .disk(&StoreId::Data { bucket: 0 })
        .expect("bucket 0 has a disk");
    assert!(disk.has_snapshot(), "seeded store starts with a snapshot");
    disk.fail_writes(true);
    for key in LOAD..LOAD + 40 {
        file.insert(key, payload(key)).unwrap();
        oracle.insert(key, payload(key));
    }
    let report = RestartReport::from_metrics("poisoning", file.metrics());
    assert!(report.wal_errors > 0, "some write must have hit bucket 0");
    assert!(
        !disk.has_snapshot(),
        "the first failed write must erase the snapshot"
    );

    file.crash_data_bucket(0);
    disk.fail_writes(false);
    assert!(
        file.restart_data_bucket_from_store(0).is_err(),
        "a poisoned store must refuse to resurrect"
    );
    let rec = file.check_group(0);
    assert!(rec.recovered, "group must recover: {rec:?}");

    let report = RestartReport::from_metrics("poisoning", file.metrics());
    assert_eq!(report.restart_recoveries, 0, "{report:?}");
    assert!(report.recovery_shards_rebuilt >= 1, "{report:?}");
    assert_no_acked_loss(&mut file, &oracle);
}

/// The Δ-suffix handshake can wedge: if the boot `RestartReport` is lost,
/// the restarted bucket would sit catching-up forever — deferring all
/// traffic while still answering probes, so no audit ever notices. The
/// catch-up watchdog must abort the handshake and hand the shard to the
/// full RS rebuild.
#[test]
fn wedged_catchup_aborts_to_full_rebuild() {
    let mut file = LhrsFile::new(restart_cfg()).unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    let oracle = load(&mut file, LOAD);

    let node = file.data_node_id(0);
    file.crash_data_bucket(0);
    hub.disk(&StoreId::Data { bucket: 0 })
        .expect("bucket 0 has a disk")
        .truncate_ops(0);

    // Swallow the boot `RestartReport`: the node is partitioned for the
    // first instant after its restart, and neither side retransmits the
    // report — without the watchdog the handshake never completes.
    let now = file.now_us();
    file.set_fault_plan(FaultPlan::new(7).partition(Partition::new(vec![node], now, now + 1_000)));
    // Ownership result is irrelevant here: after the fallback the rebuilt
    // bucket may even land back on the same (pooled) node.
    let _ = file.restart_data_bucket_from_store(0).unwrap();
    file.clear_fault_plan();

    let report = RestartReport::from_metrics("wedged-catchup", file.metrics());
    assert_eq!(report.restart_recoveries, 0, "{report:?}");
    assert_eq!(
        report.restart_aborts, 1,
        "the watchdog must fire: {report:?}"
    );
    assert_eq!(report.restart_fallbacks, 1, "{report:?}");
    assert!(
        report.recovery_shards_rebuilt >= 1,
        "abort must end in the RS rebuild: {report:?}"
    );
    assert_no_acked_loss(&mut file, &oracle);
}

/// A Δ-suffix entry that cannot be applied must abort the catch-up: the
/// bucket must not skip it and resume below the watermark the coordinator
/// certified (acked records committed past the skipped entry would
/// vanish). Both parity histories are mangled so whichever suffix arrives
/// first is undecodable.
#[test]
fn undecodable_suffix_aborts_catchup() {
    let mut file = LhrsFile::new(restart_cfg()).unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    let oracle = load(&mut file, LOAD);

    file.crash_data_bucket(0);
    hub.disk(&StoreId::Data { bucket: 0 })
        .expect("bucket 0 has a disk")
        .truncate_ops(0);
    for q in 0..2 {
        file.corrupt_parity_history(0, q, 0);
    }

    let _ = file.restart_data_bucket_from_store(0).unwrap();

    let report = RestartReport::from_metrics("corrupt-suffix", file.metrics());
    assert_eq!(report.restart_aborts, 1, "{report:?}");
    assert_eq!(report.restart_fallbacks, 1, "{report:?}");
    assert!(
        report.recovery_shards_rebuilt >= 1,
        "abort must end in the RS rebuild: {report:?}"
    );
    // `restart_recoveries` is deliberately not asserted: the coordinator
    // may certify (both SuffixInfos precede the abort in FIFO order)
    // before the RestartAbort lands — the bucket ignores that ack and the
    // coordinator still falls back. Correctness is the rebuild + no loss.
    assert_no_acked_loss(&mut file, &oracle);
}

/// A restart with nothing missed (clean shutdown: the log held everything)
/// must complete with an empty suffix and zero extra bytes moved.
#[test]
fn clean_restart_needs_no_suffix() {
    let mut file = LhrsFile::new(restart_cfg()).unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    let oracle = load(&mut file, LOAD);

    file.crash_data_bucket(0);
    // Disk fully intact: replay lands exactly at the parity watermark.
    let resumed = file.restart_data_bucket_from_store(0).unwrap();
    assert!(resumed);

    let report = RestartReport::from_metrics("clean-restart", file.metrics());
    assert_eq!(report.restart_recoveries, 1, "{report:?}");
    assert_eq!(report.restart_fallbacks, 0);
    assert_eq!(report.suffix_entries, 0, "nothing was missed");
    assert_eq!(report.recovery_bytes_moved, 0);
    assert!(report.replay_ops > 0, "the local log did the work");

    assert_no_acked_loss(&mut file, &oracle);
}
