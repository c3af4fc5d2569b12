//! Network-fault drills: the acceptance gauntlet for the hardened protocol
//! stack. A lossy, duplicating, reordering network with a timed partition
//! must never lose an acknowledged record, never drift parity, and — being
//! a deterministic simulation — must reproduce bit-for-bit across runs.
//!
//! The model discipline: an operation the driver API acknowledged
//! (`Ok`/`Err(DuplicateKey)`/`Err(KeyNotFound)`) updates the oracle; an
//! operation that failed after retries (`Err(Stuck)`) leaves the key in an
//! *unknown* state (the request may or may not have been applied before the
//! ack was lost), so the key is tainted and excluded from exact-match
//! assertions. Everything untainted must read back exactly.

use std::collections::{BTreeMap, HashSet};

use lhrs_core::{Config, Error, FaultPlan, LhrsFile, Partition};
use lhrs_obs::{Event, RecoveryReport};
use lhrs_sim::LatencyModel;
use lhrs_testkit::{cases, Rng};

/// Base configuration for chaos drills: small buckets so splits trigger
/// early, and both acknowledgement paths on — loss without retransmission
/// has no correctness story (see `Config::ack_parity`).
fn chaos_cfg() -> Config {
    Config {
        group_size: 4,
        initial_k: 2,
        bucket_capacity: 8,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        latency: LatencyModel::instant(),
        node_pool: 512,
        ..Config::default()
    }
}

fn payload(key: u64, generation: u64) -> Vec<u8> {
    format!("chaos-{key}-{generation}").into_bytes()
}

/// The oracle: last acknowledged value per key (`None` = acknowledged
/// delete), plus the taint set of keys whose state is unknown.
#[derive(Default)]
struct Oracle {
    acked: BTreeMap<u64, Option<Vec<u8>>>,
    tainted: HashSet<u64>,
}

impl Oracle {
    fn live_untainted(&self) -> Vec<u64> {
        self.acked
            .iter()
            .filter(|(k, v)| v.is_some() && !self.tainted.contains(*k))
            .map(|(k, _)| *k)
            .collect()
    }
}

/// What a drill run produced, for determinism comparison.
#[derive(Debug, PartialEq, Eq)]
struct DrillOutcome {
    now_us: u64,
    total_messages: u64,
    fault_dropped: u64,
    partition_dropped: u64,
    duplicated: u64,
    reordered: u64,
    buckets: u64,
    acked: Vec<(u64, Option<Vec<u8>>)>,
    tainted: usize,
}

/// One full chaos drill: clean growth, a faulty phase (loss + duplication +
/// reordering + one timed partition), healing, then total verification.
fn run_chaos_drill(seed: u64, ops: usize, with_partition: bool) -> DrillOutcome {
    let mut file = LhrsFile::new(chaos_cfg()).unwrap();
    let mut oracle = Oracle::default();
    let mut rng = Rng::new(seed);
    let mut next_key = 0u64;

    // Phase A — fault-free growth past the first splits, so the faulty
    // phase runs against a multi-bucket, multi-group file.
    for _ in 0..40 {
        let key = next_key;
        next_key += 1;
        file.insert(key, payload(key, 0)).unwrap();
        oracle.acked.insert(key, Some(payload(key, 0)));
    }
    assert!(file.bucket_count() > 1, "phase A must have split");
    file.verify_integrity().unwrap();

    // Phase B — the network turns hostile. ≥1% random loss, duplication,
    // reordering, and (optionally) a timed partition isolating the node
    // behind data bucket 1.
    let mut plan = FaultPlan::new(seed)
        .drop_permille(15)
        .dup_permille(10)
        .reorder_permille(20)
        .reorder_window_us(300);
    if with_partition {
        let now = file.now_us();
        let victim = file.data_node_id(1);
        plan = plan.partition(Partition::new(vec![victim], now + 2_000, now + 40_000));
    }
    file.set_fault_plan(plan);

    for _ in 0..ops {
        let roll = rng.below(100);
        if roll < 55 {
            // Insert a fresh key.
            let key = next_key;
            next_key += 1;
            match file.insert(key, payload(key, 1)) {
                Ok(()) => {
                    oracle.acked.insert(key, Some(payload(key, 1)));
                }
                Err(Error::Stuck(_)) => {
                    oracle.tainted.insert(key);
                }
                Err(e) => panic!("insert {key}: {e}"),
            }
        } else if roll < 70 {
            // Update a live untainted key.
            let Some(&key) = rng.choose(&oracle.live_untainted()) else {
                continue;
            };
            let generation = rng.range(2, 1_000_000);
            match file.update(key, payload(key, generation)) {
                Ok(()) => {
                    oracle.acked.insert(key, Some(payload(key, generation)));
                }
                Err(Error::Stuck(_)) => {
                    oracle.tainted.insert(key);
                }
                Err(e) => panic!("acked key {key} lost on update: {e}"),
            }
        } else if roll < 80 {
            // Delete a live untainted key.
            let Some(&key) = rng.choose(&oracle.live_untainted()) else {
                continue;
            };
            match file.delete(key) {
                Ok(()) => {
                    oracle.acked.insert(key, None);
                }
                Err(Error::Stuck(_)) => {
                    oracle.tainted.insert(key);
                }
                Err(e) => panic!("acked key {key} lost on delete: {e}"),
            }
        } else {
            // Lookup: a successful read of an untainted key must match the
            // oracle even mid-fault; a timeout is tolerated while the
            // network is hostile.
            let Some(&key) = rng.choose(&oracle.live_untainted()) else {
                continue;
            };
            match file.lookup(key) {
                Ok(found) => assert_eq!(
                    found.as_ref(),
                    oracle.acked[&key].as_ref(),
                    "mid-fault read of acked key {key} diverged"
                ),
                Err(Error::Stuck(_)) => {}
                Err(e) => panic!("lookup {key}: {e}"),
            }
        }
    }

    // Phase C — the network heals; drain in-flight traffic, then every
    // acknowledged operation must be durable and parity must be exact.
    file.clear_fault_plan();
    let _ = file.lookup(0);
    for (key, value) in &oracle.acked {
        if oracle.tainted.contains(key) {
            continue;
        }
        let found = file.lookup(*key).unwrap();
        assert_eq!(
            found.as_ref(),
            value.as_ref(),
            "acked key {key} lost after healing"
        );
    }
    file.verify_integrity().unwrap();

    let stats = file.stats();
    DrillOutcome {
        now_us: file.now_us(),
        total_messages: stats.total_messages(),
        fault_dropped: stats.counter("fault_dropped", ""),
        partition_dropped: stats.counter("partition_dropped", ""),
        duplicated: stats.counter("fault_duplicated", ""),
        reordered: stats.counter("fault_reordered", ""),
        buckets: file.bucket_count(),
        acked: oracle.acked.into_iter().collect(),
        tainted: oracle.tainted.len(),
    }
}

/// The headline acceptance drill: ≥1% loss + duplication + reordering + a
/// timed partition, zero acked-data loss, clean parity.
#[test]
fn chaos_drill_never_loses_acked_data() {
    let outcome = run_chaos_drill(0xC0FFEE, 120, true);
    assert!(outcome.fault_dropped > 0, "loss must actually fire");
    assert!(outcome.duplicated > 0, "duplication must actually fire");
    assert!(outcome.reordered > 0, "reordering must actually fire");
    assert!(
        outcome.partition_dropped > 0,
        "the partition must actually drop traffic"
    );
}

/// The same drill twice: a deterministic simulation under a deterministic
/// fault plan must reproduce every counter and every byte.
#[test]
fn chaos_drill_is_deterministic() {
    let a = run_chaos_drill(0xDECADE, 80, true);
    let b = run_chaos_drill(0xDECADE, 80, true);
    assert_eq!(a, b);
}

/// Property-style sweep: many seeds, randomized fault rates, no acked loss
/// at any of them. Partitions excluded here (the dedicated drill covers
/// them); rates stay within the retransmission budget.
#[test]
fn chaos_sweep_over_seeds() {
    cases("chaos_sweep", 6, |rng| {
        let seed = rng.next_u64();
        run_chaos_drill(seed, 50, false);
    });
}

/// Idempotency, per message type — client requests. Every message is
/// duplicated (`dup_permille(1000)`), so each insert `Req` arrives at its
/// data bucket at least twice; its completion record must answer the duplicate
/// without re-applying, or the client would see `DuplicateKey` for its own
/// retransmission.
#[test]
fn duplicated_insert_requests_are_applied_once() {
    let mut file = LhrsFile::new(chaos_cfg()).unwrap();
    file.set_fault_plan(FaultPlan::new(7).dup_permille(1000));
    for key in 0..30u64 {
        file.insert(key, payload(key, 0)).unwrap();
    }
    for key in 0..30u64 {
        assert_eq!(file.lookup(key).unwrap().unwrap(), payload(key, 0));
    }
    assert!(file.metrics().counter("fault_duplicated") > 0);
    file.clear_fault_plan();
    file.verify_integrity().unwrap();
}

/// Idempotency, per message type — Δ-commits. Updates emit one Δ per
/// parity bucket; with every message duplicated, each Δ arrives twice and
/// the per-column sequence check must drop the copy, or parity XORs the
/// delta in twice and drifts (`verify_integrity` recomputes the full
/// Reed–Solomon encoding, so any double-apply is caught).
#[test]
fn duplicated_delta_commits_do_not_drift_parity() {
    let mut file = LhrsFile::new(chaos_cfg()).unwrap();
    for key in 0..25u64 {
        file.insert(key, payload(key, 0)).unwrap();
    }
    file.set_fault_plan(FaultPlan::new(11).dup_permille(1000));
    for key in 0..25u64 {
        file.update(key, payload(key, 1)).unwrap();
    }
    for key in (0..25u64).step_by(3) {
        file.delete(key).unwrap();
    }
    assert!(file.metrics().counter("fault_duplicated") > 0);
    file.clear_fault_plan();
    file.verify_integrity().unwrap();
}

/// Loss alone, at 3%: the retransmission paths (client retry, Go-Back-N Δ
/// resend, coordinator re-probe) must absorb it with no failed operations
/// at all — 3% is far inside the retry budget.
#[test]
fn pure_loss_is_absorbed_by_retransmission() {
    let mut file = LhrsFile::new(chaos_cfg()).unwrap();
    file.set_fault_plan(FaultPlan::new(3).drop_permille(30));
    for key in 0..60u64 {
        file.insert(key, payload(key, 0)).unwrap();
    }
    for key in 0..60u64 {
        assert_eq!(file.lookup(key).unwrap().unwrap(), payload(key, 0));
    }
    assert!(
        file.metrics().counter("fault_dropped") > 0,
        "loss must actually fire"
    );
    file.clear_fault_plan();
    file.verify_integrity().unwrap();
}

/// Heavy reordering alone: per-column Δ sequencing must re-serialize the
/// stream (buffer futures, drain in order) with exact parity at the end.
#[test]
fn pure_reordering_keeps_parity_exact() {
    let mut file = LhrsFile::new(chaos_cfg()).unwrap();
    file.set_fault_plan(
        FaultPlan::new(5)
            .reorder_permille(250)
            .reorder_window_us(400),
    );
    for key in 0..60u64 {
        file.insert(key, payload(key, 0)).unwrap();
    }
    for key in (0..60u64).step_by(2) {
        file.update(key, payload(key, 1)).unwrap();
    }
    assert!(
        file.metrics().counter("fault_reordered") > 0,
        "reordering must actually fire"
    );
    file.clear_fault_plan();
    file.verify_integrity().unwrap();
    for key in 0..60u64 {
        let expect = if key % 2 == 0 {
            payload(key, 1)
        } else {
            payload(key, 0)
        };
        assert_eq!(file.lookup(key).unwrap().unwrap(), expect);
    }
}

/// The observability drill: kill k = 2 data buckets of one group (the full
/// availability budget), read straight through the failure, and require the
/// whole episode to be visible through the [`Metrics`] API — exactly k
/// shards rebuilt, the degraded read counted, a coherent trace timeline,
/// and a [`RecoveryReport`] that agrees with the raw counters.
///
/// [`Metrics`]: lhrs_obs::Metrics
#[test]
fn kill_drill_reports_k_shards_rebuilt_through_metrics() {
    // Unlike the chaos drills, this runs under the default latency model,
    // so the recovery timeline spans nonzero simulated time.
    let cfg = Config {
        group_size: 4,
        initial_k: 2,
        bucket_capacity: 8,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        node_pool: 512,
        ..Config::default()
    };
    let k = cfg.initial_k as u64;
    let m = cfg.group_size as u64;
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..40u64 {
        file.insert(key, payload(key, 0)).unwrap();
    }

    // Crash the probed record's own bucket plus one group sibling: k
    // concurrent losses, the worst survivable failure.
    let probe_key = 7u64;
    let bucket = file.address_of(probe_key);
    let group = bucket / m;
    let sibling = group * m + (bucket + 1) % m;
    file.crash_data_bucket(bucket);
    file.crash_data_bucket(sibling);

    assert_eq!(
        file.lookup(probe_key).unwrap().unwrap(),
        payload(probe_key, 0),
        "read through k failures must succeed via parity decode"
    );
    file.verify_integrity().unwrap();

    // Counters: exactly k shards came back, nothing failed, the degraded
    // path actually ran, and latency samples were recorded.
    let snap = file.metrics().snapshot();
    assert_eq!(
        snap.counter("recovery_shards_rebuilt", ""),
        k,
        "exactly k = {k} shards must be rebuilt after k kills"
    );
    assert!(snap.counter("recoveries_completed", "") >= 1);
    assert_eq!(snap.counter("recoveries_failed", ""), 0);
    assert!(snap.counter("degraded_reads", "") >= 1);
    assert!(snap.counter("recovery_bytes_moved", "") > 0);
    let (_, op_latency) = snap
        .histograms
        .iter()
        .find(|(name, _)| name == "op_latency")
        .expect("op_latency histogram present");
    assert!(op_latency.count >= 40, "every client op records a latency");

    // Trace: the timeline brackets the rebuild with start/end events.
    let events = file.metrics().events();
    assert!(events
        .iter()
        .any(|e| matches!(e.event, Event::RecoveryStart { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.event, Event::RecoveryEnd { ok: true, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.event, Event::DegradedRead { .. })));

    // The derived report must agree with the raw counters.
    let report = RecoveryReport::from_metrics("kill_drill", file.metrics());
    assert_eq!(report.shards_rebuilt, k);
    assert_eq!(report.clock, "logical-us");
    assert!(report.duration_us > 0, "recovery spans simulated time");
    assert!(report.total_messages > 0);
    let json = report.to_json();
    assert!(json.contains(&format!("\"shards_rebuilt\": {k}")));
}

/// The split/recovery interleaving drill: the coordinator commits a split
/// (the address space now says two buckets) and the source bucket dies
/// before the `DoSplit` order partitions it. The RS rebuild restores the
/// *pre-split* content at the *post-split* level, so the install path must
/// expel the records that now address the new bucket — leaving them in
/// place would be acked-data loss without a single lost message.
#[test]
fn kill_between_split_commit_and_partition_loses_nothing() {
    let cfg = Config {
        group_size: 2,
        initial_k: 1,
        bucket_capacity: 16,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        node_pool: 64,
        ..Config::default()
    };
    let mut file = LhrsFile::new(cfg).unwrap();
    for key in 0..12u64 {
        file.insert(key, payload(key, 0)).unwrap();
    }

    let (source, target) = file.drill_kill_during_split();
    assert_eq!((source, target), (0, 1));
    assert_eq!(file.bucket_count(), 2, "the address-space change committed");

    // Drive the failure path: a read aimed at the dead bucket escalates
    // (suspect → probe → rebuild → install → expel). The read itself may
    // fail after client retries; the recovery still completes inside the
    // run-to-quiescence.
    let probe = (0..12u64)
        .find(|&k| file.address_of(k) == source)
        .expect("some key addresses the split source");
    let _ = file.lookup(probe);

    // Zero loss: every acked record reads back, including the movers that
    // were stranded above the committed address space.
    let movers = (0..12u64).filter(|&k| file.address_of(k) == target).count() as u64;
    assert!(movers > 0, "some keys must address the new bucket");
    for key in 0..12u64 {
        assert_eq!(
            file.lookup(key).unwrap().unwrap(),
            payload(key, 0),
            "key {key} must survive the kill-during-split interleaving"
        );
    }
    file.verify_integrity().unwrap();

    let snap = file.metrics().snapshot();
    assert_eq!(snap.counter("recovery_shards_rebuilt", ""), 1);
    assert_eq!(
        snap.counter("recovery_expelled_records", ""),
        movers,
        "exactly the post-split movers are expelled at install"
    );
    // Defense-in-depth paths that must stay quiet in this deterministic
    // interleaving: the collected cut is consistent, and the write freeze
    // ends through ResumeWrites, never through its safety timer.
    assert_eq!(snap.counter("recovery_torn_cuts", ""), 0);
    assert_eq!(snap.counter("recovery_freeze_expired", ""), 0);
}

/// The same interleaving across groups: with m = 2 the split 0 → 4 opens
/// group 2, and the source dies before its `DoSplit`. The client's image
/// predates the split, so a mover's lookup goes to the dead source, and the
/// source's group is the one to check. Each mover, read right after the
/// drill, must come back with its value, not as absent from the empty
/// target.
#[test]
fn kill_during_a_cross_group_split_reads_every_mover_at_once() {
    let cfg = Config {
        group_size: 2,
        initial_k: 1,
        bucket_capacity: 16,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        node_pool: 64,
        ..Config::default()
    };
    let mut file = LhrsFile::new(cfg).unwrap();
    let mut keys = 0u64;
    while file.bucket_count() < 4 {
        file.insert(keys, payload(keys, 0)).unwrap();
        keys += 1;
    }

    let (source, target) = file.drill_kill_during_split();
    assert_eq!((source, target), (0, 4));
    let movers: Vec<u64> = (0..keys)
        .filter(|&k| file.address_of(k) == target)
        .collect();
    assert!(!movers.is_empty(), "some keys must address the new bucket");
    for &key in &movers {
        assert_eq!(
            file.lookup(key),
            Ok(Some(payload(key, 0))),
            "mover {key}, read right after the drill"
        );
    }
    for key in 0..keys {
        assert_eq!(file.lookup(key), Ok(Some(payload(key, 0))), "key {key}");
    }
    file.verify_integrity().unwrap();
}

/// A fresh client's image knows one bucket, so it sends every key to
/// bucket 0, whose A2 forwards it home. When the home is a dead bucket of
/// another group, the client suspects bucket 0, whose group answers: the
/// key's own group must be checked as well, and its lookup served
/// degraded and its write applied after the rebuild.
#[test]
fn a_stale_image_suspecting_a_live_group_reaches_the_dead_home() {
    let mut file = LhrsFile::new(Config {
        initial_k: 1,
        ..chaos_cfg()
    })
    .unwrap();
    let mut keys = 0u64;
    while file.bucket_count() < 6 {
        file.insert(keys, payload(keys, 0)).unwrap();
        keys += 1;
    }
    let home = 4;
    let key = (0..keys).find(|&k| file.address_of(k) == home).unwrap();
    file.crash_data_bucket(home);

    let fresh = file.add_client();
    assert_eq!(file.client_image(fresh), (0, 0), "a one-bucket image");
    assert_eq!(file.lookup_via(fresh, key), Ok(Some(payload(key, 0))));
    assert_eq!(file.metrics().counter("degraded_reads"), 1);
    file.update(key, payload(key, 1)).unwrap();
    assert_eq!(file.lookup_via(fresh, key), Ok(Some(payload(key, 1))));
    for k in (0..keys).filter(|&k| k != key) {
        assert_eq!(file.lookup(k), Ok(Some(payload(k, 0))), "key {k}");
    }
    file.verify_integrity().unwrap();
}

/// A focused partition drill: isolate one data node for a fixed window.
/// Operations during the window may fail after retries (tolerated); once
/// the partition lifts, every acknowledged record must be readable —
/// whether the coordinator recovered the bucket onto a spare mid-window or
/// the original node answered again after healing.
#[test]
fn timed_partition_heals_without_acked_loss() {
    let mut file = LhrsFile::new(chaos_cfg()).unwrap();
    for key in 0..40u64 {
        file.insert(key, payload(key, 0)).unwrap();
    }
    let now = file.now_us();
    let victim = file.data_node_id(1);
    file.set_fault_plan(FaultPlan::new(9).partition(Partition::new(
        vec![victim],
        now,
        now + 60_000,
    )));

    let mut acked: Vec<u64> = (0..40).collect();
    for key in 40..70u64 {
        match file.insert(key, payload(key, 0)) {
            Ok(()) => acked.push(key),
            Err(Error::Stuck(_)) => {}
            Err(e) => panic!("insert {key}: {e}"),
        }
    }
    assert!(
        file.metrics().counter("partition_dropped") > 0,
        "the partition must actually drop traffic"
    );

    file.clear_fault_plan();
    let _ = file.lookup(0);
    for key in acked {
        assert_eq!(
            file.lookup(key).unwrap().unwrap(),
            payload(key, 0),
            "acked key {key} lost across the partition"
        );
    }
    file.verify_integrity().unwrap();
}

/// A dead parity bucket is found by the data bucket whose Δs it stops
/// acking: the Δ window's give-up reports the group, and the group's check
/// rebuilds the parity. A later failure of a data bucket in that group is
/// then the group's only one, within k = 1, and loses no acked key.
#[test]
fn a_dead_parity_bucket_is_rebuilt_before_the_next_failure() {
    let mut file = LhrsFile::new(Config {
        group_size: 2,
        initial_k: 1,
        ..chaos_cfg()
    })
    .unwrap();
    file.crash_parity_bucket(0, 0);
    for key in 0..50u64 {
        file.insert(key, payload(key, 0)).unwrap();
    }
    file.crash_data_bucket(0);
    for key in 0..50u64 {
        assert_eq!(
            file.lookup(key),
            Ok(Some(payload(key, 0))),
            "acked key {key}"
        );
    }
    file.verify_integrity().unwrap();
    let found =
        |e: &Event| matches!(e, Event::FailureDetected { group: 0, shards } if shards == &[2]);
    assert!(
        file.events().iter().any(|e| found(&e.event)),
        "the silent parity was reported and found dead"
    );
}

/// A lost `InitParity` heals like a dead parity bucket: the new group's
/// parity node stays blank, so the Δ window of the group's first data
/// bucket gives up, and the check it opens finds the shard dead and
/// rebuilds it on a spare. The split sends its init orders once.
#[test]
fn a_lost_parity_init_is_rebuilt_by_the_group_check() {
    let cfg = Config {
        group_size: 2,
        initial_k: 1,
        ..chaos_cfg()
    };
    // Insert keys from `next` on until the file has `buckets` buckets.
    let grow = |file: &mut LhrsFile, next: &mut u64, buckets: u64| {
        while file.bucket_count() < buckets {
            file.insert(*next, payload(*next, 0)).unwrap();
            *next += 1;
        }
    };
    // The run is deterministic: a first pass names the node that becomes
    // group 1's parity.
    let victim = {
        let mut file = LhrsFile::new(cfg.clone()).unwrap();
        grow(&mut file, &mut 0, 3);
        file.parity_node_id(1, 0)
    };

    let mut file = LhrsFile::new(cfg).unwrap();
    let mut next = 0;
    grow(&mut file, &mut next, 2);
    let now = file.now_us();
    let partition = Partition::new(vec![victim], now, now + 200_000);
    file.set_fault_plan(FaultPlan::new(1).partition(partition));
    grow(&mut file, &mut next, 3);
    for _ in 0..60 {
        file.insert(next, payload(next, 0)).unwrap();
        next += 1;
    }
    assert!(file.metrics().counter("partition_dropped") > 0);
    file.clear_fault_plan();

    for key in 0..next {
        assert_eq!(
            file.lookup(key),
            Ok(Some(payload(key, 0))),
            "acked key {key}"
        );
    }
    file.verify_integrity().unwrap();
    let found =
        |e: &Event| matches!(e, Event::FailureDetected { group: 1, shards } if shards == &[2]);
    assert!(
        file.events().iter().any(|e| found(&e.event)),
        "the blank parity was found dead"
    );
    assert_ne!(file.parity_node_id(1, 0), victim, "rebuilt on a spare");
}

/// A Δ window whose parity no check can rebuild (its group has lost more
/// than k shards) gives up, reports, tries one new budget, reports again
/// and goes silent: the run settles instead of re-sending for ever.
#[test]
fn a_window_whose_parity_cannot_be_rebuilt_goes_silent() {
    let mut file = LhrsFile::new(Config {
        group_size: 2,
        initial_k: 1,
        ..chaos_cfg()
    })
    .unwrap();
    let mut key = 0;
    while file.bucket_count() < 2 {
        file.insert(key, payload(key, 0)).unwrap();
        key += 1;
    }
    file.crash_parity_bucket(0, 0);
    file.crash_data_bucket(1);
    let key = (key..).find(|&k| file.address_of(k) == 0).unwrap();
    let reports = file.stats().count("check-group");
    file.insert(key, payload(key, 0)).unwrap();
    assert_eq!(file.stats().count("check-group") - reports, 2);
    assert_eq!(file.lookup(key), Ok(Some(payload(key, 0))));
}
