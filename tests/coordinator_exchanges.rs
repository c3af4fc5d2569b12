//! Every exchange of every node gives up the way it says it does.
//!
//! The coordinator retries each request it sends (group check, shard
//! collection for repair or upgrade, split, merge, file-state scan,
//! degraded read, Δ-suffix pull) for `coord_retries` more rounds and then
//! concludes. One row per exchange blackholes that exchange's peers with a
//! [`Partition`] that lifts exactly `coord_retries + 1` periods after the
//! exchange starts, and pins two things:
//!
//! * the give-up outcome (what the coordinator does instead), and
//! * that exactly `coord_retries + 1` rounds of the request went to the
//!   silent peers, counted in `msgs_sent{kind}` (plus whatever the rest of
//!   the scenario sends of that kind, which each row states).
//!
//! The group check is the coordinator's one liveness question, and a
//! client's `Suspect` opens it. Two rows pin its schedule from the
//! suspicion on: a dead bucket is detected exactly `coord_retries + 1`
//! probe periods after the `Suspect` lands, and a bucket that is slow but
//! answers the check's last round is a false alarm that rebuilds nothing.
//!
//! A data bucket keeps three rows of its own (DESIGN.md §2.4): the Δ
//! window re-sends unacknowledged Δs for `DELTA_RETRY_LIMIT` rounds
//! without progress, while the write freeze and the restart catch-up are
//! watchdogs that re-send nothing and conclude on their first expiry. The
//! second table pins each row's re-sends and give-up outcome the same way.
//!
//! The client is the third owner. A request (a lookup, or a write with
//! `ack_writes`) is re-sent `client_retries` times with a doubling period,
//! then reported to the coordinator in one `Suspect`, and fails once the
//! escalation watchdog expires; a deterministic scan re-sends to the buckets
//! that have not replied and then fails; a probabilistic scan completes when
//! its silence window expires. The third table pins each client row's
//! re-sends, their times and its give-up outcome, on configurations that
//! push the periods to the end of the clock as well.
//!
//! Every drill but the freeze runs on the zero-latency network, so each
//! exchange starts at a simulated time the test can compute and the
//! windows are exact; the freeze drill needs a message between two others
//! of the same instant to go missing, so it runs on a fixed latency.

use lhrs_core::data_bucket::DELTA_RETRY_LIMIT;
use lhrs_core::storage::{MemHub, StoreId};
use lhrs_core::{
    Config, Error, FaultPlan, FilterSpec, LhrsFile, NodeId, Partition, ScanTermination,
};
use lhrs_obs::Event;
use lhrs_sim::LatencyModel;

const RETRIES: u32 = 3;
const ROUNDS: u64 = RETRIES as u64 + 1;

fn cfg(k: usize) -> Config {
    Config {
        group_size: 4,
        initial_k: k,
        bucket_capacity: 8,
        record_len: 16,
        ack_writes: true,
        ack_parity: true,
        // A lost request escalates to the coordinator after one timeout.
        client_retries: 0,
        coord_retries: RETRIES,
        latency: LatencyModel::instant(),
        node_pool: 64,
        ..Config::default()
    }
}

fn payload(key: u64) -> Vec<u8> {
    format!("v{key}").into_bytes()
}

/// Insert keys 0, 1, … until the file has `buckets` buckets, then read
/// them all back (which also brings the client's image up to date, so the
/// drills' requests go straight to the right bucket); returns the number
/// of keys inserted.
fn grow(file: &mut LhrsFile, buckets: u64) -> u64 {
    let mut keys = 0;
    while file.bucket_count() < buckets {
        file.insert(keys, payload(keys)).unwrap();
        keys += 1;
    }
    assert_eq!(file.bucket_count(), buckets);
    for key in 0..keys {
        assert_eq!(file.lookup(key).unwrap(), Some(payload(key)));
    }
    keys
}

fn grown(k: usize, buckets: u64) -> (LhrsFile, u64) {
    grown_with(cfg(k), buckets)
}

fn grown_with(c: Config, buckets: u64) -> (LhrsFile, u64) {
    let mut file = LhrsFile::new(c).unwrap();
    let keys = grow(&mut file, buckets);
    (file, keys)
}

/// An inserted key that lives in `bucket`.
fn key_in(file: &LhrsFile, keys: u64, bucket: u64) -> u64 {
    (0..keys)
        .find(|k| file.address_of(*k) == bucket)
        .expect("bucket holds a key")
}

/// Isolate `nodes` during `[from, from + len)`.
fn blackhole(file: &mut LhrsFile, nodes: Vec<NodeId>, from: u64, len: u64) {
    file.set_fault_plan(FaultPlan::new(0).partition(Partition::new(nodes, from, from + len)));
}

fn sent(file: &LhrsFile, kind: &'static str) -> u64 {
    file.metrics().counter_kind("msgs_sent", kind)
}

/// The trace's next sequence number: a cursor for [`events_since`].
fn cursor(file: &LhrsFile) -> u64 {
    file.metrics().trace_log().unwrap().pushed()
}

/// The events traced since `cursor`, none lost to the ring's wraparound.
fn events_since(file: &LhrsFile, cursor: u64) -> Vec<Event> {
    let events: Vec<Event> = file
        .events()
        .into_iter()
        .filter(|e| e.seq >= cursor)
        .map(|e| e.event)
        .collect();
    assert_eq!(events.len() as u64, self::cursor(file) - cursor);
    events
}

/// What one drill measured: requests of the row's kind sent during the
/// drill, and how many of them did not go to the silent peers (answered
/// first-round requests, and the outcome's own requests).
struct Sent {
    total: u64,
    others: u64,
}

/// A drill: set up, blackhole, trigger, assert the outcome; takes the
/// `msgs_sent` kind it counts.
type Drill = fn(&'static str) -> Sent;

/// A suspected bucket is dead. The `Suspect` opens the check of its group,
/// and the check's one budget of rounds is the whole detection: the
/// verdict lands `coord_retries + 1` probe periods after the `Suspect`,
/// serves the parked lookup degraded and rebuilds the bucket.
fn suspect_dead(kind: &'static str) -> Sent {
    let (mut file, keys) = grown(1, 4);
    let key = key_in(&file, keys, 0);
    let c = file.config().clone();
    file.crash_data_bucket(0);
    // The lookup goes unanswered; the client suspects the bucket one
    // timeout later, and the `Suspect` lands at once.
    let suspected = file.now_us() + c.client_timeout_us;
    let (before, ev) = (sent(&file, kind), cursor(&file));
    assert_eq!(file.lookup(key).unwrap(), Some(payload(key)));
    let detected_at: Vec<u64> = file
        .events()
        .into_iter()
        .filter(|e| e.seq >= ev && matches!(e.event, Event::FailureDetected { .. }))
        .map(|e| e.at_us)
        .collect();
    assert_eq!(
        detected_at,
        vec![suspected + ROUNDS * c.probe_timeout_us],
        "one detection budget after the Suspect"
    );
    assert_eq!(file.metrics().counter("recoveries_completed"), 1);
    file.verify_integrity().unwrap();
    Sent {
        total: sent(&file, kind) - before,
        others: 4, // the answering buckets 1-3 and the parity bucket
    }
}

/// A suspected bucket is slow but alive: it stays silent until just
/// before the check's last round and answers that one. The verdict is a
/// false alarm: nothing is detected or rebuilt, and the parked lookup is
/// replayed to the bucket.
fn suspect_slow(kind: &'static str) -> Sent {
    let (mut file, keys) = grown(1, 4);
    let key = key_in(&file, keys, 0);
    let c = file.config().clone();
    let t0 = file.now_us();
    let node = file.data_node_id(0);
    let last_round = t0 + c.client_timeout_us + u64::from(RETRIES) * c.probe_timeout_us;
    blackhole(&mut file, vec![node], t0, last_round - t0);
    let (before, acks, ev) = (sent(&file, kind), sent(&file, "probe-ack"), cursor(&file));
    assert_eq!(file.lookup(key).unwrap(), Some(payload(key)));
    assert_eq!(events_since(&file, ev), vec![], "no failure detected");
    assert_eq!(file.metrics().counter("recoveries_started"), 0);
    Sent {
        total: sent(&file, kind) - before,
        // Every probe to another shard is answered at once; the slow
        // bucket answers only its last round.
        others: sent(&file, "probe-ack") - acks - 1,
    }
}

/// A group check re-probes its silent shards, then declares them failed.
fn check(kind: &'static str) -> Sent {
    let (mut file, _) = grown(1, 4);
    let c = file.config().clone();
    let t0 = file.now_us();
    let node = file.parity_node_id(0, 0);
    blackhole(&mut file, vec![node], t0, ROUNDS * c.probe_timeout_us);
    let before = sent(&file, kind);
    let report = file.check_group(0);
    assert_eq!(
        report.failed_shards,
        vec![4],
        "verdict on the silent parity"
    );
    assert!(report.recovered);
    Sent {
        total: sent(&file, kind) - before,
        others: 4, // the answering data buckets, first round
    }
}

/// A repair whose survivor stops answering is abandoned and the group
/// re-audited; the second repair succeeds.
fn repair(kind: &'static str) -> Sent {
    let (mut file, _) = grown(1, 4);
    let c = file.config().clone();
    file.crash_data_bucket(0);
    let collect_at = file.now_us() + ROUNDS * c.probe_timeout_us;
    let node = file.data_node_id(1);
    blackhole(
        &mut file,
        vec![node],
        collect_at,
        ROUNDS * c.coord_retransmit_us,
    );
    let (before, ev) = (sent(&file, kind), cursor(&file));
    file.check_group(0);
    let detected = Event::FailureDetected {
        group: 0,
        shards: vec![0],
    };
    let started = Event::RecoveryStart {
        group: 0,
        failed: 1,
    };
    // Detected, started and abandoned; re-audited, rebuilt.
    let events = events_since(&file, ev);
    let [d1, s1, d2, s2, Event::RecoveryShard {
        group: 0, shard: 0, ..
    }, end] = events.as_slice()
    else {
        panic!("re-audit after the abandoned repair: {events:?}")
    };
    assert_eq!([d1, s1, d2, s2], [&detected, &started, &detected, &started]);
    let rebuilt = Event::RecoveryEnd {
        group: 0,
        rebuilt: 1,
        ok: true,
    };
    assert_eq!(end, &rebuilt);
    Sent {
        total: sent(&file, kind) - before,
        // First repair: buckets 2, 3 and the parity answer; second: all 4.
        others: 3 + 4,
    }
}

/// An upgrade whose column stops answering goes back to the end of the
/// upgrade queue: group 1 upgrades first, then group 0 on its second try.
fn upgrade(kind: &'static str) -> Sent {
    let mut file = LhrsFile::new(Config {
        // Crossing M = 4 raises the file to k = 2 (eager upgrades).
        scale_thresholds: vec![4],
        ..cfg(1)
    })
    .unwrap();
    let mut key = grow(&mut file, 4);
    let c = file.config().clone();
    let node = file.data_node_id(3);
    let (before, ev) = (sent(&file, kind), cursor(&file));
    // The insert that splits bucket 0 into 4 starts both upgrades at the
    // same simulated instant; every insert avoids the silent bucket 3.
    while file.bucket_count() == 4 {
        if file.address_of(key) != 3 {
            let now = file.now_us();
            blackhole(&mut file, vec![node], now, ROUNDS * c.coord_retransmit_us);
            file.insert(key, payload(key)).unwrap();
        }
        key += 1;
    }
    let upgraded: Vec<Event> = events_since(&file, ev)
        .into_iter()
        .filter(|e| matches!(e, Event::GroupUpgraded { .. }))
        .collect();
    assert_eq!(
        upgraded,
        vec![
            Event::GroupUpgraded { group: 1, k: 2 },
            Event::GroupUpgraded { group: 0, k: 2 },
        ],
        "group 0 re-queued behind group 1"
    );
    Sent {
        total: sent(&file, kind) - before,
        // Group 0 first try: buckets 0-2; group 1: bucket 4; group 0 again: 4.
        others: 3 + 1 + 4,
    }
}

/// A split whose source never confirms is abandoned: the target's group is
/// audited and the coordinator is free again (a merge is accepted).
fn split(kind: &'static str) -> Sent {
    let (mut file, mut key) = grown(1, 4);
    let c = file.config().clone();
    let source = file.data_node_id(0);
    let (before, probes) = (sent(&file, kind), sent(&file, "probe"));
    while file.bucket_count() == 4 {
        if file.address_of(key) != 0 {
            let now = file.now_us();
            blackhole(&mut file, vec![source], now, ROUNDS * c.coord_retransmit_us);
            file.insert(key, payload(key)).unwrap();
        }
        key += 1;
    }
    let total = sent(&file, kind) - before;
    assert_eq!(
        sent(&file, "probe") - probes,
        2,
        "audit of the target group: bucket 4 and its parity"
    );
    let ev = cursor(&file);
    assert!(file.force_merge(), "no structural work left in flight");
    assert!(matches!(
        events_since(&file, ev).as_slice(),
        [Event::MergeDone { removed: 4, .. }]
    ));
    Sent { total, others: 0 }
}

/// A merge whose target never answers is abandoned; the next merge is
/// accepted.
fn merge(kind: &'static str) -> Sent {
    let (mut file, _) = grown(1, 5);
    let c = file.config().clone();
    let t0 = file.now_us();
    let node = file.data_node_id(4);
    blackhole(&mut file, vec![node], t0, ROUNDS * c.coord_retransmit_us);
    let (before, ev) = (sent(&file, kind), cursor(&file));
    file.force_merge();
    assert_eq!(events_since(&file, ev), vec![], "merge abandoned");
    let total = sent(&file, kind) - before;
    let ev = cursor(&file);
    file.force_merge();
    assert!(matches!(
        events_since(&file, ev).as_slice(),
        [Event::MergeDone { .. }]
    ));
    Sent { total, others: 0 }
}

/// A file-state scan with a silent bucket gives up and keeps the state.
fn state_scan(kind: &'static str) -> Sent {
    let (mut file, _) = grown(1, 4);
    let c = file.config().clone();
    let state = file.drill_file_state_recovery();
    let t0 = file.now_us();
    let node = file.data_node_id(1);
    blackhole(&mut file, vec![node], t0, ROUNDS * c.coord_retransmit_us);
    let (before, ev) = (sent(&file, kind), cursor(&file));
    assert_eq!(file.drill_file_state_recovery(), state);
    assert_eq!(events_since(&file, ev), vec![], "no StateRecovered");
    Sent {
        total: sent(&file, kind) - before,
        others: 3, // the answering buckets 0, 2, 3
    }
}

/// A degraded read whose parity bucket stays silent fails the lookup.
fn degraded(kind: &'static str) -> Sent {
    let (mut file, keys) = grown(1, 4);
    let key = key_in(&file, keys, 0);
    let c = file.config().clone();
    file.crash_data_bucket(0);
    // Client timeout → Suspect; the group check it opens waits out its
    // rounds before the verdict starts the degraded read.
    let read_at = file.now_us() + c.client_timeout_us + ROUNDS * c.probe_timeout_us;
    let node = file.parity_node_id(0, 0);
    blackhole(
        &mut file,
        vec![node],
        read_at,
        ROUNDS * c.coord_retransmit_us,
    );
    let before = sent(&file, kind);
    match file.lookup(key) {
        Err(Error::Stuck(why)) => assert_eq!(why, "degraded read timed out"),
        other => panic!("degraded read must time out: {other:?}"),
    }
    Sent {
        total: sent(&file, kind) - before,
        others: 0,
    }
}

/// A Δ-suffix pull no parity bucket answers falls back to the RS rebuild.
fn suffix(kind: &'static str) -> Sent {
    let mut file = LhrsFile::new(cfg(1)).unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    grow(&mut file, 4);
    let c = file.config().clone();
    file.crash_data_bucket(0);
    let t0 = file.now_us();
    let node = file.parity_node_id(0, 0);
    blackhole(&mut file, vec![node], t0, ROUNDS * c.probe_timeout_us);
    let before = sent(&file, kind);
    file.restart_data_bucket_from_store(0).unwrap();
    assert_eq!(file.metrics().counter("restart_fallbacks"), 1);
    Sent {
        total: sent(&file, kind) - before,
        others: 0,
    }
}

#[test]
fn every_exchange_gives_up_after_coord_retries_plus_one_rounds() {
    // (exchange, `msgs_sent` kind of its request, drill)
    let rows: [(&str, &'static str, Drill); 10] = [
        ("suspected bucket dead", "probe", suspect_dead),
        ("suspected bucket slow but alive", "probe", suspect_slow),
        ("group check", "probe", check),
        ("repair", "transfer-req", repair),
        ("upgrade", "transfer-req", upgrade),
        ("split", "split", split),
        ("merge", "merge", merge),
        ("state scan", "state-query", state_scan),
        ("degraded read", "find-record", degraded),
        ("suffix pull", "suffix-pull", suffix),
    ];
    for (exchange, request, drill) in rows {
        let sent = drill(request);
        // Every row blackholes one peer, so each round sends it one request.
        assert_eq!(
            sent.total,
            ROUNDS + sent.others,
            "{}: `{}` requests sent ({} answered or from the outcome)",
            exchange,
            request,
            sent.others
        );
    }
}

/// The Δ window: a parity bucket that never acks is sent the window's
/// pending Δs once per `delta_retransmit_us` until `DELTA_RETRY_LIMIT`
/// rounds pass without watermark progress, then the row concludes. The
/// next write re-opens it, which repairs the parity once the peer is back.
fn delta_window(kind: &'static str) -> Sent {
    let mut file = LhrsFile::new(cfg(1)).unwrap();
    file.insert(0, payload(0)).unwrap();
    let c = file.config().clone();
    let t0 = file.now_us();
    let node = file.parity_node_id(0, 0);
    let rounds = u64::from(DELTA_RETRY_LIMIT) + 1;
    blackhole(&mut file, vec![node], t0, rounds * c.delta_retransmit_us);
    let before = sent(&file, kind) + sent(&file, "parity-delta");
    // The write's `ParityDelta` is the first round; it is lost, and so is
    // every re-send. The run settles only once the row has concluded.
    file.insert(1, payload(1)).unwrap();
    let total = sent(&file, kind) + sent(&file, "parity-delta") - before;
    assert_eq!(
        file.now_us(),
        t0 + rounds * c.delta_retransmit_us,
        "silence after the last no-progress round"
    );
    assert!(file.verify_integrity().is_err(), "parity missed a Δ");
    // A fresh Δ re-opens the row: its first round re-sends the lost Δ
    // along with the new one.
    file.clear_fault_plan();
    file.insert(2, payload(2)).unwrap();
    file.verify_integrity().unwrap();
    for key in 0..3 {
        assert_eq!(file.lookup(key).unwrap(), Some(payload(key)));
    }
    Sent { total, others: 0 }
}

/// The write freeze: a survivor whose `ResumeWrites` is lost unfreezes on
/// its own when the watchdog expires, and applies the write it held.
///
/// Bucket 0 is dead. An update to bucket 1 is lost, and the client's
/// `Suspect` parks it on group 0 and opens the group check; the check
/// finds bucket 0 dead, the survivors freeze for the shard collection,
/// and bucket 1 misses the `ResumeWrites`. The parked update reaches it
/// after the rebuild and waits out the freeze.
fn freeze(kind: &'static str) -> Sent {
    const L: u64 = 100;
    let mut file = LhrsFile::new(Config {
        latency: LatencyModel::fixed(L),
        ..cfg(1)
    })
    .unwrap();
    let keys = grow(&mut file, 4);
    let key = key_in(&file, keys, 1);
    let c = file.config().clone();
    file.crash_data_bucket(0);
    let node = file.data_node_id(1);
    let t0 = file.now_us();
    // The client sends the update at t0 + L and suspects one timeout
    // later; the check's first probes leave as the `Suspect` lands.
    let check = t0 + L + c.client_timeout_us + L;
    // The probe answers arrive by `check + 2L`; the collection starts
    // when the last re-probe of bucket 0 times out.
    let collect = check + ROUNDS * c.probe_timeout_us;
    // Bucket 1 is silent until the check and answers it. In the
    // collection, TransferShard lands at +L and ShardData at +2L, when
    // `ResumeWrites` leaves: lose just that one.
    file.set_fault_plan(
        FaultPlan::new(0)
            .partition(Partition::new(
                vec![node],
                t0,
                check - c.probe_timeout_us / 2,
            ))
            .partition(Partition::new(
                vec![node],
                collect + 2 * L - L / 2,
                collect + 2 * L + L / 2,
            )),
    );
    let before = sent(&file, kind);
    file.update(key, b"held".to_vec()).unwrap();
    // Lost: the update and the one `ResumeWrites`.
    let lost = 1 + 1;
    assert_eq!(file.metrics().counter("partition_dropped"), lost);
    assert_eq!(file.metrics().counter("recovery_freeze_expired"), 1);
    assert_eq!(file.lookup(key).unwrap(), Some(b"held".to_vec()));
    file.verify_integrity().unwrap();
    Sent {
        total: sent(&file, kind) - before,
        others: 3, // buckets 2, 3 and the parity bucket
    }
}

/// The restart catch-up: a restarted bucket whose `RestartReport` is lost
/// never re-sends it. Its watchdog concludes the handshake into an abort,
/// and the coordinator rebuilds the bucket from its group.
fn catchup(kind: &'static str) -> Sent {
    let mut file = LhrsFile::new(cfg(1)).unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    let keys = grow(&mut file, 4);
    let node = file.data_node_id(0);
    file.crash_data_bucket(0);
    hub.disk(&StoreId::Data { bucket: 0 })
        .expect("bucket 0 has a disk")
        .truncate_ops(0);
    let now = file.now_us();
    blackhole(&mut file, vec![node], now, 1);
    let before = sent(&file, kind);
    let _ = file.restart_data_bucket_from_store(0).unwrap();
    let total = sent(&file, kind) - before;
    file.clear_fault_plan();
    let m = file.metrics();
    assert_eq!(m.counter("restart_aborts"), 1, "the watchdog fired");
    assert_eq!(m.counter("restart_fallbacks"), 1);
    assert_eq!(m.counter("restart_recoveries"), 0);
    assert!(m.counter("recovery_shards_rebuilt") >= 1, "RS rebuild");
    for key in 0..keys {
        assert_eq!(file.lookup(key).unwrap(), Some(payload(key)));
    }
    file.verify_integrity().unwrap();
    Sent { total, others: 0 }
}

#[test]
fn every_data_bucket_row_gives_up_the_way_it_says() {
    // (row, `msgs_sent` kind of its request, rounds the request goes
    // out before the row concludes, drill)
    let rows: [(&str, &'static str, u64, Drill); 3] = [
        // The first round is the write's own `ParityDelta`.
        (
            "Δ window",
            "parity-batch",
            u64::from(DELTA_RETRY_LIMIT) + 1,
            delta_window,
        ),
        // The watchdogs re-send nothing: the frozen bucket ships its shard
        // once, the restarted one its boot report once.
        ("freeze", "transfer-data", 1, freeze),
        ("catch-up", "restart-report", 1, catchup),
    ];
    for (row, request, rounds, drill) in rows {
        let sent = drill(request);
        assert_eq!(
            sent.total,
            rounds + sent.others,
            "{}: `{}` sent ({} from the rest of the scenario)",
            row,
            request,
            sent.others
        );
    }
}

/// The client's configuration: `RETRIES` re-sends per request, with a
/// backoff cap that the last of them reaches.
fn client_cfg() -> Config {
    Config {
        client_retries: RETRIES,
        retry_backoff_cap_us: 40_000,
        ..cfg(1)
    }
}

/// How long a request's round `round` waits: the client timeout doubled
/// per round, capped.
fn backoff(c: &Config, round: u32) -> u64 {
    let doubled = 1u64
        .checked_shl(round)
        .map_or(u64::MAX, |f| c.client_timeout_us.saturating_mul(f));
    doubled.min(c.retry_backoff_cap_us)
}

/// A lookup whose bucket and coordinator stay silent: the lookup goes out
/// once and is re-sent `client_retries` times at the backed-off times,
/// then one `Suspect` goes out, and the op fails when the escalation
/// watchdog (`client_timeout_us × 50`) expires.
fn give_up(c: Config, kind: &'static str) -> Sent {
    let (mut file, keys) = grown_with(c, 4);
    let key = key_in(&file, keys, 0);
    let c = file.config().clone();
    let t0 = file.now_us();
    let nodes = vec![file.data_node_id(0), file.coordinator_node_id()];
    blackhole(&mut file, nodes, t0, u64::MAX - t0);
    let (before, suspects, ev) = (sent(&file, kind), sent(&file, "suspect"), cursor(&file));
    match file.lookup(key) {
        Err(Error::Stuck(why)) => assert_eq!(why, "request unrecoverable or timed out"),
        other => panic!("the lookup must give up: {other:?}"),
    }
    let retried_at: Vec<u64> = file
        .events()
        .into_iter()
        .filter(|e| e.seq >= ev && matches!(e.event, Event::Retry { .. }))
        .map(|e| e.at_us)
        .collect();
    let mut at = t0;
    let backed_off: Vec<u64> = (0..c.client_retries)
        .map(|round| {
            at = at.saturating_add(backoff(&c, round));
            at
        })
        .collect();
    assert_eq!(retried_at, backed_off, "re-sent at the backed-off times");
    assert_eq!(sent(&file, "suspect") - suspects, 1, "one escalation");
    let suspected_at = at.saturating_add(backoff(&c, c.client_retries));
    let watchdog = c.client_timeout_us.saturating_mul(50);
    assert_eq!(file.now_us(), suspected_at.saturating_add(watchdog));
    Sent {
        total: sent(&file, kind) - before,
        others: 0,
    }
}

fn request(kind: &'static str) -> Sent {
    give_up(client_cfg(), kind)
}

/// Periods at the end of the clock: a retry count past the width of the
/// backoff shift, and a timeout whose escalation watchdog overflows. Both
/// saturate and reach the request row's give-up outcome.
fn overflow(kind: &'static str) -> Sent {
    let many = give_up(
        Config {
            client_retries: MANY_RETRIES,
            ..client_cfg()
        },
        kind,
    );
    let huge = u64::MAX / 40;
    let late = give_up(
        Config {
            client_timeout_us: huge,
            retry_backoff_cap_us: huge,
            ..client_cfg()
        },
        kind,
    );
    Sent {
        total: many.total + late.total,
        others: 0,
    }
}

/// Past the 64-bit shift width.
const MANY_RETRIES: u32 = 70;

/// A deterministic scan with a silent bucket re-sends to that bucket only,
/// once per `client_timeout_us × 50`, and fails after `client_retries`
/// re-sends.
fn scan(kind: &'static str) -> Sent {
    let (mut file, _) = grown_with(client_cfg(), 4);
    let c = file.config().clone();
    let t0 = file.now_us();
    let node = file.data_node_id(1);
    blackhole(&mut file, vec![node], t0, u64::MAX - t0);
    let before = sent(&file, kind);
    match file.scan(FilterSpec::All) {
        Err(Error::Stuck(why)) => assert_eq!(why, "scan timed out"),
        other => panic!("the scan must time out: {other:?}"),
    }
    assert_eq!(file.metrics().counter("partition_dropped"), ROUNDS);
    assert_eq!(file.now_us(), t0 + ROUNDS * c.client_timeout_us * 50);
    Sent {
        total: sent(&file, kind) - before,
        others: 3, // the answering buckets 0, 2, 3
    }
}

/// A probabilistic scan with a silent bucket completes with the other
/// buckets' hits when its silence window expires.
fn silence(kind: &'static str) -> Sent {
    const SILENCE: u64 = 50_000;
    let (mut file, keys) = grown_with(
        Config {
            scan_termination: ScanTermination::Probabilistic {
                silence_us: SILENCE,
            },
            ..client_cfg()
        },
        4,
    );
    let t0 = file.now_us();
    let node = file.data_node_id(1);
    blackhole(&mut file, vec![node], t0, u64::MAX - t0);
    let before = sent(&file, kind);
    let hits: Vec<u64> = file
        .scan(FilterSpec::All)
        .unwrap()
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    let others: Vec<u64> = (0..keys).filter(|k| file.address_of(*k) != 1).collect();
    assert_eq!(hits, others, "every hit but the silent bucket's");
    assert_eq!(file.now_us(), t0 + SILENCE);
    Sent {
        total: sent(&file, kind) - before,
        others: 3, // the answering buckets 0, 2, 3
    }
}

#[test]
fn every_client_row_gives_up_the_way_it_says() {
    // (row, `msgs_sent` kind of its request, rounds the request goes out
    // to the silent peer before the row concludes, drill)
    let rows: [(&str, &'static str, u64, Drill); 4] = [
        ("request", "lookup", ROUNDS, request),
        ("deterministic scan", "scan", ROUNDS, scan),
        // A watchdog: the scan goes out once.
        ("probabilistic scan", "scan", 1, silence),
        (
            "request at the end of the clock",
            "lookup",
            u64::from(MANY_RETRIES) + 1 + ROUNDS,
            overflow,
        ),
    ];
    for (row, request, rounds, drill) in rows {
        let sent = drill(request);
        assert_eq!(
            sent.total,
            rounds + sent.others,
            "{}: `{}` sent ({} answered)",
            row,
            request,
            sent.others
        );
    }
}
