//! The data-bucket replay cache stays bounded by [`REPLAY_CACHE_CAP`]
//! under sustained retried writes, evicting
//! least-recently-*used*: recent duplicates are still suppressed, evicted
//! ones re-execute, and — the pipelined-client case — an old id whose
//! retries keep touching the cache outlives colder entries that plain
//! FIFO insertion order would have kept instead.

use lhrs_core::data_bucket::{DataBucket, REPLAY_CACHE_CAP};
use lhrs_core::msg::{Msg, OpResult, ReqKind};
use lhrs_core::registry::Shared;
use lhrs_core::Config;
use lhrs_obs::Metrics;
use lhrs_sim::{Effect, Env, NodeId};

const CAP: usize = REPLAY_CACHE_CAP;

fn test_bucket() -> DataBucket {
    let cfg = Config {
        ack_writes: true,
        bucket_capacity: 4 * CAP, // never overflow in this test
        ..Config::default()
    };
    let shared = Shared::new(cfg);
    // No registry entries: the bucket is level 0 (every key routes here)
    // and the group has no parity buckets, so no Δs are emitted.
    DataBucket::new(shared, 0, 0)
}

/// Drive one request straight into the bucket via an external Env (the
/// same harness a socket host uses) and return the reply, if any.
fn drive(bucket: &mut DataBucket, client: NodeId, op_id: u64, kind: ReqKind) -> Option<OpResult> {
    let mut next_timer = 0u64;
    let mut effects: Vec<Effect<Msg>> = Vec::new();
    let metrics = Metrics::disabled();
    let mut env = Env::external(NodeId(0), 0, &mut next_timer, &mut effects, &metrics);
    bucket.on_message(
        &mut env,
        client,
        Msg::Req {
            op_id,
            client,
            intended: 0,
            hops: 0,
            kind,
        },
    );
    effects.into_iter().find_map(|e| match e {
        Effect::Send {
            msg: Msg::Reply { result, .. },
            ..
        } => Some(result),
        _ => None,
    })
}

#[test]
fn cache_is_lru_bounded() {
    let mut bucket = test_bucket();
    let client = NodeId(99);

    // More distinct writes than the cap: the cache must never exceed it.
    for op in 0..CAP as u64 + 42 {
        let r = drive(&mut bucket, client, op, ReqKind::Insert(op, vec![op as u8]));
        assert_eq!(r, Some(OpResult::Inserted));
        assert!(
            bucket.replay_cache_len() <= CAP,
            "cache grew to {} after op {op} (cap {CAP})",
            bucket.replay_cache_len()
        );
    }
    assert_eq!(bucket.replay_cache_len(), CAP);
}

#[test]
fn recent_duplicate_is_suppressed_evicted_one_reexecutes() {
    let mut bucket = test_bucket();
    let client = NodeId(99);
    let last = CAP as u64 + 11;
    for op in 0..=last {
        drive(&mut bucket, client, op, ReqKind::Insert(op, vec![1]));
    }

    // The last op is still cached: the retry is answered from the cache
    // with the original result, not re-executed (a re-run insert of an
    // existing key would say DuplicateKey).
    let r = drive(&mut bucket, client, last, ReqKind::Insert(last, vec![1]));
    assert_eq!(r, Some(OpResult::Inserted), "cached result replayed");

    // Op 0 went cold and was evicted (more entries than the cap, never
    // touched since): its retry re-executes, and the re-run insert sees the
    // existing key.
    let r = drive(&mut bucket, client, 0, ReqKind::Insert(0, vec![1]));
    assert_eq!(r, Some(OpResult::DuplicateKey), "evicted retry re-executed");
}

#[test]
fn sustained_retries_do_not_grow_the_cache() {
    let mut bucket = test_bucket();
    let client = NodeId(7);
    // Interleave fresh writes with retries of recent ones.
    for round in 0..CAP as u64 + 22 {
        drive(&mut bucket, client, round, ReqKind::Insert(round, vec![0]));
        // Retry every op still plausibly in flight.
        for back in 0..4 {
            let op = round.saturating_sub(back);
            drive(&mut bucket, client, op, ReqKind::Insert(op, vec![0]));
            assert!(bucket.replay_cache_len() <= CAP);
        }
    }
    assert_eq!(bucket.replay_cache_len(), CAP);
}

#[test]
fn retried_id_outlives_colder_entries() {
    let mut bucket = test_bucket();
    let client = NodeId(3);
    // Fill the cache to its cap.
    for op in 0..CAP as u64 {
        drive(&mut bucket, client, op, ReqKind::Insert(op, vec![0]));
    }

    // A pipelined client's out-of-order retries: op 0 keeps being retried
    // (every retry must refresh its recency) while two caps' worth of
    // newer ids stream past. Under FIFO eviction op 0 — the oldest
    // *insertion* — would be dropped while still pending, and its next
    // retry would re-execute as DuplicateKey: a lost-reply bug.
    for op in CAP as u64..(3 * CAP as u64) {
        let r = drive(&mut bucket, client, 0, ReqKind::Insert(0, vec![0]));
        assert_eq!(
            r,
            Some(OpResult::Inserted),
            "op 0 still suppressed after {op} newer writes"
        );
        drive(&mut bucket, client, op, ReqKind::Insert(op, vec![0]));
        assert!(bucket.replay_cache_len() <= CAP);
    }

    // And one more duplicate, long after FIFO would have evicted it.
    let r = drive(&mut bucket, client, 0, ReqKind::Insert(0, vec![0]));
    assert_eq!(r, Some(OpResult::Inserted), "hot id survived the sweep");

    // Meanwhile op 1 — inserted in the same first batch but never
    // retried — went cold and re-executes.
    let r = drive(&mut bucket, client, 1, ReqKind::Insert(1, vec![0]));
    assert_eq!(r, Some(OpResult::DuplicateKey), "cold id was evicted");
}
