//! A data bucket's completion records follow the client's floor: every
//! request carries the lowest op id its client has not concluded, and the
//! bucket keeps a client's write results at or above the highest floor it
//! has seen. An open op is never below its client's floor, so its retry is
//! answered from its first execution however many newer writes completed;
//! a late copy of a concluded write is refused, never re-executed.

use lhrs_core::data_bucket::DataBucket;
use lhrs_core::msg::{Msg, OpResult, ReqKind};
use lhrs_core::registry::Shared;
use lhrs_core::Config;
use lhrs_obs::{Clock, Metrics};
use lhrs_sim::{Effect, Env, NodeId};

/// A bounded cache of this many results per bucket evicts an open op's
/// record once enough newer writes complete; the floor never does.
const OLD_CAP: u64 = 4096;

/// Bucket 0 of a one-bucket file (every key routes to it) whose group has
/// one parity bucket, so each executed write sends one Δ.
fn test_bucket() -> DataBucket {
    let cfg = Config {
        ack_writes: true,
        bucket_capacity: 1 << 20, // never overflow in this test
        ..Config::default()
    };
    let shared = Shared::new(cfg);
    {
        let mut reg = shared.registry.borrow_mut();
        reg.push_data(0, NodeId(0));
        reg.set_parity(0, vec![NodeId(50)]);
    }
    DataBucket::new(shared, 0, 0)
}

/// What one request made the bucket send.
struct Sent {
    reply: Option<OpResult>,
    deltas: usize,
}

/// Drive one request straight into the bucket via an external Env (the
/// same harness a socket host uses).
fn drive(
    bucket: &mut DataBucket,
    metrics: &Metrics,
    client: NodeId,
    (op_id, floor): (u64, u64),
    kind: ReqKind,
) -> Sent {
    let mut next_timer = 0u64;
    let mut effects: Vec<Effect<Msg>> = Vec::new();
    let mut env = Env::external(NodeId(0), 0, &mut next_timer, &mut effects, metrics);
    let req = Msg::Req {
        op_id,
        floor,
        client,
        intended: 0,
        hops: 0,
        kind,
    };
    bucket.on_message(&mut env, client, req);
    let mut sent = Sent {
        reply: None,
        deltas: 0,
    };
    for effect in effects {
        match effect {
            Effect::Send {
                msg: Msg::Reply { result, .. },
                ..
            } => sent.reply = Some(result),
            Effect::Send {
                msg: Msg::ParityDelta { .. } | Msg::ParityBatch { .. },
                ..
            } => sent.deltas += 1,
            _ => {}
        }
    }
    sent
}

fn insert(op: u64) -> ReqKind {
    ReqKind::Insert(op, vec![op as u8])
}

/// The records a bucket holds: remembered minus forgotten.
fn retained(metrics: &Metrics) -> u64 {
    metrics.counter("replay_remembered") - metrics.counter("replay_forgotten")
}

fn stale() -> Option<OpResult> {
    Some(OpResult::Failed("stale op id".into()))
}

/// Op 0 stays open while three times the old cache's capacity of newer
/// writes complete: every one of their requests carries floor 0, so op 0's
/// result is kept, and each retry of it is answered from its first
/// execution (a re-run insert would say `DuplicateKey`).
#[test]
fn an_open_op_is_answered_from_its_first_execution_after_any_number_of_completions() {
    let mut bucket = test_bucket();
    let metrics = Metrics::new(Clock::logical());
    let client = NodeId(3);
    let first = drive(&mut bucket, &metrics, client, (0, 0), insert(0));
    assert_eq!(first.reply, Some(OpResult::Inserted));
    for op in 1..=3 * OLD_CAP {
        let sent = drive(&mut bucket, &metrics, client, (op, 0), insert(op));
        assert_eq!(sent.reply, Some(OpResult::Inserted), "op {op}");
        if op % OLD_CAP == 0 {
            let retry = drive(&mut bucket, &metrics, client, (0, 0), insert(0));
            assert_eq!(retry.reply, Some(OpResult::Inserted), "after {op} newer");
            assert_eq!(retry.deltas, 0, "a replayed result sends no Δ");
        }
    }
    assert_eq!(retained(&metrics), 3 * OLD_CAP + 1);

    // Op 0 concludes: the next request's floor is the oldest op still
    // open, and everything below it goes.
    let last = 3 * OLD_CAP + 1;
    drive(&mut bucket, &metrics, client, (last, last), insert(last));
    assert_eq!(retained(&metrics), 1);
    assert_eq!(metrics.counter("replay_stale"), 0);
}

/// After a request with floor f, the client's records are exactly its
/// writes at or above f: each of those retries is answered from its
/// record, each below is refused as stale. Another client's records are
/// untouched by this client's floor.
#[test]
fn a_floor_keeps_exactly_the_records_at_or_above_it() {
    let mut bucket = test_bucket();
    let metrics = Metrics::new(Clock::logical());
    let (client, other) = (NodeId(3), NodeId(4));
    for op in 0..20 {
        drive(&mut bucket, &metrics, client, (op, 0), insert(op));
    }
    drive(&mut bucket, &metrics, other, (5, 5), insert(100));
    assert_eq!(retained(&metrics), 21);

    let f = 12;
    let lookup = drive(&mut bucket, &metrics, client, (30, f), ReqKind::Lookup(3));
    assert_eq!(lookup.reply, Some(OpResult::Value(Some(vec![3]))));
    assert_eq!(
        retained(&metrics),
        20 - f + 1,
        "the other client's record stays"
    );

    for op in 0..20 {
        let retry = drive(&mut bucket, &metrics, client, (op, f), insert(op));
        let expect = if op < f {
            stale()
        } else {
            Some(OpResult::Inserted)
        };
        assert_eq!(retry.reply, expect, "op {op}");
        assert_eq!(retry.deltas, 0, "op {op}: nothing re-executes");
    }
    assert_eq!(metrics.counter("replay_stale"), f);
    let other_retry = drive(&mut bucket, &metrics, other, (5, 5), insert(100));
    assert_eq!(other_retry.reply, Some(OpResult::Inserted));
}

/// A late copy of a concluded update, arriving after the client's newer
/// update of the same key: the bucket knows the client's floor from the
/// newer request, so the old write is neither re-applied nor re-Δ'd, and
/// it is counted.
#[test]
fn a_write_below_the_floor_is_neither_reapplied_nor_re_deltad() {
    let mut bucket = test_bucket();
    let metrics = Metrics::new(Clock::logical());
    let client = NodeId(7);
    drive(&mut bucket, &metrics, client, (1, 1), insert(9));
    let old = ReqKind::Update(9, b"old".to_vec());
    let first = drive(&mut bucket, &metrics, client, (2, 2), old.clone());
    assert_eq!((first.reply, first.deltas), (Some(OpResult::Updated), 1));
    let new = ReqKind::Update(9, b"new".to_vec());
    let newer = drive(&mut bucket, &metrics, client, (3, 3), new);
    assert_eq!((newer.reply, newer.deltas), (Some(OpResult::Updated), 1));

    let late = drive(&mut bucket, &metrics, client, (2, 2), old);
    assert_eq!(late.reply, stale());
    assert_eq!(late.deltas, 0, "no Δ for a refused write");
    assert_eq!(metrics.counter("replay_stale"), 1);
    let read = drive(&mut bucket, &metrics, client, (4, 4), ReqKind::Lookup(9));
    assert_eq!(read.reply, Some(OpResult::Value(Some(b"new".to_vec()))));

    // A lookup below the floor is harmless and still answered.
    let old_read = drive(&mut bucket, &metrics, client, (1, 1), ReqKind::Lookup(9));
    assert_eq!(old_read.reply, Some(OpResult::Value(Some(b"new".to_vec()))));
    assert_eq!(metrics.counter("replay_stale"), 1);
}
