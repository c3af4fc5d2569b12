//! Seeded generators for every wire-visible type, shared by the codec
//! round-trip fuzz (`wire_roundtrip.rs`) and the golden-bytes pin
//! (`wire_golden.rs`).

use lhrs_core::msg::{
    ClientOp, DeltaEntry, FilterSpec, Iam, KeyOp, Msg, OpId, OpResult, ReplayEntry, ReqKind,
    ShardContent,
};
use lhrs_core::record::Record;
use lhrs_core::{Key, NodeId, Rank};
use lhrs_testkit::Rng;

/// Number of `Msg` variants [`arb_msg_variant`] can produce.
pub const VARIANTS: u64 = 43;

pub fn arb_node(rng: &mut Rng) -> NodeId {
    if rng.chance(1, 16) {
        lhrs_sim::EXTERNAL // the driver sentinel must round-trip too
    } else {
        NodeId(rng.next_u32())
    }
}

pub fn arb_key(rng: &mut Rng) -> Key {
    // Mix small and huge keys so varint length classes all get exercised.
    match rng.below(3) {
        0 => rng.below(128),
        1 => rng.below(1 << 20),
        _ => rng.next_u64(),
    }
}

pub fn arb_payload(rng: &mut Rng) -> Vec<u8> {
    let len = rng.range_usize(0, 48);
    rng.bytes(len)
}

pub fn arb_filter(rng: &mut Rng) -> FilterSpec {
    match rng.below(3) {
        0 => FilterSpec::All,
        1 => FilterSpec::PayloadContains(arb_payload(rng)),
        _ => {
            let lo = arb_key(rng);
            FilterSpec::KeyRange(lo, lo.saturating_add(rng.below(1000)))
        }
    }
}

pub fn arb_client_op(rng: &mut Rng) -> ClientOp {
    match rng.below(5) {
        0 => ClientOp::Insert {
            key: arb_key(rng),
            payload: arb_payload(rng),
        },
        1 => ClientOp::Lookup { key: arb_key(rng) },
        2 => ClientOp::Update {
            key: arb_key(rng),
            payload: arb_payload(rng),
        },
        3 => ClientOp::Delete { key: arb_key(rng) },
        _ => ClientOp::Scan {
            filter: arb_filter(rng),
        },
    }
}

pub fn arb_req_kind(rng: &mut Rng) -> ReqKind {
    match rng.below(4) {
        0 => ReqKind::Insert(arb_key(rng), arb_payload(rng)),
        1 => ReqKind::Lookup(arb_key(rng)),
        2 => ReqKind::Update(arb_key(rng), arb_payload(rng)),
        _ => ReqKind::Delete(arb_key(rng)),
    }
}

pub fn arb_hits(rng: &mut Rng) -> Vec<(Key, Vec<u8>)> {
    (0..rng.below(5))
        .map(|_| (arb_key(rng), arb_payload(rng)))
        .collect()
}

pub fn arb_op_result(rng: &mut Rng) -> OpResult {
    match rng.below(9) {
        0 => OpResult::Inserted,
        1 => OpResult::DuplicateKey,
        2 => OpResult::Updated,
        3 => OpResult::Deleted,
        4 => OpResult::Value(None),
        5 => OpResult::Value(Some(arb_payload(rng))),
        6 => OpResult::NotFound,
        7 => OpResult::ScanHits(arb_hits(rng)),
        _ => OpResult::Failed(format!("err-{}", rng.below(100))),
    }
}

pub fn arb_iam(rng: &mut Rng) -> Option<Iam> {
    rng.chance(1, 2).then(|| Iam {
        level: rng.next_u8(),
        bucket: rng.below(1 << 30),
    })
}

pub fn arb_key_op(rng: &mut Rng) -> KeyOp {
    match rng.below(3) {
        0 => KeyOp::Add(arb_key(rng)),
        1 => KeyOp::Remove(arb_key(rng)),
        _ => KeyOp::Keep,
    }
}

pub fn arb_delta_entry(rng: &mut Rng) -> DeltaEntry {
    DeltaEntry {
        seq: rng.next_u64() >> rng.below(60),
        rank: rng.below(1 << 20),
        col: rng.range_usize(0, 8),
        key_op: arb_key_op(rng),
        delta_cell: arb_payload(rng),
    }
}

pub fn arb_replay_entry(rng: &mut Rng) -> ReplayEntry {
    ReplayEntry {
        client: arb_node(rng),
        op_id: rng.next_u64(),
        key: arb_key(rng),
        result: arb_op_result(rng),
    }
}

pub fn arb_records(rng: &mut Rng) -> Vec<Record> {
    (0..rng.below(4))
        .map(|_| Record {
            key: arb_key(rng),
            payload: arb_payload(rng),
        })
        .collect()
}

pub fn arb_replay_list(rng: &mut Rng) -> Vec<ReplayEntry> {
    (0..rng.below(3)).map(|_| arb_replay_entry(rng)).collect()
}

pub fn arb_floors(rng: &mut Rng) -> Vec<(NodeId, OpId)> {
    (0..rng.below(3))
        .map(|_| (arb_node(rng), rng.next_u64()))
        .collect()
}

pub fn arb_member_keys(rng: &mut Rng) -> Vec<Option<Key>> {
    (0..rng.below(5))
        .map(|_| rng.chance(2, 3).then(|| arb_key(rng)))
        .collect()
}

pub fn arb_shard_content(rng: &mut Rng) -> ShardContent {
    if rng.chance(1, 2) {
        ShardContent::Data {
            level: rng.next_u8(),
            next_rank: rng.below(1 << 20),
            delta_seq: rng.next_u64() >> 8,
            records: (0..rng.below(4))
                .map(|_| (rng.below(1 << 20) as Rank, arb_key(rng), arb_payload(rng)))
                .collect(),
        }
    } else {
        ShardContent::Parity {
            records: (0..rng.below(4))
                .map(|_| {
                    (
                        rng.below(1 << 20) as Rank,
                        arb_member_keys(rng),
                        arb_payload(rng),
                    )
                })
                .collect(),
            col_seqs: (0..rng.below(5)).map(|_| rng.next_u64() >> 16).collect(),
        }
    }
}

/// One random message of variant index `v` (`0..VARIANTS`, wire-tag order
/// minus one), so deterministic sweeps can force coverage of every variant.
pub fn arb_msg_variant(rng: &mut Rng, v: u64) -> Msg {
    match v {
        0 => Msg::Do {
            op_id: rng.next_u64(),
            op: arb_client_op(rng),
        },
        1 => {
            let op_id = rng.next_u64();
            Msg::Req {
                op_id,
                // A client's floor trails its op id; the coordinator's is 0.
                floor: if rng.chance(1, 8) {
                    0
                } else {
                    op_id.saturating_sub(rng.below(300))
                },
                client: arb_node(rng),
                intended: rng.below(1 << 30),
                hops: rng.next_u8(),
                kind: arb_req_kind(rng),
            }
        }
        2 => Msg::Reply {
            op_id: rng.next_u64(),
            result: arb_op_result(rng),
            iam: arb_iam(rng),
        },
        3 => Msg::Scan {
            op_id: rng.next_u64(),
            client: arb_node(rng),
            filter: arb_filter(rng),
            assumed_level: rng.next_u8(),
            reply_if_empty: rng.chance(1, 2),
        },
        4 => Msg::ScanReply {
            op_id: rng.next_u64(),
            bucket: rng.below(1 << 30),
            level: rng.next_u8(),
            hits: arb_hits(rng),
        },
        5 => Msg::ParityDelta {
            group: rng.below(1 << 20),
            entry: arb_delta_entry(rng),
            durable: rng.chance(1, 2).then(|| rng.next_u64() >> 16),
            ack_to: rng.chance(1, 2).then(|| arb_node(rng)),
        },
        6 => Msg::ParityBatch {
            group: rng.below(1 << 20),
            entries: (0..rng.below(4)).map(|_| arb_delta_entry(rng)).collect(),
            durable: rng.chance(1, 2).then(|| rng.next_u64() >> 16),
            ack_to: rng.chance(1, 2).then(|| arb_node(rng)),
        },
        7 => Msg::ParityAck {
            col: rng.range_usize(0, 8),
            upto: rng.next_u64() >> 8,
        },
        8 => Msg::ReportOverflow {
            bucket: rng.below(1 << 30),
            size: rng.range_usize(0, 10_000),
        },
        9 => Msg::InitData {
            bucket: rng.below(1 << 30),
            level: rng.next_u8(),
            delta_seq: rng.next_u64() >> 16,
        },
        10 => Msg::InitParity {
            group: rng.below(1 << 20),
            index: rng.range_usize(0, 8),
            k: rng.range_usize(1, 8),
        },
        11 => Msg::DoSplit {
            source: rng.below(1 << 30),
            target: rng.below(1 << 30),
            new_level: rng.next_u8(),
        },
        12 => Msg::SplitLoad {
            bucket: rng.below(1 << 30),
            level: rng.next_u8(),
            records: arb_records(rng),
            replay: arb_replay_list(rng),
            floors: arb_floors(rng),
        },
        13 => Msg::Suspect {
            op_id: rng.next_u64(),
            client: arb_node(rng),
            bucket: rng.below(1 << 30),
            kind: arb_req_kind(rng),
        },
        14 => Msg::Probe {
            token: rng.next_u64(),
        },
        15 => Msg::ProbeAck {
            token: rng.next_u64(),
            bucket: rng.chance(1, 2).then(|| rng.below(1 << 30)),
        },
        16 => Msg::TransferShard {
            token: rng.next_u64(),
        },
        17 => Msg::ShardData {
            token: rng.next_u64(),
            shard: rng.range_usize(0, 12),
            content: arb_shard_content(rng),
        },
        18 => Msg::Install {
            group: rng.below(1 << 20),
            bucket: rng.chance(1, 2).then(|| rng.below(1 << 30)),
            index: rng.chance(1, 2).then(|| rng.range_usize(0, 8)),
            k: rng.range_usize(1, 8),
            content: arb_shard_content(rng),
            token: rng.next_u64(),
        },
        19 => Msg::InstallAck {
            token: rng.next_u64(),
        },
        20 => Msg::FindRecord {
            key: arb_key(rng),
            token: rng.next_u64(),
        },
        21 => Msg::FindRecordReply {
            token: rng.next_u64(),
            found: rng
                .chance(1, 2)
                .then(|| (rng.below(1 << 20) as Rank, arb_member_keys(rng))),
        },
        22 => Msg::ReadCell {
            rank: rng.below(1 << 20),
            token: rng.next_u64(),
        },
        23 => Msg::CellData {
            token: rng.next_u64(),
            shard: rng.range_usize(0, 12),
            cell: arb_payload(rng),
        },
        24 => Msg::SplitDone {
            bucket: rng.below(1 << 30),
        },
        25 => Msg::ForceMerge,
        26 => Msg::DoMerge {
            source: rng.below(1 << 30),
            target: rng.below(1 << 30),
            new_level: rng.next_u8(),
        },
        27 => Msg::MergeLoad {
            level: rng.next_u8(),
            records: arb_records(rng),
            replay: arb_replay_list(rng),
            floors: arb_floors(rng),
            final_seq: rng.next_u64() >> 16,
        },
        28 => Msg::MergeDone {
            bucket: rng.below(1 << 30),
            final_seq: rng.next_u64() >> 16,
        },
        29 => Msg::Retire,
        30 => Msg::SelfReport,
        31 => Msg::CheckOwnership {
            bucket: rng.chance(1, 2).then(|| rng.below(1 << 30)),
            parity: rng
                .chance(1, 2)
                .then(|| (rng.below(1 << 20), rng.range_usize(0, 8))),
        },
        32 => Msg::OwnershipAck,
        33 => Msg::CheckGroup {
            group: rng.below(1 << 20),
        },
        34 => Msg::RecoverFileState,
        35 => Msg::StateQuery,
        36 => Msg::StateReply {
            bucket: rng.below(1 << 30),
            level: rng.next_u8(),
        },
        37 => Msg::RestartReport {
            bucket: rng.below(1 << 30),
            delta_seq: rng.next_u64() >> 16,
        },
        38 => Msg::SuffixPull {
            group: rng.below(1 << 20),
            col: rng.range_usize(0, 8),
            from_seq: rng.next_u64() >> 16,
            target: arb_node(rng),
        },
        39 => Msg::DeltaSuffix {
            col: rng.range_usize(0, 8),
            from_seq: rng.next_u64() >> 16,
            entries: (0..rng.below(4)).map(|_| arb_delta_entry(rng)).collect(),
            complete: rng.chance(1, 2),
        },
        40 => Msg::SuffixInfo {
            bucket: rng.below(1 << 30),
            col: rng.range_usize(0, 8),
            next_seq: rng.next_u64() >> 16,
            covered: rng.chance(1, 2),
            count: rng.below(1 << 20),
            bytes: rng.below(1 << 30),
        },
        41 => Msg::RestartAbort {
            bucket: rng.below(1 << 30),
        },
        _ => Msg::ResumeWrites {
            group: rng.below(1 << 20),
        },
    }
}
