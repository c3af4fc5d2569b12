//! Golden strings of the observability surface: the exact JSONL line of
//! every trace `Event` (`lhrs-benchmark` parses the coordinator's
//! `--trace-dump`, so the envelope bytes matter) and the counter label of
//! one `Msg` per wire tag and of each `ReqKind` (`msgs_sent{kind}` series
//! are scraped by name). A refactor of either table must leave every line
//! here passing unchanged.

use lhrs_core::msg::{
    ClientOp, DeltaEntry, FilterSpec, Iam, KeyOp, Msg, OpResult, ReqKind, ShardContent,
};
use lhrs_core::wire::{encode_msg, TAGS};
use lhrs_core::NodeId;
use lhrs_obs::{Event, TimedEvent};
use lhrs_sim::Payload;

#[test]
fn every_event_renders_its_golden_jsonl_line() {
    let golden = [
        (
            Event::Retry { op: 9, attempt: 1 },
            r#"{"at_us":0,"seq":0,"type":"retry","op":9,"attempt":1}"#,
        ),
        (
            Event::SplitStart {
                bucket: 0,
                new_bucket: 4,
                buckets: 5,
            },
            r#"{"at_us":1,"seq":1,"type":"split_start","bucket":0,"new_bucket":4,"buckets":5}"#,
        ),
        (
            Event::SplitEnd {
                bucket: 0,
                new_bucket: 4,
            },
            r#"{"at_us":2,"seq":2,"type":"split_end","bucket":0,"new_bucket":4}"#,
        ),
        (
            Event::MergeDone {
                bucket: 0,
                removed: 4,
                buckets: 4,
            },
            r#"{"at_us":3,"seq":3,"type":"merge_done","bucket":0,"removed":4,"buckets":4}"#,
        ),
        (
            Event::KRaised { k: 2 },
            r#"{"at_us":4,"seq":4,"type":"k_raised","k":2}"#,
        ),
        (
            Event::GroupUpgraded { group: 1, k: 2 },
            r#"{"at_us":5,"seq":5,"type":"group_upgraded","group":1,"k":2}"#,
        ),
        (
            Event::StateRecovered { n: 3, i: 2 },
            r#"{"at_us":6,"seq":6,"type":"state_recovered","n":3,"i":2}"#,
        ),
        (
            Event::FailureDetected {
                group: 0,
                shards: vec![1, 4],
            },
            r#"{"at_us":7,"seq":7,"type":"failure_detected","group":0,"shards":[1,4]}"#,
        ),
        (
            Event::RecoveryStart {
                group: 0,
                failed: 2,
            },
            r#"{"at_us":8,"seq":8,"type":"recovery_start","group":0,"failed":2}"#,
        ),
        (
            Event::RecoveryShard {
                group: 0,
                shard: 1,
                bytes: 4096,
            },
            r#"{"at_us":9,"seq":9,"type":"recovery_shard","group":0,"shard":1,"bytes":4096}"#,
        ),
        (
            Event::RecoveryEnd {
                group: 0,
                rebuilt: 2,
                ok: true,
            },
            r#"{"at_us":10,"seq":10,"type":"recovery_end","group":0,"rebuilt":2,"ok":true}"#,
        ),
        (
            Event::RecoveryStalled {
                group: 0,
                needed: 2,
            },
            r#"{"at_us":11,"seq":11,"type":"recovery_stalled","group":0,"needed":2}"#,
        ),
        (
            Event::DegradedRead { group: 0 },
            r#"{"at_us":12,"seq":12,"type":"degraded_read","group":0}"#,
        ),
        (
            Event::InvariantViolated {
                context: "a \"b\"\\\n\t\u{1}".into(),
            },
            r#"{"at_us":13,"seq":13,"type":"invariant_violated","context":"a \"b\"\\\n\t\u0001"}"#,
        ),
        (
            Event::DecodeError {
                context: "frame".into(),
            },
            r#"{"at_us":14,"seq":14,"type":"decode_error","context":"frame"}"#,
        ),
        (
            Event::PeerClosed { nodes: vec![3, 5] },
            r#"{"at_us":15,"seq":15,"type":"peer_closed","nodes":[3,5]}"#,
        ),
        (
            Event::PeerClosed { nodes: vec![] },
            r#"{"at_us":16,"seq":16,"type":"peer_closed","nodes":[]}"#,
        ),
        (
            Event::WalReplay {
                bucket: 3,
                ops: 12,
                bytes: 400,
            },
            r#"{"at_us":17,"seq":17,"type":"wal_replay","bucket":3,"ops":12,"bytes":400}"#,
        ),
        (
            Event::RestartSuffix {
                bucket: 3,
                entries: 5,
                bytes: 160,
            },
            r#"{"at_us":18,"seq":18,"type":"restart_suffix","bucket":3,"entries":5,"bytes":160}"#,
        ),
        (
            Event::BucketRestarted {
                bucket: 3,
                suffix_len: 5,
            },
            r#"{"at_us":19,"seq":19,"type":"bucket_restarted","bucket":3,"suffix_len":5}"#,
        ),
        (
            Event::RestartFallback { bucket: 3 },
            r#"{"at_us":20,"seq":20,"type":"restart_fallback","bucket":3}"#,
        ),
    ];
    for (i, (event, line)) in (0u64..).zip(golden) {
        let timed = TimedEvent {
            at_us: i,
            seq: i,
            event,
        };
        assert_eq!(timed.to_json(), line);
    }
}

#[test]
fn every_message_counts_under_its_golden_label() {
    let delta = DeltaEntry {
        seq: 1,
        rank: 0,
        col: 0,
        key_op: KeyOp::Keep,
        delta_cell: vec![],
    };
    let shard = ShardContent::Parity {
        records: vec![],
        col_seqs: vec![],
    };
    let req = |kind| Msg::Req {
        op_id: 1,
        floor: 1,
        client: NodeId(1),
        intended: 0,
        hops: 0,
        kind,
    };
    let golden = [
        (
            Msg::Do {
                op_id: 1,
                op: ClientOp::Lookup { key: 1 },
            },
            "app-do",
        ),
        (req(ReqKind::Insert(1, vec![7])), "insert"),
        (
            Msg::Reply {
                op_id: 1,
                result: OpResult::Inserted,
                iam: Some(Iam {
                    level: 1,
                    bucket: 0,
                }),
            },
            "reply",
        ),
        (
            Msg::Scan {
                op_id: 1,
                client: NodeId(1),
                filter: FilterSpec::All,
                assumed_level: 0,
                reply_if_empty: true,
            },
            "scan",
        ),
        (
            Msg::ScanReply {
                op_id: 1,
                bucket: 0,
                level: 0,
                hits: vec![],
            },
            "scan-reply",
        ),
        (
            Msg::ParityDelta {
                group: 0,
                entry: delta.clone(),
                durable: None,
                ack_to: None,
            },
            "parity-delta",
        ),
        (
            Msg::ParityBatch {
                group: 0,
                entries: vec![delta.clone()],
                durable: Some(3),
                ack_to: Some(NodeId(2)),
            },
            "parity-batch",
        ),
        (Msg::ParityAck { col: 0, upto: 1 }, "parity-ack"),
        (Msg::ReportOverflow { bucket: 0, size: 9 }, "overflow"),
        (
            Msg::InitData {
                bucket: 1,
                level: 1,
                delta_seq: 0,
            },
            "init-data",
        ),
        (
            Msg::InitParity {
                group: 0,
                index: 0,
                k: 1,
            },
            "init-parity",
        ),
        (
            Msg::DoSplit {
                source: 0,
                target: 1,
                new_level: 1,
            },
            "split",
        ),
        (
            Msg::SplitLoad {
                bucket: 1,
                level: 1,
                records: vec![],
                replay: vec![],
                floors: vec![],
            },
            "split-load",
        ),
        (
            Msg::Suspect {
                op_id: 1,
                client: NodeId(1),
                bucket: 0,
                kind: ReqKind::Lookup(1),
            },
            "suspect",
        ),
        (Msg::Probe { token: 1 }, "probe"),
        (
            Msg::ProbeAck {
                token: 1,
                bucket: Some(0),
            },
            "probe-ack",
        ),
        (Msg::TransferShard { token: 1 }, "transfer-req"),
        (
            Msg::ShardData {
                token: 1,
                shard: 0,
                content: shard.clone(),
            },
            "transfer-data",
        ),
        (
            Msg::Install {
                group: 0,
                bucket: None,
                index: Some(0),
                k: 1,
                content: shard,
                token: 1,
            },
            "install",
        ),
        (Msg::InstallAck { token: 1 }, "install-ack"),
        (Msg::FindRecord { key: 1, token: 1 }, "find-record"),
        (
            Msg::FindRecordReply {
                token: 1,
                found: None,
            },
            "find-record-reply",
        ),
        (Msg::ReadCell { rank: 0, token: 1 }, "read-cell"),
        (
            Msg::CellData {
                token: 1,
                shard: 0,
                cell: vec![],
            },
            "cell-data",
        ),
        (Msg::SplitDone { bucket: 0 }, "split-done"),
        (Msg::ForceMerge, "force-merge"),
        (
            Msg::DoMerge {
                source: 1,
                target: 0,
                new_level: 0,
            },
            "merge",
        ),
        (
            Msg::MergeLoad {
                level: 0,
                records: vec![],
                replay: vec![],
                floors: vec![],
                final_seq: 0,
            },
            "merge-load",
        ),
        (
            Msg::MergeDone {
                bucket: 1,
                final_seq: 0,
            },
            "merge-done",
        ),
        (Msg::Retire, "retire"),
        (Msg::SelfReport, "self-report"),
        (
            Msg::CheckOwnership {
                bucket: Some(0),
                parity: None,
            },
            "check-ownership",
        ),
        (Msg::OwnershipAck, "ownership-ack"),
        (Msg::CheckGroup { group: 0 }, "check-group"),
        (Msg::RecoverFileState, "recover-file-state"),
        (Msg::StateQuery, "state-query"),
        (
            Msg::StateReply {
                bucket: 0,
                level: 0,
            },
            "state-reply",
        ),
        (
            Msg::RestartReport {
                bucket: 0,
                delta_seq: 0,
            },
            "restart-report",
        ),
        (
            Msg::SuffixPull {
                group: 0,
                col: 0,
                from_seq: 0,
                target: NodeId(2),
            },
            "suffix-pull",
        ),
        (
            Msg::DeltaSuffix {
                col: 0,
                from_seq: 0,
                entries: vec![delta],
                complete: true,
            },
            "delta-suffix",
        ),
        (
            Msg::SuffixInfo {
                bucket: 0,
                col: 0,
                next_seq: 0,
                covered: true,
                count: 0,
                bytes: 0,
            },
            "suffix-info",
        ),
        (Msg::RestartAbort { bucket: 0 }, "restart-abort"),
        (Msg::ResumeWrites { group: 0 }, "resume-writes"),
    ];
    let mut tags: Vec<u8> = golden.iter().map(|(msg, _)| encode_msg(msg)[1]).collect();
    for (msg, label) in golden {
        assert_eq!(msg.kind(), label, "{msg:?}");
    }
    let mut every: Vec<u8> = TAGS.iter().map(|&(_, tag)| tag).collect();
    tags.sort_unstable();
    every.sort_unstable();
    assert_eq!(tags, every, "one golden message per wire tag");

    let requests = [
        (ReqKind::Insert(1, vec![7]), "insert"),
        (ReqKind::Lookup(1), "lookup"),
        (ReqKind::Update(1, vec![7]), "update"),
        (ReqKind::Delete(1), "delete"),
    ];
    for (kind, label) in requests {
        assert_eq!(req(kind).kind(), label);
    }
}
