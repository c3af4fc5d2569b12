//! The structured trace-event taxonomy shared by the simulator and the TCP
//! runtime, plus a dependency-free JSONL encoding of it.

/// One structured observation emitted by an actor hot path.
///
/// Node identifiers are carried as raw `u32`s (the payload of
/// `lhrs_sim::NodeId`) so this crate stays dependency-free and usable from
/// every layer of the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A protocol message left a node.
    MsgSent {
        /// Message kind label (`Payload::kind()`).
        kind: &'static str,
        /// Sending node.
        from: u32,
        /// Destination node.
        to: u32,
        /// Encoded payload size.
        bytes: u64,
    },
    /// A protocol message was delivered to a node.
    MsgRecv {
        /// Message kind label (`Payload::kind()`).
        kind: &'static str,
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
    },
    /// A client re-sent an operation after a timeout.
    Retry {
        /// The operation id being retried.
        op: u64,
        /// Retry attempt number (1 = first resend).
        attempt: u64,
    },
    /// A bucket split began (coordinator issued `DoSplit`).
    SplitStart {
        /// The bucket being split.
        bucket: u64,
        /// The bucket the split creates.
        new_bucket: u64,
        /// Bucket count once the split lands.
        buckets: u64,
    },
    /// A bucket split completed (coordinator saw `SplitDone`).
    SplitEnd {
        /// The bucket that split.
        bucket: u64,
        /// The new sibling bucket created by the split.
        new_bucket: u64,
    },
    /// A bucket merge completed: the file shrank by one bucket.
    MergeDone {
        /// The absorbing bucket.
        bucket: u64,
        /// The bucket merged away.
        removed: u64,
        /// Bucket count after the merge.
        buckets: u64,
    },
    /// The scalable-availability rule raised the file's availability
    /// level.
    KRaised {
        /// The new file-wide `k`.
        k: u64,
    },
    /// A group finished upgrading to a higher `k`.
    GroupUpgraded {
        /// The group.
        group: u64,
        /// Its new availability level.
        k: u64,
    },
    /// The file state `(n, i)` was rebuilt from a scan of the buckets.
    StateRecovered {
        /// Recovered split pointer.
        n: u64,
        /// Recovered file level.
        i: u8,
    },
    /// A data bucket committed a Δ to its parity group.
    DeltaCommit {
        /// The emitting data bucket.
        bucket: u64,
        /// Δ payload bytes pushed to parity.
        bytes: u64,
        /// Number of parity columns addressed (k).
        columns: u64,
    },
    /// A group check confirmed failed shards. Recovery follows when the
    /// group's `k` covers them; otherwise a failed `RecoveryEnd` does.
    FailureDetected {
        /// The bucket group.
        group: u64,
        /// Failed shard indices (`0..m` data, `m..` parity).
        shards: Vec<u64>,
    },
    /// Group recovery started (failure confirmed, spares allocated).
    RecoveryStart {
        /// The bucket group being recovered.
        group: u64,
        /// Number of failed shards being rebuilt.
        failed: u64,
    },
    /// One shard finished rebuilding onto its spare.
    RecoveryShard {
        /// The bucket group.
        group: u64,
        /// Shard index inside the group (data column or m+parity column).
        shard: u64,
        /// Bytes installed on the spare.
        bytes: u64,
    },
    /// Group recovery finished.
    RecoveryEnd {
        /// The bucket group.
        group: u64,
        /// Shards rebuilt during this recovery.
        rebuilt: u64,
        /// `false` when the group was declared unrecoverable.
        ok: bool,
    },
    /// A rebuild collected its shards but found too few spare nodes to
    /// install them on, and was abandoned: a later suspect retries, and
    /// lookups are served in degraded mode meanwhile.
    RecoveryStalled {
        /// The bucket group.
        group: u64,
        /// Spare nodes the rebuild needed.
        needed: u64,
    },
    /// A read was served through parity decoding while data buckets were
    /// down — the user-visible availability event.
    DegradedRead {
        /// The bucket group that served the read.
        group: u64,
    },
    /// A protocol invariant was violated; the actor degraded instead of
    /// aborting.
    InvariantViolated {
        /// Where the violation was detected.
        context: String,
    },
    /// The networked runtime failed to decode an inbound frame or message.
    DecodeError {
        /// What failed to decode.
        context: String,
    },
    /// An inbound peer connection ended: the peer process closed it,
    /// reset it or sent a corrupt stream. A hint that its nodes may be
    /// down, not a proof: a restarted peer dials again.
    PeerClosed {
        /// The node whose hello opened the connection, then every other
        /// node that sent a frame over it, in first-seen order.
        nodes: Vec<u32>,
    },
    /// A bucket rebuilt itself from its local snapshot + write-ahead log
    /// after a process restart.
    WalReplay {
        /// The replayed shard: the data bucket number, or `m + index` for
        /// parity column `index` (the shard-index convention of recovery).
        bucket: u64,
        /// Logged ops folded over the snapshot.
        ops: u64,
        /// Bytes of logged ops replayed.
        bytes: u64,
    },
    /// A restarted data bucket caught up via a Δ-suffix from its parity
    /// group instead of a full RS rebuild.
    RestartSuffix {
        /// The catching-up data bucket.
        bucket: u64,
        /// Suffix entries applied.
        entries: u64,
        /// Suffix payload bytes applied.
        bytes: u64,
    },
    /// The coordinator re-admitted a restarted data bucket once its local
    /// store and the Δ-suffix it missed agreed with its parity group: the
    /// cheap recovery path that avoids a full RS rebuild.
    BucketRestarted {
        /// The bucket.
        bucket: u64,
        /// Δ-suffix entries it had to catch up (0: it was already current).
        suffix_len: u64,
    },
    /// A restart could not be served by Δ-suffix catch-up (divergent parity
    /// watermarks, truncated history, or a busy group): the coordinator
    /// fell back to the full RS rebuild.
    RestartFallback {
        /// The data bucket that fell back.
        bucket: u64,
    },
}

/// Append a JSON string literal (with escaping) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// Stable label for the event type (used as the JSON `"type"` field and
    /// in per-event-type counters).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::MsgSent { .. } => "msg_sent",
            Event::MsgRecv { .. } => "msg_recv",
            Event::Retry { .. } => "retry",
            Event::SplitStart { .. } => "split_start",
            Event::SplitEnd { .. } => "split_end",
            Event::MergeDone { .. } => "merge_done",
            Event::KRaised { .. } => "k_raised",
            Event::GroupUpgraded { .. } => "group_upgraded",
            Event::StateRecovered { .. } => "state_recovered",
            Event::DeltaCommit { .. } => "delta_commit",
            Event::FailureDetected { .. } => "failure_detected",
            Event::RecoveryStart { .. } => "recovery_start",
            Event::RecoveryShard { .. } => "recovery_shard",
            Event::RecoveryEnd { .. } => "recovery_end",
            Event::RecoveryStalled { .. } => "recovery_stalled",
            Event::DegradedRead { .. } => "degraded_read",
            Event::InvariantViolated { .. } => "invariant_violated",
            Event::DecodeError { .. } => "decode_error",
            Event::PeerClosed { .. } => "peer_closed",
            Event::WalReplay { .. } => "wal_replay",
            Event::RestartSuffix { .. } => "restart_suffix",
            Event::BucketRestarted { .. } => "bucket_restarted",
            Event::RestartFallback { .. } => "restart_fallback",
        }
    }

    /// Append this event's fields as JSON key/value pairs (no surrounding
    /// braces; the caller owns the object envelope).
    pub(crate) fn write_json_fields(&self, out: &mut String) {
        match self {
            Event::MsgSent {
                kind,
                from,
                to,
                bytes,
            } => {
                out.push_str(&format!(
                    "\"kind\":\"{kind}\",\"from\":{from},\"to\":{to},\"bytes\":{bytes}"
                ));
            }
            Event::MsgRecv { kind, from, to } => {
                out.push_str(&format!("\"kind\":\"{kind}\",\"from\":{from},\"to\":{to}"));
            }
            Event::Retry { op, attempt } => {
                out.push_str(&format!("\"op\":{op},\"attempt\":{attempt}"));
            }
            Event::SplitStart {
                bucket,
                new_bucket,
                buckets,
            } => {
                out.push_str(&format!(
                    "\"bucket\":{bucket},\"new_bucket\":{new_bucket},\"buckets\":{buckets}"
                ));
            }
            Event::SplitEnd { bucket, new_bucket } => {
                out.push_str(&format!("\"bucket\":{bucket},\"new_bucket\":{new_bucket}"));
            }
            Event::MergeDone {
                bucket,
                removed,
                buckets,
            } => {
                out.push_str(&format!(
                    "\"bucket\":{bucket},\"removed\":{removed},\"buckets\":{buckets}"
                ));
            }
            Event::KRaised { k } => {
                out.push_str(&format!("\"k\":{k}"));
            }
            Event::GroupUpgraded { group, k } => {
                out.push_str(&format!("\"group\":{group},\"k\":{k}"));
            }
            Event::StateRecovered { n, i } => {
                out.push_str(&format!("\"n\":{n},\"i\":{i}"));
            }
            Event::DeltaCommit {
                bucket,
                bytes,
                columns,
            } => {
                out.push_str(&format!(
                    "\"bucket\":{bucket},\"bytes\":{bytes},\"columns\":{columns}"
                ));
            }
            Event::FailureDetected { group, shards } => {
                let shards: Vec<String> = shards.iter().map(u64::to_string).collect();
                out.push_str(&format!(
                    "\"group\":{group},\"shards\":[{}]",
                    shards.join(",")
                ));
            }
            Event::PeerClosed { nodes } => {
                let nodes: Vec<String> = nodes.iter().map(u32::to_string).collect();
                out.push_str(&format!("\"nodes\":[{}]", nodes.join(",")));
            }
            Event::RecoveryStart { group, failed } => {
                out.push_str(&format!("\"group\":{group},\"failed\":{failed}"));
            }
            Event::RecoveryShard {
                group,
                shard,
                bytes,
            } => {
                out.push_str(&format!(
                    "\"group\":{group},\"shard\":{shard},\"bytes\":{bytes}"
                ));
            }
            Event::RecoveryEnd { group, rebuilt, ok } => {
                out.push_str(&format!(
                    "\"group\":{group},\"rebuilt\":{rebuilt},\"ok\":{ok}"
                ));
            }
            Event::RecoveryStalled { group, needed } => {
                out.push_str(&format!("\"group\":{group},\"needed\":{needed}"));
            }
            Event::DegradedRead { group } => {
                out.push_str(&format!("\"group\":{group}"));
            }
            Event::InvariantViolated { context } | Event::DecodeError { context } => {
                out.push_str("\"context\":");
                push_json_str(out, context);
            }
            Event::WalReplay { bucket, ops, bytes } => {
                out.push_str(&format!(
                    "\"bucket\":{bucket},\"ops\":{ops},\"bytes\":{bytes}"
                ));
            }
            Event::RestartSuffix {
                bucket,
                entries,
                bytes,
            } => {
                out.push_str(&format!(
                    "\"bucket\":{bucket},\"entries\":{entries},\"bytes\":{bytes}"
                ));
            }
            Event::BucketRestarted { bucket, suffix_len } => {
                out.push_str(&format!("\"bucket\":{bucket},\"suffix_len\":{suffix_len}"));
            }
            Event::RestartFallback { bucket } => {
                out.push_str(&format!("\"bucket\":{bucket}"));
            }
        }
    }
}

/// An [`Event`] stamped with a timestamp and a global push sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// Timestamp in microseconds: logical sim time or wall time since host
    /// start, depending on the recording [`crate::Clock`].
    pub at_us: u64,
    /// Global push index (monotone across ring wraparound).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

impl TimedEvent {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"at_us\":{},\"seq\":{},\"type\":\"{}\",",
            self.at_us,
            self.seq,
            self.event.kind()
        ));
        self.event.write_json_fields(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_of_context_strings() {
        let ev = TimedEvent {
            at_us: 7,
            seq: 0,
            event: Event::InvariantViolated {
                context: "quote \" backslash \\ newline \n ctrl \u{1}".to_string(),
            },
        };
        let json = ev.to_json();
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\\u0001"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn recovery_and_wal_kinds_reach_the_json_type_field() {
        // The kill drills gate on these per-event-type series; pin the
        // labels all the way through the serialization path so a renamed
        // variant cannot silently break every drill built on them.
        let cases = [
            (
                Event::RecoveryStart {
                    group: 3,
                    failed: 1,
                },
                "recovery_start",
            ),
            (
                Event::RecoveryEnd {
                    group: 3,
                    rebuilt: 1,
                    ok: true,
                },
                "recovery_end",
            ),
            (
                Event::WalReplay {
                    bucket: 0,
                    ops: 9,
                    bytes: 128,
                },
                "wal_replay",
            ),
        ];
        for (event, kind) in cases {
            assert_eq!(event.kind(), kind);
            let json = TimedEvent {
                at_us: 1,
                seq: 0,
                event,
            }
            .to_json();
            assert!(
                json.contains(&format!("\"type\":\"{kind}\"")),
                "label missing from envelope: {json}"
            );
        }
    }

    #[test]
    fn every_event_renders_valid_envelope() {
        let events = [
            Event::MsgSent {
                kind: "insert",
                from: 1,
                to: 2,
                bytes: 64,
            },
            Event::MsgRecv {
                kind: "insert",
                from: 1,
                to: 2,
            },
            Event::Retry { op: 9, attempt: 1 },
            Event::SplitStart {
                bucket: 0,
                new_bucket: 4,
                buckets: 5,
            },
            Event::SplitEnd {
                bucket: 0,
                new_bucket: 4,
            },
            Event::MergeDone {
                bucket: 0,
                removed: 4,
                buckets: 4,
            },
            Event::KRaised { k: 2 },
            Event::GroupUpgraded { group: 1, k: 2 },
            Event::StateRecovered { n: 3, i: 2 },
            Event::DeltaCommit {
                bucket: 2,
                bytes: 132,
                columns: 2,
            },
            Event::FailureDetected {
                group: 0,
                shards: vec![1, 4],
            },
            Event::RecoveryStart {
                group: 0,
                failed: 2,
            },
            Event::RecoveryShard {
                group: 0,
                shard: 1,
                bytes: 4096,
            },
            Event::RecoveryEnd {
                group: 0,
                rebuilt: 2,
                ok: true,
            },
            Event::RecoveryStalled {
                group: 0,
                needed: 2,
            },
            Event::DegradedRead { group: 0 },
            Event::InvariantViolated {
                context: "x".into(),
            },
            Event::DecodeError {
                context: "frame".into(),
            },
            Event::PeerClosed { nodes: vec![3, 5] },
            Event::WalReplay {
                bucket: 3,
                ops: 12,
                bytes: 400,
            },
            Event::RestartSuffix {
                bucket: 3,
                entries: 5,
                bytes: 160,
            },
            Event::BucketRestarted {
                bucket: 3,
                suffix_len: 5,
            },
            Event::RestartFallback { bucket: 3 },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let t = TimedEvent {
                at_us: i as u64,
                seq: i as u64,
                event,
            };
            let json = t.to_json();
            assert!(
                json.contains(&format!("\"type\":\"{}\"", t.event.kind())),
                "{json}"
            );
        }
        let detected = TimedEvent {
            at_us: 0,
            seq: 0,
            event: Event::FailureDetected {
                group: 0,
                shards: vec![1, 4],
            },
        };
        assert!(detected
            .to_json()
            .ends_with("\"group\":0,\"shards\":[1,4]}"));
    }
}
