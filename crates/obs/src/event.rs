//! The structured trace-event taxonomy shared by the simulator and the TCP
//! runtime, plus a dependency-free JSONL encoding of it.

use crate::json::{JsonObject, COMPACT};

/// `events! { Variant = "label" { field: Type, … }, … }`, each row and
/// field under its doc comment: one row per trace event — its docs, its
/// label and its typed fields. The table is the [`Event`] enum,
/// [`Event::kind`] and the JSONL field writer; a field's type needs a
/// `JsonValue` rendering.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $V:ident = $label:literal {
            $( $(#[$fdoc:meta])* $f:ident: $T:ty ),* $(,)?
        }
    ),+ $(,)?) => {
        /// One structured observation emitted by an actor hot path.
        ///
        /// Node identifiers are carried as raw `u32`s (the payload of
        /// `lhrs_sim::NodeId`) so this crate stays dependency-free and usable
        /// from every layer of the workspace.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Event {$(
            $(#[$doc])*
            $V { $( $(#[$fdoc])* $f: $T ),* },
        )+}

        impl Event {
            /// Stable label for the event type (used as the JSON `"type"`
            /// field and in per-event-type counters).
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$V { .. } => $label, )+
                }
            }

            /// Add this event's fields to `obj`, in row order.
            fn write_json_fields(&self, obj: &mut JsonObject<'_>) {
                match self {
                    $( Event::$V { $($f),* } => {
                        $( obj.field(stringify!($f), $f); )*
                    } )+
                }
            }
        }
    };
}

events! {
    /// A client re-sent an operation after a timeout.
    Retry = "retry" {
        /// The operation id being retried.
        op: u64,
        /// Retry attempt number (1 = first resend).
        attempt: u64,
    },
    /// A bucket split began (coordinator issued `DoSplit`).
    SplitStart = "split_start" {
        /// The bucket being split.
        bucket: u64,
        /// The bucket the split creates.
        new_bucket: u64,
        /// Bucket count once the split lands.
        buckets: u64,
    },
    /// A bucket split completed (coordinator saw `SplitDone`).
    SplitEnd = "split_end" {
        /// The bucket that split.
        bucket: u64,
        /// The new sibling bucket created by the split.
        new_bucket: u64,
    },
    /// A bucket merge completed: the file shrank by one bucket.
    MergeDone = "merge_done" {
        /// The absorbing bucket.
        bucket: u64,
        /// The bucket merged away.
        removed: u64,
        /// Bucket count after the merge.
        buckets: u64,
    },
    /// The scalable-availability rule raised the file's availability
    /// level.
    KRaised = "k_raised" {
        /// The new file-wide `k`.
        k: u64,
    },
    /// A group finished upgrading to a higher `k`.
    GroupUpgraded = "group_upgraded" {
        /// The group.
        group: u64,
        /// Its new availability level.
        k: u64,
    },
    /// The file state `(n, i)` was rebuilt from a scan of the buckets.
    StateRecovered = "state_recovered" {
        /// Recovered split pointer.
        n: u64,
        /// Recovered file level.
        i: u8,
    },
    /// A group check confirmed failed shards. Recovery follows when the
    /// group's `k` covers them; otherwise a failed `RecoveryEnd` does.
    FailureDetected = "failure_detected" {
        /// The bucket group.
        group: u64,
        /// Failed shard indices (`0..m` data, `m..` parity).
        shards: Vec<u64>,
    },
    /// Group recovery started (failure confirmed, spares allocated).
    RecoveryStart = "recovery_start" {
        /// The bucket group being recovered.
        group: u64,
        /// Number of failed shards being rebuilt.
        failed: u64,
    },
    /// One shard finished rebuilding onto its spare.
    RecoveryShard = "recovery_shard" {
        /// The bucket group.
        group: u64,
        /// Shard index inside the group (data column or m+parity column).
        shard: u64,
        /// Bytes installed on the spare.
        bytes: u64,
    },
    /// Group recovery finished.
    RecoveryEnd = "recovery_end" {
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
    RecoveryStalled = "recovery_stalled" {
        /// The bucket group.
        group: u64,
        /// Spare nodes the rebuild needed.
        needed: u64,
    },
    /// A read was served through parity decoding while data buckets were
    /// down — the user-visible availability event.
    DegradedRead = "degraded_read" {
        /// The bucket group that served the read.
        group: u64,
    },
    /// A protocol invariant was violated; the actor degraded instead of
    /// aborting.
    InvariantViolated = "invariant_violated" {
        /// Where the violation was detected.
        context: String,
    },
    /// The networked runtime failed to decode an inbound frame or message.
    DecodeError = "decode_error" {
        /// What failed to decode.
        context: String,
    },
    /// An inbound peer connection ended: the peer process closed it,
    /// reset it or sent a corrupt stream. A hint that its nodes may be
    /// down, not a proof: a restarted peer dials again.
    PeerClosed = "peer_closed" {
        /// The node whose hello opened the connection, then every other
        /// node that sent a frame over it, in first-seen order.
        nodes: Vec<u32>,
    },
    /// A bucket rebuilt itself from its local snapshot + write-ahead log
    /// after a process restart.
    WalReplay = "wal_replay" {
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
    RestartSuffix = "restart_suffix" {
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
    BucketRestarted = "bucket_restarted" {
        /// The bucket.
        bucket: u64,
        /// Δ-suffix entries it had to catch up (0: it was already current).
        suffix_len: u64,
    },
    /// A restart could not be served by Δ-suffix catch-up (divergent parity
    /// watermarks, truncated history, or a busy group): the coordinator
    /// fell back to the full RS rebuild.
    RestartFallback = "restart_fallback" {
        /// The data bucket that fell back.
        bucket: u64,
    },
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
        let mut obj = JsonObject::open(&mut out, &COMPACT);
        obj.field("at_us", &self.at_us)
            .field("seq", &self.seq)
            .field("type", self.event.kind());
        self.event.write_json_fields(&mut obj);
        obj.close();
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
