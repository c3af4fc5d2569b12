//! The LH\*RS wire protocol: every message exchanged between clients, data
//! buckets, parity buckets, and the coordinator, with per-kind accounting
//! labels matching the cost tables of the evaluation.

use lhrs_sim::NodeId;

use crate::record::Record;
use crate::{Key, Rank};

/// Client-side operation identifier, assigned by the driver.
pub type OpId = u64;

/// An operation submitted by the application to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Insert a new record.
    Insert {
        /// Record key.
        key: Key,
        /// Record payload.
        payload: Vec<u8>,
    },
    /// Key search.
    Lookup {
        /// Record key.
        key: Key,
    },
    /// Replace the payload of an existing record.
    Update {
        /// Record key.
        key: Key,
        /// New payload.
        payload: Vec<u8>,
    },
    /// Delete a record.
    Delete {
        /// Record key.
        key: Key,
    },
    /// Parallel scan of all buckets with a server-side filter.
    Scan {
        /// Filter evaluated at every bucket.
        filter: FilterSpec,
    },
}

/// Server-side scan filter (a restricted predicate language, since closures
/// cannot cross simulated nodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterSpec {
    /// Match every record.
    All,
    /// Match records whose payload contains the given byte string.
    PayloadContains(Vec<u8>),
    /// Match records with key in `[lo, hi)`.
    KeyRange(Key, Key),
}

impl FilterSpec {
    /// Evaluate the filter against a record.
    pub fn matches(&self, key: Key, payload: &[u8]) -> bool {
        match self {
            FilterSpec::All => true,
            FilterSpec::PayloadContains(needle) => {
                !needle.is_empty() && payload.windows(needle.len()).any(|w| w == &needle[..])
                    || needle.is_empty()
            }
            FilterSpec::KeyRange(lo, hi) => (*lo..*hi).contains(&key),
        }
    }
}

/// Completion value returned to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Insert committed.
    Inserted,
    /// Insert rejected: the key already exists.
    DuplicateKey,
    /// Update committed.
    Updated,
    /// Delete committed.
    Deleted,
    /// Lookup result: the payload, or `None` for an unsuccessful search.
    Value(Option<Vec<u8>>),
    /// Update/delete of a non-existent key.
    NotFound,
    /// Scan result: all matching records.
    ScanHits(Vec<(Key, Vec<u8>)>),
    /// The operation failed permanently (e.g. unrecoverable group).
    Failed(String),
}

/// The request kinds servers process (the key-specific subset of
/// [`ClientOp`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqKind {
    /// Insert a record.
    Insert(Key, Vec<u8>),
    /// Key search.
    Lookup(Key),
    /// Update a record in place.
    Update(Key, Vec<u8>),
    /// Delete a record.
    Delete(Key),
}

impl ReqKind {
    /// The key this request addresses.
    pub fn key(&self) -> Key {
        match self {
            ReqKind::Insert(k, _)
            | ReqKind::Lookup(k)
            | ReqKind::Update(k, _)
            | ReqKind::Delete(k) => *k,
        }
    }

    fn bytes(&self) -> usize {
        match self {
            ReqKind::Insert(_, p) | ReqKind::Update(_, p) => 8 + p.len(),
            ReqKind::Lookup(_) | ReqKind::Delete(_) => 8,
        }
    }
}

/// Image Adjustment Message payload piggybacked on replies after a forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iam {
    /// Level `j` of the bucket that finally served the request.
    pub level: u8,
    /// That bucket's number `a`.
    pub bucket: u64,
}

/// Key-list effect of a parity Δ-commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyOp {
    /// A record with this key appeared at (rank, column).
    Add(Key),
    /// The record with this key left (rank, column).
    Remove(Key),
    /// Payload changed, key unchanged (update).
    Keep,
}

/// One Δ-commit entry (shared by single deltas and split batches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    /// Position in the emitting column's delta stream. Every data bucket
    /// numbers its Δs densely from 0; parity buckets apply each column's
    /// stream exactly once, in order, so a duplicated or reordered delivery
    /// can never double-apply or cross Add/Remove effects.
    pub seq: u64,
    /// Record rank within the group.
    pub rank: Rank,
    /// Column = bucket offset within the group.
    pub col: usize,
    /// Key-list effect.
    pub key_op: KeyOp,
    /// XOR of old and new coding cells.
    pub delta_cell: Vec<u8>,
}

/// A client's completion record migrated with a split or merge load, so a
/// retried write whose record moved buckets is still recognised as a
/// duplicate at its new home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayEntry {
    /// The client that issued the operation.
    pub client: NodeId,
    /// Its operation id.
    pub op_id: OpId,
    /// The key the operation addressed (decides which bucket it follows).
    pub key: Key,
    /// The result the first execution produced.
    pub result: OpResult,
}

/// A data or parity shard's full content, moved during recovery, upgrades,
/// and bucket installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardContent {
    /// Data bucket: `(rank, key, payload)` triples plus the bucket's level
    /// and insert counter.
    Data {
        /// Bucket level `j`.
        level: u8,
        /// Next unassigned rank (the insert counter `r`).
        next_rank: Rank,
        /// Next delta sequence number of this column's Δ stream, so a
        /// rebuilt bucket continues numbering where the lost one stopped.
        delta_seq: u64,
        /// Live records.
        records: Vec<(Rank, Key, Vec<u8>)>,
    },
    /// Parity bucket: parity records by rank.
    Parity {
        /// Records: `(rank, member keys by column, parity cell)`.
        records: Vec<(Rank, Vec<Option<Key>>, Vec<u8>)>,
        /// Per data column: the next Δ sequence number this bucket expects,
        /// so a rebuilt parity bucket resumes each column's stream exactly
        /// where the snapshot left it.
        col_seqs: Vec<u64>,
    },
}

impl ShardContent {
    fn bytes(&self) -> usize {
        match self {
            ShardContent::Data { records, .. } => {
                records.iter().map(|(_, _, p)| 20 + p.len()).sum()
            }
            ShardContent::Parity { records, col_seqs } => {
                8 * col_seqs.len()
                    + records
                        .iter()
                        .map(|(_, ks, c)| 12 + 8 * ks.len() + c.len())
                        .sum::<usize>()
            }
        }
    }
}

/// Every message of the LH\*RS protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    // ----- application driver → client (not network traffic) -----
    /// Submit an operation to a client.
    Do {
        /// Driver-assigned operation id.
        op_id: OpId,
        /// The operation.
        op: ClientOp,
    },

    // ----- client ↔ data buckets -----
    /// A key-specific request, possibly forwarded server-to-server (A2).
    Req {
        /// Operation id (echoed in the reply).
        op_id: OpId,
        /// The client's floor when it sent the request: the lowest op id
        /// it had not concluded, so it never retries an op below it. 0
        /// says nothing (the coordinator's replays). A bucket keeps the
        /// client's completion records at or above the highest floor it
        /// has seen and refuses a write below it (DESIGN.md §11.1).
        floor: OpId,
        /// The client to reply to.
        client: NodeId,
        /// The logical bucket the sender believes is correct.
        intended: u64,
        /// Number of server-to-server forwards so far.
        hops: u8,
        /// The request itself.
        kind: ReqKind,
    },
    /// Server reply to the client (lookup always; writes when `ack_writes`).
    Reply {
        /// Operation id.
        op_id: OpId,
        /// Result value.
        result: OpResult,
        /// Image adjustment, present when the request was forwarded.
        iam: Option<Iam>,
    },
    /// Scan request to one bucket, tagged with the level the client's image
    /// assumes for it (drives exactly-once propagation).
    Scan {
        /// Operation id.
        op_id: OpId,
        /// Client to reply to.
        client: NodeId,
        /// Filter to evaluate.
        filter: FilterSpec,
        /// Level the sender assumes this bucket has.
        assumed_level: u8,
        /// Whether a bucket with no matching records must still reply
        /// (deterministic termination) or may stay silent (probabilistic).
        reply_if_empty: bool,
    },
    /// A bucket's scan reply (sent by every reached bucket — deterministic
    /// termination).
    ScanReply {
        /// Operation id.
        op_id: OpId,
        /// Replying bucket number.
        bucket: u64,
        /// Replying bucket's level `j`.
        level: u8,
        /// Matching records.
        hits: Vec<(Key, Vec<u8>)>,
    },

    // ----- data bucket → parity buckets -----
    /// One record's Δ-commit.
    ParityDelta {
        /// Group of the emitting bucket.
        group: u64,
        /// The Δ entry.
        entry: DeltaEntry,
        /// The sender's durable watermark: a restart from its store
        /// resumes at this Δ-sequence or later. `None` without a store.
        durable: Option<u64>,
        /// Where to send the ack, when `ack_parity` is on.
        ack_to: Option<NodeId>,
    },
    /// Batched Δ-commits emitted by a split, merge, or retransmission (one
    /// message per parity bucket).
    ParityBatch {
        /// Group of the emitting bucket.
        group: u64,
        /// All entries of the batch.
        entries: Vec<DeltaEntry>,
        /// The sender's durable watermark, as in `ParityDelta`.
        durable: Option<u64>,
        /// Where to send the ack, when `ack_parity` is on.
        ack_to: Option<NodeId>,
    },
    /// Cumulative parity commit acknowledgement (reliable mode only): the
    /// parity bucket has applied every Δ of column `col` below `upto`.
    ParityAck {
        /// The data column (bucket offset in the group) being acked.
        col: usize,
        /// All sequence numbers `< upto` are applied.
        upto: u64,
    },

    // ----- growth control -----
    /// Data bucket tells the coordinator it exceeds capacity.
    ReportOverflow {
        /// The overflowing bucket.
        bucket: u64,
        /// Its current record count.
        size: usize,
    },
    /// Coordinator turns a pool node into data bucket `bucket`.
    InitData {
        /// Bucket number.
        bucket: u64,
        /// Initial level.
        level: u8,
        /// Resume point for the column's Δ stream: 0 for a never-seen
        /// bucket number, the retired predecessor's final sequence when the
        /// bucket was merged away earlier (parity channels are never reset,
        /// so a re-created column must continue, not restart, its stream).
        delta_seq: u64,
    },
    /// Coordinator turns a pool node into parity bucket `index` of `group`
    /// under availability level `k`.
    InitParity {
        /// Bucket group.
        group: u64,
        /// Parity column index `q < k`.
        index: usize,
        /// The group's availability level.
        k: usize,
    },
    /// Coordinator orders bucket `source` to split.
    DoSplit {
        /// Splitting bucket.
        source: u64,
        /// Newly created bucket.
        target: u64,
        /// Level of both after the split.
        new_level: u8,
    },
    /// The splitting bucket ships movers to the new bucket. Retransmitted
    /// verbatim if the coordinator re-orders the split, and applied
    /// idempotently (per key) at the receiver, so a lost or duplicated
    /// load never loses or doubles records.
    SplitLoad {
        /// The new bucket's number.
        bucket: u64,
        /// Its level.
        level: u8,
        /// Records moving in.
        records: Vec<Record>,
        /// Completion records following their keys to the new bucket.
        replay: Vec<ReplayEntry>,
        /// The sender's floor per client, merged by max at the receiver,
        /// so a concluded write forwarded after the split is still refused.
        floors: Vec<(NodeId, OpId)>,
    },

    // ----- failure handling -----
    /// Client reports a suspected-dead bucket, with the stalled operation
    /// so the coordinator can complete it.
    Suspect {
        /// Operation id of the stalled request.
        op_id: OpId,
        /// Reporting client.
        client: NodeId,
        /// The logical bucket that timed out.
        bucket: u64,
        /// The stalled request.
        kind: ReqKind,
    },
    /// Coordinator liveness probe.
    Probe {
        /// Correlation token.
        token: u64,
    },
    /// Probe response.
    ProbeAck {
        /// Echoed token.
        token: u64,
        /// The logical bucket this node carries (data) or `None` (parity).
        bucket: Option<u64>,
    },
    /// Coordinator requests a full shard for recovery or upgrade.
    TransferShard {
        /// Correlation token.
        token: u64,
    },
    /// Shard content reply.
    ShardData {
        /// Echoed token.
        token: u64,
        /// Shard index within the group: `0..m` data columns,
        /// `m..m+k` parity columns.
        shard: usize,
        /// The content.
        content: ShardContent,
    },
    /// Install a rebuilt shard on a spare node.
    Install {
        /// Group the shard belongs to.
        group: u64,
        /// For data shards, the bucket number; parity shards use `index`.
        bucket: Option<u64>,
        /// For parity shards, the parity column index.
        index: Option<usize>,
        /// Group availability level (parity shards need the code).
        k: usize,
        /// The content to install.
        content: ShardContent,
        /// Correlation token for the ack.
        token: u64,
    },
    /// Spare confirms installation.
    InstallAck {
        /// Echoed token.
        token: u64,
    },
    /// Coordinator asks a parity bucket which rank (if any) holds `key` —
    /// the first step of degraded-mode record recovery.
    FindRecord {
        /// Key searched.
        key: Key,
        /// Correlation token.
        token: u64,
    },
    /// Parity bucket's answer.
    FindRecordReply {
        /// Echoed token.
        token: u64,
        /// `(rank, member keys)` when the key belongs to a record group
        /// known to this parity bucket.
        found: Option<(Rank, Vec<Option<Key>>)>,
    },
    /// Coordinator asks one shard for the cell at `rank` (degraded read).
    ReadCell {
        /// Rank wanted.
        rank: Rank,
        /// Correlation token.
        token: u64,
    },
    /// Cell reply for a degraded read.
    CellData {
        /// Echoed token.
        token: u64,
        /// Shard index within the group (`0..m` data, `m..m+k` parity).
        shard: usize,
        /// The coding cell (all-zero when the shard has nothing at the
        /// rank).
        cell: Vec<u8>,
    },

    /// Splitting commit: the new bucket confirms it absorbed the movers, so
    /// the coordinator can sequence upgrades and further splits after it.
    SplitDone {
        /// The new bucket.
        bucket: u64,
    },
    /// Driver-injected: undo the last split (bucket merge — the shrink
    /// operation for deletion-heavy files, §4.3 design variation).
    ForceMerge,
    /// Coordinator orders the last bucket to merge back into its split
    /// source.
    DoMerge {
        /// The bucket absorbing the records.
        source: u64,
        /// The disappearing bucket (always the last one).
        target: u64,
        /// The source's level after the merge.
        new_level: u8,
    },
    /// The disappearing bucket ships its records to the absorbing bucket.
    MergeLoad {
        /// The absorbing bucket's post-merge level.
        level: u8,
        /// Records moving back.
        records: Vec<Record>,
        /// Completion records following the records.
        replay: Vec<ReplayEntry>,
        /// The sender's floor per client, merged by max at the receiver.
        floors: Vec<(NodeId, OpId)>,
        /// The retiring column's final Δ sequence (after the retraction
        /// Δs), echoed to the coordinator so a future re-creation of the
        /// bucket resumes the stream there.
        final_seq: u64,
    },
    /// The absorbing bucket confirms the merge to the coordinator.
    MergeDone {
        /// The absorbing bucket.
        bucket: u64,
        /// The retired column's final Δ sequence, from [`Msg::MergeLoad`].
        final_seq: u64,
    },
    /// Coordinator decommissions a node (ex-bucket after a merge, or a
    /// restarted node whose bucket was recreated elsewhere); the node
    /// returns to the blank pool.
    Retire,
    /// Driver-injected boot signal for a node restarting after an outage
    /// (§2.5.4 self-detected recovery): the node must ask the coordinator
    /// whether it still owns its shard before serving anything.
    SelfReport,
    /// Restarted node → coordinator: "am I still bucket `bucket` / parity
    /// `(group, index)`?"
    CheckOwnership {
        /// Data-bucket claim.
        bucket: Option<u64>,
        /// Parity-bucket claim.
        parity: Option<(u64, usize)>,
    },
    /// Coordinator → restarted node: the claim holds; resume serving. (A
    /// displaced node gets `Retire` instead.)
    OwnershipAck,
    /// Restarted data bucket → coordinator: "my local log replayed to
    /// Δ-sequence `delta_seq`; may I catch up with a Δ-suffix instead of a
    /// full rebuild?" Sent instead of [`Msg::CheckOwnership`] when the node
    /// recovered state from a durable store.
    RestartReport {
        /// The bucket the node claims.
        bucket: u64,
        /// First Δ-sequence the node has *not* applied locally.
        delta_seq: u64,
    },
    /// Coordinator → parity bucket: send the restarting data bucket the
    /// Δ-suffix of column `col` from `from_seq` onward, and report coverage
    /// back to the coordinator.
    SuffixPull {
        /// The group being caught up.
        group: u64,
        /// The restarting data column.
        col: usize,
        /// First sequence number the restarting bucket is missing.
        from_seq: u64,
        /// The restarting data bucket's node.
        target: NodeId,
    },
    /// Parity bucket → restarting data bucket: the missed Δ-suffix of its
    /// own column (`complete` = the history covered the whole gap).
    DeltaSuffix {
        /// The data column being caught up.
        col: usize,
        /// Echo of the requested start sequence.
        from_seq: u64,
        /// Entries `[from_seq, next_seq)` in order; empty when not covered.
        entries: Vec<DeltaEntry>,
        /// Whether the history covered the whole `[from_seq, next_seq)` gap.
        complete: bool,
    },
    /// Parity bucket → coordinator: coverage report for a
    /// [`Msg::SuffixPull`], so the coordinator can decide Δ-suffix
    /// acceptance vs. full-rebuild fallback.
    SuffixInfo {
        /// The restarting bucket.
        bucket: u64,
        /// Its column.
        col: usize,
        /// This parity bucket's next expected sequence for the column.
        next_seq: u64,
        /// Whether this parity bucket could serve the whole suffix.
        covered: bool,
        /// Entries shipped in the matching [`Msg::DeltaSuffix`].
        count: u64,
        /// Payload bytes shipped in the matching [`Msg::DeltaSuffix`].
        bytes: u64,
    },
    /// Restarting data bucket → coordinator: the catch-up failed locally —
    /// a shipped Δ-suffix entry could not be applied, or the handshake
    /// wedged past the bucket's watchdog. The local replica is unusable;
    /// demote it and recreate the bucket through the full RS rebuild.
    RestartAbort {
        /// The bucket giving up on the Δ-suffix path.
        bucket: u64,
    },
    /// Coordinator → surviving data bucket: the recovery shard collection
    /// for `group` is over (consistent cut taken, or the recovery gave
    /// up) — resume applying writes deferred since [`Msg::TransferShard`].
    /// Data buckets freeze mutations while a collection is in flight so
    /// the coordinator can observe every survivor at the same Δ-sequence;
    /// a lost `ResumeWrites` is covered by the bucket's own freeze row.
    ResumeWrites {
        /// The parity group whose collection finished.
        group: u64,
    },
    /// Driver-injected: audit a whole group's liveness and recover any
    /// failed shards (how parity-bucket failures, invisible to clients, get
    /// detected in the drills).
    CheckGroup {
        /// Group to audit.
        group: u64,
    },
    /// Driver-injected: drop the coordinator's `(n, i)` and reconstruct it
    /// from a bucket scan (algorithm A6 drill).
    RecoverFileState,

    // ----- file-state recovery -----
    /// Coordinator queries a bucket's `(m, j_m)` during file-state
    /// recovery.
    StateQuery,
    /// Bucket's answer.
    StateReply {
        /// Bucket number.
        bucket: u64,
        /// Bucket level.
        level: u8,
    },
}

impl lhrs_sim::Payload for Msg {
    /// The label in the variant's `wire.rs` row.
    fn kind(&self) -> &'static str {
        self.label()
    }

    fn size_bytes(&self) -> usize {
        match self {
            Msg::Do { .. } => 0,
            Msg::Req { kind, .. } => 24 + kind.bytes(),
            Msg::Reply { result, .. } => {
                16 + match result {
                    OpResult::Value(Some(p)) => p.len(),
                    OpResult::ScanHits(hits) => hits.iter().map(|(_, p)| 8 + p.len()).sum(),
                    _ => 0,
                }
            }
            Msg::Scan { filter, .. } => {
                24 + match filter {
                    FilterSpec::PayloadContains(n) => n.len(),
                    _ => 8,
                }
            }
            Msg::ScanReply { hits, .. } => {
                16 + hits.iter().map(|(_, p)| 8 + p.len()).sum::<usize>()
            }
            Msg::ParityDelta { entry, .. } => 32 + entry.delta_cell.len(),
            Msg::ParityBatch { entries, .. } => {
                8 + entries
                    .iter()
                    .map(|e| 32 + e.delta_cell.len())
                    .sum::<usize>()
            }
            Msg::ParityAck { .. } => 12,
            Msg::ReportOverflow { .. } => 12,
            Msg::InitData { .. } => 20,
            Msg::InitParity { .. } => 16,
            Msg::DoSplit { .. } => 20,
            Msg::SplitLoad {
                records, replay, ..
            } => {
                12 + 24 * replay.len() + records.iter().map(|r| 12 + r.payload.len()).sum::<usize>()
            }
            Msg::Suspect { kind, .. } => 24 + kind.bytes(),
            Msg::Probe { .. } | Msg::ProbeAck { .. } => 8,
            Msg::TransferShard { .. } => 8,
            Msg::ShardData { content, .. } => 16 + content.bytes(),
            Msg::Install { content, .. } => 32 + content.bytes(),
            Msg::InstallAck { .. } => 8,
            Msg::FindRecord { .. } => 16,
            Msg::FindRecordReply { found, .. } => {
                8 + found.as_ref().map(|(_, ks)| 8 + 8 * ks.len()).unwrap_or(0)
            }
            Msg::ReadCell { .. } => 16,
            Msg::CellData { cell, .. } => 12 + cell.len(),
            Msg::SplitDone { .. } => 8,
            Msg::ForceMerge => 0,
            Msg::DoMerge { .. } => 20,
            Msg::MergeLoad {
                records, replay, ..
            } => {
                16 + 24 * replay.len() + records.iter().map(|r| 12 + r.payload.len()).sum::<usize>()
            }
            Msg::MergeDone { .. } => 16,
            Msg::Retire => 4,
            Msg::SelfReport => 0,
            Msg::CheckOwnership { .. } => 20,
            Msg::OwnershipAck => 4,
            Msg::RestartReport { .. } => 16,
            Msg::SuffixPull { .. } => 28,
            Msg::DeltaSuffix { entries, .. } => {
                16 + entries
                    .iter()
                    .map(|e| 32 + e.delta_cell.len())
                    .sum::<usize>()
            }
            Msg::SuffixInfo { .. } => 40,
            Msg::RestartAbort { .. } => 12,
            Msg::ResumeWrites { .. } => 8,
            Msg::CheckGroup { .. } => 8,
            Msg::RecoverFileState => 0,
            Msg::StateQuery => 4,
            Msg::StateReply { .. } => 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhrs_sim::Payload;

    #[test]
    fn kinds_are_stable_labels() {
        let m = Msg::Req {
            op_id: 1,
            floor: 1,
            client: NodeId(0),
            intended: 0,
            hops: 0,
            kind: ReqKind::Insert(1, vec![1, 2, 3]),
        };
        assert_eq!(m.kind(), "insert");
        assert_eq!(m.size_bytes(), 24 + 8 + 3);
        assert_eq!(Msg::StateQuery.kind(), "state-query");
    }

    #[test]
    fn filter_semantics() {
        assert!(FilterSpec::All.matches(1, b"anything"));
        assert!(FilterSpec::PayloadContains(b"bc".to_vec()).matches(1, b"abcd"));
        assert!(!FilterSpec::PayloadContains(b"xz".to_vec()).matches(1, b"abcd"));
        assert!(FilterSpec::PayloadContains(Vec::new()).matches(1, b""));
        assert!(FilterSpec::KeyRange(10, 20).matches(10, b""));
        assert!(!FilterSpec::KeyRange(10, 20).matches(20, b""));
    }

    #[test]
    fn reqkind_exposes_key() {
        assert_eq!(ReqKind::Lookup(7).key(), 7);
        assert_eq!(ReqKind::Insert(9, vec![]).key(), 9);
        assert_eq!(ReqKind::Update(3, vec![1]).key(), 3);
        assert_eq!(ReqKind::Delete(4).key(), 4);
    }
}
