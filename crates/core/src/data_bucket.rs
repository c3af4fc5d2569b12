//! The data-bucket server: primary record storage, A2 forwarding, rank
//! assignment, Δ-emission to parity buckets, and splitting.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use lhrs_lh::{a2_route, A2Outcome};
use lhrs_obs::Event as ObsEvent;
use lhrs_sim::{Env, NodeId};

use crate::exchange::{Exchanges, Owner, Schedule};
use crate::msg::{DeltaEntry, Iam, KeyOp, Msg, OpId, OpResult, ReplayEntry, ReqKind, ShardContent};
use crate::record::{cell_delta, decode_cell, encode_cell, Record};
use crate::registry::SharedHandle;
use crate::storage::{self, BucketStore, GroupCommits, StoreError, WalOp};
use crate::{Config, Key, Rank};

/// Consecutive no-progress Δ retransmission rounds after which a data
/// bucket gives up on a parity bucket (recovery will rebuild it).
pub const DELTA_RETRY_LIMIT: u32 = 20;

/// Replay-cache capacity: how many recent client-op results each bucket
/// remembers for duplicate suppression, least recently used evicted first.
/// It stays above `clients × client_window` for the deployments this
/// reproduction runs, so a retried write still finds its first execution's
/// result.
pub const REPLAY_CACHE_CAP: usize = 4096;

/// What one parity fan-out carries: a client write's Δ or a bulk batch.
enum Deltas {
    One(DeltaEntry),
    Batch(Vec<DeltaEntry>),
}

/// The data bucket's exchange rows (DESIGN.md §2.4), at most one of each;
/// a row's token is its kind (`row as u64`).
#[derive(Clone, Copy)]
pub(crate) enum Row {
    /// Δs not yet acked by every parity bucket (reliable mode).
    Deltas,
    /// The recovery write freeze, from `TransferShard` to `ResumeWrites`.
    Freeze,
    /// The Δ-suffix catch-up, from the boot `RestartReport` to resumption.
    Catchup,
}

impl Schedule for Row {
    fn period(&self, cfg: &Config, _: u32) -> u64 {
        match self {
            Row::Deltas => cfg.delta_retransmit_us,
            // Long enough for several collection retry rounds, short
            // enough that a dead coordinator doesn't read as a dead bucket.
            Row::Freeze => cfg.coord_retransmit_us.saturating_mul(8),
            // The coordinator's full retry budget plus slack, so the
            // bucket never aborts a handshake the coordinator is still
            // driving.
            Row::Catchup => cfg
                .probe_timeout_us
                .saturating_mul(u64::from(cfg.coord_retries).saturating_add(2)),
        }
    }

    /// The Δ window gives up on a silent parity bucket after
    /// [`DELTA_RETRY_LIMIT`] rounds without progress; the freeze and the
    /// catch-up are watchdogs that conclude on their first expiry.
    fn limit(&self, _: &Config) -> u32 {
        match self {
            Row::Deltas => DELTA_RETRY_LIMIT,
            Row::Freeze | Row::Catchup => 0,
        }
    }
}

/// A primary (data) bucket of the LH\*RS file.
pub struct DataBucket {
    shared: SharedHandle,
    /// Logical bucket number.
    pub bucket: u64,
    /// Current bucket level `j`.
    pub level: u8,
    /// Records by rank — the rank is the `r` of the record-group key.
    records: BTreeMap<Rank, Record>,
    /// Key → rank index for O(1) key access.
    by_key: HashMap<Key, Rank>,
    /// The insert counter `r`: next never-used rank.
    next_rank: Rank,
    /// Ranks freed by deletes, reused smallest-first to keep record groups
    /// dense (the §4.3 storage-efficiency rule, applied locally).
    free_ranks: BinaryHeap<Reverse<Rank>>,
    /// Whether an overflow report is already outstanding.
    overflow_reported: bool,
    /// Record count at the last overflow report (drives the doubling rule
    /// for re-reports when the first report was lost).
    last_report_size: usize,
    /// Next Δ sequence number of this column's stream.
    delta_seq: u64,
    /// Reliable mode (`ack_parity`): Δs emitted but not yet acknowledged by
    /// every parity bucket, kept for retransmission. Keyed by seq.
    unacked: BTreeMap<u64, DeltaEntry>,
    /// Per parity column `q`: cumulative ack watermark (every Δ with
    /// `seq < parity_acked[q]` is applied there).
    parity_acked: Vec<u64>,
    /// Watermark minimum at the last progress check, taken when the Δ
    /// window opens.
    last_min_acked: u64,
    /// The retried work in flight: the Δ window and the two watchdogs.
    exchanges: Exchanges<Row>,
    /// Client-op replay cache: the result each recent write produced, so a
    /// retried (duplicated) request is answered identically without
    /// re-executing. The `u64` is the entry's LRU generation stamp.
    replay: HashMap<(NodeId, OpId), (Key, OpResult, u64)>,
    /// LRU recency order: generation stamp → cache key, coldest first.
    /// Eviction must be least-recently-*used*, not insertion order: a
    /// pipelined client keeps a whole window of ids in flight, and a
    /// still-retried old id that FIFO would evict first must stay cached
    /// as long as duplicates keep touching it.
    replay_lru: BTreeMap<u64, (NodeId, OpId)>,
    /// Generation counter backing `replay_lru` (monotone per bucket).
    replay_gen: u64,
    /// The last split or merge shipment: its destination bucket and the
    /// `SplitLoad` or `MergeLoad` first sent, re-sent verbatim when the
    /// coordinator repeats the order (lost load or lost confirmation).
    shipped: Option<(u64, Msg)>,
    /// Durable store, when the file runs with persistence.
    store: Option<Box<dyn BucketStore>>,
    /// Set by local-store recovery: the boot `SelfReport` should offer the
    /// coordinator a Δ-suffix catch-up instead of a plain ownership check.
    report_restart: bool,
    /// Messages deferred while catching up or frozen, replayed when the
    /// row that held them settles or concludes. Catch-up holds
    /// `TransferShard`, so the two never hold at once.
    held: Vec<(NodeId, Msg)>,
    /// Δ-suffixes received from distinct parity buckets this catch-up.
    suffixes_seen: usize,
    /// Whether the coordinator confirmed ownership this catch-up.
    got_ack: bool,
    /// The catch-up was aborted (inapplicable suffix or watchdog expiry):
    /// the bucket is waiting for the coordinator's `Retire` and must not
    /// resume, whatever still arrives.
    catchup_failed: bool,
}

impl DataBucket {
    /// Create an empty bucket.
    pub fn new(shared: SharedHandle, bucket: u64, level: u8) -> Self {
        DataBucket {
            shared,
            bucket,
            level,
            records: BTreeMap::new(),
            by_key: HashMap::new(),
            next_rank: 0,
            free_ranks: BinaryHeap::new(),
            overflow_reported: false,
            last_report_size: 0,
            delta_seq: 0,
            unacked: BTreeMap::new(),
            parity_acked: Vec::new(),
            last_min_acked: 0,
            exchanges: Exchanges::new(),
            replay: HashMap::new(),
            replay_lru: BTreeMap::new(),
            replay_gen: 0,
            shipped: None,
            store: None,
            report_restart: false,
            held: Vec::new(),
            suffixes_seen: 0,
            got_ack: false,
            catchup_failed: false,
        }
    }

    /// Restore a bucket from recovered content (hot-spare installation).
    /// `delta_seq` resumes the column's Δ numbering where the lost bucket
    /// stopped, so surviving parity buckets recognise the continuation.
    pub fn from_content(
        shared: SharedHandle,
        bucket: u64,
        level: u8,
        next_rank: Rank,
        delta_seq: u64,
        records: Vec<(Rank, Key, Vec<u8>)>,
    ) -> Self {
        let mut b = DataBucket::new(shared, bucket, level);
        b.next_rank = next_rank;
        b.delta_seq = delta_seq;
        for (rank, key, payload) in records {
            b.by_key.insert(key, rank);
            b.records.insert(rank, Record { key, payload });
        }
        // Ranks below `next_rank` not in use are reusable gaps.
        for r in 0..next_rank {
            if !b.records.contains_key(&r) {
                b.free_ranks.push(Reverse(r));
            }
        }
        b
    }

    /// Bucket-group number `g = ⌊bucket / m⌋`.
    pub fn group(&self) -> u64 {
        self.bucket / self.shared.cfg.group_size as u64
    }

    /// Reed–Solomon column index: offset within the group.
    pub fn col(&self) -> usize {
        crate::convert::to_index(self.bucket % self.shared.cfg.group_size as u64)
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the bucket holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate `(rank, key, payload)`.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, Key, &[u8])> {
        self.records
            .iter()
            .map(|(r, rec)| (*r, rec.key, rec.payload.as_slice()))
    }

    /// Approximate payload bytes held.
    pub fn payload_bytes(&self) -> usize {
        self.records.values().map(|r| r.payload.len()).sum()
    }

    /// Attach a durable store; subsequent commits are logged to it.
    pub fn attach_store(&mut self, store: Box<dyn BucketStore>) {
        self.store = Some(store);
    }

    /// Current Δ-stream position (next sequence to emit).
    pub fn delta_seq(&self) -> u64 {
        self.delta_seq
    }

    /// Flag set by [`crate::storage::recover`]: the boot `SelfReport`
    /// offers the coordinator a Δ-suffix catch-up.
    pub(crate) fn mark_restarted(&mut self) {
        self.report_restart = true;
    }

    /// Flush the store's buffered appends (the once-per-batch hook behind
    /// [`crate::FsyncPolicy::Batch`]) and report the flushes completed
    /// since the last pass. A failed sync poisons the store and returns
    /// the error, for the caller to count.
    pub fn sync_store(&mut self) -> Result<GroupCommits, StoreError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(GroupCommits::default());
        };
        if let Err(e) = store.sync() {
            // Buffered appends may be gone: the log has a silent hole
            // and must never be replayed.
            self.reset_store();
            return Err(e);
        }
        Ok(store.take_group_commits())
    }

    /// Erase and drop the store — on retirement (the logical bucket lives
    /// elsewhere now) and on any write failure (the log is holey or its
    /// base is stale). Either way this copy must not resurrect: erasing
    /// the snapshot makes `has_state`/`recover` fail, so the next boot
    /// goes Blank and through the full RS rebuild.
    pub(crate) fn reset_store(&mut self) {
        if let Some(store) = self.store.as_mut() {
            let _ = store.reset();
        }
        self.store = None;
    }

    /// This bucket's full state as shipped in recovery transfers.
    fn content(&self) -> ShardContent {
        ShardContent::Data {
            level: self.level,
            next_rank: self.next_rank,
            delta_seq: self.delta_seq,
            records: self
                .records
                .iter()
                .map(|(r, rec)| (*r, rec.key, rec.payload.clone()))
                .collect(),
        }
    }

    /// Write a snapshot and truncate the log (no-op without a store).
    /// Returns whether the store took the snapshot.
    pub(crate) fn snapshot_now(&mut self) -> bool {
        let Some(store) = self.store.as_mut() else {
            return false;
        };
        let state = storage::Snapshot::encode_data(
            self.bucket,
            self.level,
            self.next_rank,
            self.delta_seq,
            &self.records,
        );
        let ok = store.snapshot(state).is_ok();
        if !ok {
            // The log's base no longer matches RAM (e.g. the post-split
            // bulk removal was never snapshotted); replaying it would
            // resurrect diverged state that the Δ-suffix handshake could
            // then certify. Poison the store instead.
            self.reset_store();
        }
        ok
    }

    /// Snapshot with observability (structural events and the periodic
    /// policy both land here).
    fn snapshot_obs(&mut self, env: &mut Env<'_, Msg>) {
        let had_store = self.store.is_some();
        if self.snapshot_now() {
            env.obs().incr("wal_snapshots");
        } else if had_store {
            env.obs().incr("wal_errors");
        }
    }

    /// Append one op to the store, then snapshot if the policy says so.
    fn log_op(&mut self, env: &mut Env<'_, Msg>, op: &WalOp) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let buf = storage::encode_op(op);
        match store.append(&buf) {
            Ok(()) => {
                env.obs().incr("wal_appends");
                env.obs().add("wal_bytes", buf.len() as u64);
            }
            Err(_) => {
                // A failing disk must not take the bucket down with it: the
                // RAM copy stays authoritative and keeps serving. But the
                // log now has a silent hole, so it must never be replayed —
                // poison the store so the next boot goes through the full
                // RS rebuild instead.
                env.obs().incr("wal_errors");
                self.reset_store();
                return;
            }
        }
        let every = self.shared.cfg.wal_snapshot_every;
        if every > 0 && store.appended_since_snapshot() >= every {
            self.snapshot_obs(env);
        }
    }

    /// Log the committed record at `rank` (insert or update).
    fn log_set(&mut self, env: &mut Env<'_, Msg>, rank: Rank, key: Key) {
        if self.store.is_none() {
            return;
        }
        let Some(payload) = self.records.get(&rank).map(|r| r.payload.clone()) else {
            return;
        };
        let op = WalOp::Set {
            rank,
            key,
            payload,
            delta_seq: self.delta_seq,
        };
        self.log_op(env, &op);
    }

    /// Log the committed delete of `rank`.
    fn log_del(&mut self, env: &mut Env<'_, Msg>, rank: Rank, key: Key) {
        if self.store.is_none() {
            return;
        }
        let op = WalOp::Del {
            rank,
            key,
            delta_seq: self.delta_seq,
        };
        self.log_op(env, &op);
    }

    /// Main message handler, called from the node dispatcher.
    pub fn on_message(&mut self, env: &mut Env<'_, Msg>, from: NodeId, msg: Msg) {
        // While catching up after a local-store restart, only catch-up and
        // liveness traffic flows; everything else is deferred so no write
        // can commit at a Δ-sequence the parity group already assigned.
        // While a recovery shard collection is in flight the coordinator
        // needs this column to hold still at the Δ-sequence it shipped in
        // `ShardData` — defer everything that would advance it (or move
        // records wholesale) until `ResumeWrites` or the freeze expires.
        let hold = if self.catching_up() || self.catchup_failed {
            !matches!(
                msg,
                Msg::DeltaSuffix { .. }
                    | Msg::OwnershipAck
                    | Msg::ParityAck { .. }
                    | Msg::Probe { .. }
                    | Msg::StateQuery
                    | Msg::SelfReport
            )
        } else if self.exchanges.is_open(Row::Freeze as u64) {
            match &msg {
                Msg::Req { kind, .. } => !matches!(kind, ReqKind::Lookup(_)),
                Msg::DoSplit { .. }
                | Msg::SplitLoad { .. }
                | Msg::DoMerge { .. }
                | Msg::MergeLoad { .. } => true,
                _ => false,
            }
        } else {
            false
        };
        if hold {
            // After an abort nothing is replayed — the coordinator's
            // Retire is coming and held traffic would be stale.
            if !self.catchup_failed {
                self.held.push((from, msg));
            }
            return;
        }
        match msg {
            Msg::Req {
                op_id,
                client,
                intended,
                hops,
                kind,
            } => self.handle_req(env, op_id, client, intended, hops, kind),
            Msg::DoSplit {
                source,
                target,
                new_level,
            } => self.handle_split(env, source, target, new_level),
            Msg::DoMerge {
                source,
                target,
                new_level,
            } => self.handle_merge(env, source, target, new_level),
            Msg::MergeLoad {
                level,
                records,
                replay,
                final_seq,
            } => {
                self.level = level;
                // A merge-driven absorb must not immediately re-split the
                // bucket (that would undo the shrink the file manager asked
                // for); a later insert can still report overflow.
                self.absorb_movers(env, records, replay, false);
                let coord = self.shared.registry.borrow().coordinator();
                env.send(
                    coord,
                    Msg::MergeDone {
                        bucket: self.bucket,
                        final_seq,
                    },
                );
            }
            Msg::SplitLoad {
                bucket,
                level,
                records,
                replay,
            } => {
                // Movers arriving at a freshly initialised bucket (or again,
                // if the shipment was duplicated — absorb dedups by key).
                // `level` is the sender's, not necessarily ours: an expel
                // shipment (see `expel_misplaced`) addresses at the
                // expeller's level, and absorb re-forwards any stray.
                debug_assert_eq!(bucket, self.bucket);
                let _ = level;
                self.absorb_movers(env, records, replay, true);
                let coord = self.shared.registry.borrow().coordinator();
                env.send(
                    coord,
                    Msg::SplitDone {
                        bucket: self.bucket,
                    },
                );
            }
            Msg::Scan {
                op_id,
                client,
                filter,
                assumed_level,
                reply_if_empty,
            } => {
                // Propagate to the buckets this scan's sender image does not
                // know about: for each level l the sender missed, the child
                // bucket created when this bucket split from l to l+1.
                let mut l = assumed_level;
                while l < self.level {
                    let child = self.bucket + (1u64 << l);
                    // A networked host's allocation-table snapshot can lag
                    // the sender's; drop the propagation then (the client's
                    // scan machinery retries a stalled scan).
                    let Some(node) = self.shared.registry.borrow().try_data_node(child) else {
                        l += 1;
                        continue;
                    };
                    env.send(
                        node,
                        Msg::Scan {
                            op_id,
                            client,
                            filter: filter.clone(),
                            assumed_level: l + 1,
                            reply_if_empty,
                        },
                    );
                    l += 1;
                }
                let hits: Vec<(Key, Vec<u8>)> = self
                    .records
                    .values()
                    .filter(|r| filter.matches(r.key, &r.payload))
                    .map(|r| (r.key, r.payload.clone()))
                    .collect();
                // Probabilistic termination: silent unless there are hits.
                if reply_if_empty || !hits.is_empty() {
                    env.send(
                        client,
                        Msg::ScanReply {
                            op_id,
                            bucket: self.bucket,
                            level: self.level,
                            hits,
                        },
                    );
                }
            }
            Msg::TransferShard { token } => {
                // Freeze (or re-arm an existing freeze — collection retries
                // re-send this) so the shipped Δ-sequence stays the truth
                // until the coordinator finishes the collection.
                self.open(env, Row::Freeze);
                let content = self.content();
                env.send(
                    from,
                    Msg::ShardData {
                        token,
                        shard: self.col(),
                        content,
                    },
                );
            }
            Msg::ResumeWrites { .. } => {
                if self.exchanges.settle(env, Row::Freeze as u64).is_some() {
                    self.replay_held(env);
                }
            }
            Msg::ReadCell { rank, token } => {
                let cell_len = self.shared.cfg.cell_len();
                let cell = self
                    .records
                    .get(&rank)
                    .map(|rec| encode_cell(&rec.payload, cell_len))
                    .unwrap_or_else(|| vec![0u8; cell_len]);
                env.send(
                    from,
                    Msg::CellData {
                        token,
                        shard: self.col(),
                        cell,
                    },
                );
            }
            Msg::Probe { token } => {
                env.send(
                    from,
                    Msg::ProbeAck {
                        token,
                        bucket: Some(self.bucket),
                    },
                );
            }
            Msg::StateQuery => {
                env.send(
                    from,
                    Msg::StateReply {
                        bucket: self.bucket,
                        level: self.level,
                    },
                );
            }
            Msg::SelfReport => {
                // Boot after an outage: check with the coordinator before
                // serving (the coordinator may have recreated this bucket
                // on a spare meanwhile).
                let coord = self.shared.registry.borrow().coordinator();
                if self.report_restart {
                    // Recovered from the local store: offer the Δ-suffix
                    // handshake. No write is served until the coordinator
                    // accepts (OwnershipAck) and every parity bucket has
                    // sent its suffix — otherwise a fresh commit could
                    // reuse a Δ-sequence the parity group already applied.
                    self.report_restart = false;
                    self.catchup_failed = false;
                    self.suffixes_seen = 0;
                    self.got_ack = false;
                    self.open(env, Row::Catchup);
                    env.send(
                        coord,
                        Msg::RestartReport {
                            bucket: self.bucket,
                            delta_seq: self.delta_seq,
                        },
                    );
                } else {
                    env.send(
                        coord,
                        Msg::CheckOwnership {
                            bucket: Some(self.bucket),
                            parity: None,
                        },
                    );
                }
            }
            Msg::OwnershipAck => {
                if self.catchup_failed {
                    // A certification racing our abort: the coordinator
                    // will process the abort and Retire us — resuming now
                    // would serve from the diverged replica it certifies
                    // against.
                    return;
                }
                if self.catching_up() {
                    self.got_ack = true;
                    self.try_resume(env);
                }
                // Still the owner: resume serving. A crash dropped this
                // node's timers, so re-open the Δ window if Δs are still
                // unacknowledged.
                self.reopen_deltas(env);
            }
            Msg::DeltaSuffix {
                col,
                from_seq: _,
                entries,
                complete,
            } => self.handle_suffix(env, col, entries, complete),
            Msg::ParityAck { col, upto } => self.handle_parity_ack(env, from, col, upto),
            Msg::InitData { bucket, .. } if bucket == self.bucket => {
                // Duplicated provisioning order: already initialised.
            }
            Msg::Install {
                bucket: Some(b),
                token,
                ..
            } if b == self.bucket => {
                // Duplicated install whose InstallAck was lost: re-ack.
                env.send(from, Msg::InstallAck { token });
            }
            other => {
                debug_assert!(false, "data bucket {} got {:?}", self.bucket, other);
            }
        }
    }

    /// Open `row`, or re-arm it if it is open.
    fn open(&mut self, env: &mut Env<'_, Msg>, row: Row) {
        self.exchanges.open(env, &self.shared.cfg, row as u64, row);
    }

    /// Re-open the Δ window after progress, a give-up or a crash, if Δs
    /// are still unacknowledged.
    fn reopen_deltas(&mut self, env: &mut Env<'_, Msg>) {
        if self.shared.cfg.ack_parity
            && !self.unacked.is_empty()
            && !self.exchanges.is_open(Row::Deltas as u64)
        {
            self.open(env, Row::Deltas);
        }
    }

    /// Cumulative ack from parity column holder `from`: advance its
    /// watermark, prune Δs every parity bucket has, and settle or re-open
    /// the Δ window.
    fn handle_parity_ack(&mut self, env: &mut Env<'_, Msg>, from: NodeId, col: usize, upto: u64) {
        if col != self.col() {
            return; // stale ack addressed to a previous tenant of this node
        }
        let parity_nodes = self.parity_nodes();
        let Some(q) = parity_nodes.iter().position(|&n| n == from) else {
            return; // an ack from a since-replaced parity bucket
        };
        self.ensure_acked_slots(parity_nodes.len());
        if let Some(slot) = self.parity_acked.get_mut(q) {
            if upto > *slot {
                *slot = upto;
            }
        }
        let min = self.min_acked();
        self.unacked = self.unacked.split_off(&min);
        if min > self.last_min_acked {
            self.exchanges.reset_rounds(Row::Deltas as u64);
            self.last_min_acked = min;
        }
        if self.unacked.is_empty() {
            self.exchanges.settle(env, Row::Deltas as u64);
        } else {
            // Progress after a give-up (or a post-crash ack): resume.
            self.reopen_deltas(env);
        }
    }

    fn ensure_acked_slots(&mut self, k: usize) {
        if self.parity_acked.len() < k {
            self.parity_acked.resize(k, 0);
        }
    }

    /// The lowest ack watermark across the group's current parity buckets.
    fn min_acked(&mut self) -> u64 {
        let k = self.shared.registry.borrow().group_k(self.group());
        self.ensure_acked_slots(k);
        self.parity_acked
            .get(..k)
            .into_iter()
            .flatten()
            .copied()
            .min()
            .unwrap_or(self.delta_seq)
    }

    /// Record a write's outcome in the replay cache (LRU-bounded).
    fn remember(&mut self, client: NodeId, op_id: OpId, key: Key, result: OpResult) {
        let id = (client, op_id);
        self.replay_gen += 1;
        let gen = self.replay_gen;
        if let Some((_, _, old_gen)) = self.replay.insert(id, (key, result, gen)) {
            self.replay_lru.remove(&old_gen);
        }
        self.replay_lru.insert(gen, id);
        while self.replay.len() > REPLAY_CACHE_CAP {
            let Some((_, coldest)) = self.replay_lru.pop_first() else {
                break; // maps out of sync only on a logic bug; never spin
            };
            self.replay.remove(&coldest);
        }
    }

    /// Look up a cached write outcome, refreshing the entry's recency so
    /// an id that is still being retried outlives colder entries.
    fn replay_hit(&mut self, client: NodeId, op_id: OpId) -> Option<OpResult> {
        let id = (client, op_id);
        let (_, result, gen) = self.replay.get_mut(&id)?;
        let result = result.clone();
        self.replay_gen += 1;
        let old_gen = std::mem::replace(gen, self.replay_gen);
        self.replay_lru.remove(&old_gen);
        self.replay_lru.insert(self.replay_gen, id);
        Some(result)
    }

    /// Number of entries currently in the replay cache (bounded by
    /// [`REPLAY_CACHE_CAP`]).
    pub fn replay_cache_len(&self) -> usize {
        self.replay.len()
    }

    fn handle_req(
        &mut self,
        env: &mut Env<'_, Msg>,
        op_id: u64,
        client: NodeId,
        _intended: u64,
        hops: u8,
        kind: ReqKind,
    ) {
        // Algorithm A2: verify this bucket is the correct address, forward
        // otherwise. N = 1 throughout LH*RS.
        match a2_route(self.bucket, self.level, kind.key(), 1) {
            A2Outcome::Forward(next) => {
                // With a lagging networked allocation table the forward
                // target may not be mapped yet: drop the request — the
                // client times out and retries against a fresher table.
                let Some(node) = self.shared.registry.borrow().try_data_node(next) else {
                    return;
                };
                env.send(
                    node,
                    Msg::Req {
                        op_id,
                        client,
                        intended: next,
                        hops: hops + 1,
                        kind,
                    },
                );
            }
            A2Outcome::Accept => {
                let iam = (hops > 0).then_some(Iam {
                    level: self.level,
                    bucket: self.bucket,
                });
                let ack_writes = self.shared.cfg.ack_writes;
                if let ReqKind::Lookup(key) = kind {
                    // Lookups are naturally idempotent: no replay cache.
                    let payload = self
                        .by_key
                        .get(&key)
                        .and_then(|r| self.records.get(r))
                        .map(|rec| rec.payload.clone());
                    env.send(
                        client,
                        Msg::Reply {
                            op_id,
                            result: OpResult::Value(payload),
                            iam,
                        },
                    );
                    return;
                }
                // A retried write the bucket already executed must not run
                // again (a re-run insert would report DuplicateKey, a re-run
                // delete NotFound, and each would double-commit parity Δs).
                // Answer duplicates from the replay cache instead.
                if let Some(result) = self.replay_hit(client, op_id) {
                    let is_err = matches!(result, OpResult::DuplicateKey | OpResult::NotFound);
                    if ack_writes || iam.is_some() || is_err {
                        env.send(client, Msg::Reply { op_id, result, iam });
                    }
                    return;
                }
                let (key, result) = match kind {
                    ReqKind::Lookup(_) => return, // replied above

                    ReqKind::Insert(key, payload) => {
                        let result = if self.by_key.contains_key(&key) {
                            OpResult::DuplicateKey
                        } else {
                            let rank = self.alloc_rank();
                            let cell = encode_cell(&payload, self.shared.cfg.cell_len());
                            self.by_key.insert(key, rank);
                            self.records.insert(rank, Record { key, payload });
                            self.emit_delta(env, rank, KeyOp::Add(key), cell);
                            self.log_set(env, rank, key);
                            self.maybe_report_overflow(env);
                            OpResult::Inserted
                        };
                        (key, result)
                    }
                    ReqKind::Update(key, new_payload) => {
                        let cell_len = self.shared.cfg.cell_len();
                        let result = match self
                            .by_key
                            .get(&key)
                            .copied()
                            .map(|rank| (rank, self.records.get_mut(&rank)))
                        {
                            None => OpResult::NotFound,
                            // by_key points at a missing rank: the bucket's
                            // index is inconsistent. Fail the write rather
                            // than abort; recovery rebuilds both maps.
                            Some((_, None)) => OpResult::Failed("bucket index inconsistent".into()),
                            Some((rank, Some(rec))) => {
                                let old_cell = encode_cell(&rec.payload, cell_len);
                                let new_cell = encode_cell(&new_payload, cell_len);
                                rec.payload = new_payload;
                                let delta = cell_delta(&old_cell, &new_cell);
                                self.emit_delta(env, rank, KeyOp::Keep, delta);
                                self.log_set(env, rank, key);
                                OpResult::Updated
                            }
                        };
                        (key, result)
                    }
                    ReqKind::Delete(key) => {
                        let result = match self
                            .by_key
                            .remove(&key)
                            .map(|r| (r, self.records.remove(&r)))
                        {
                            None => OpResult::NotFound,
                            Some((_, None)) => OpResult::Failed("bucket index inconsistent".into()),
                            Some((rank, Some(rec))) => {
                                self.free_ranks.push(Reverse(rank));
                                let cell = encode_cell(&rec.payload, self.shared.cfg.cell_len());
                                self.emit_delta(env, rank, KeyOp::Remove(key), cell);
                                self.log_del(env, rank, key);
                                OpResult::Deleted
                            }
                        };
                        (key, result)
                    }
                };
                self.remember(client, op_id, key, result.clone());
                // Error outcomes are always reported (even in unacked mode
                // the client must learn its optimistic write failed);
                // success replies only when acked or the image was stale.
                let is_err = matches!(result, OpResult::DuplicateKey | OpResult::NotFound);
                if ack_writes || iam.is_some() || is_err {
                    env.send(client, Msg::Reply { op_id, result, iam });
                }
            }
        }
    }

    /// Execute a split ordered by the coordinator: partition by
    /// `h_{new_level}`, retract the movers and ship them to `target`.
    fn handle_split(&mut self, env: &mut Env<'_, Msg>, source: u64, target: u64, new_level: u8) {
        debug_assert_eq!(source, self.bucket);
        if new_level <= self.level {
            // Duplicate order: the coordinator re-sent because SplitDone
            // never arrived. If the partition ran here, re-ship the cached
            // load verbatim (re-running would emit fresh Δ seqs for work
            // the parity already saw). The receiver absorbs idempotently
            // and re-confirms.
            if matches!(self.shipped, Some((_, Msg::SplitLoad { .. }))) {
                self.send_shipped(env);
                return;
            }
            // No cached shipment: this replica never ran the partition —
            // it was rebuilt from parity after its predecessor died with
            // the order in flight, and was installed at the coordinator's
            // (post-split) level with the movers still inside. Fall
            // through and partition now: the movers it still holds have
            // never been retracted from parity, so the fresh Δ seqs are
            // exactly right, and if it genuinely has nothing for the
            // target the shipment is an empty re-confirmation.
        }
        let moves = |key: Key| lhrs_lh::h(new_level, 1, key) == target;
        let ranks = self
            .records
            .iter()
            .filter(|(_, rec)| moves(rec.key))
            .map(|(r, _)| *r)
            .collect();
        let records = self.retract(env, ranks);
        self.level = new_level;
        self.overflow_reported = false;
        self.last_report_size = 0;
        let replay = self.take_replay(moves);
        // The new bucket enrols the movers in its own group's parity.
        let load = Msg::SplitLoad {
            bucket: target,
            level: new_level,
            records,
            replay,
        };
        self.ship(env, target, load);
        // A split may leave this bucket still over capacity (skewed keys).
        self.maybe_report_overflow(env);
        // Structural change: snapshot rather than log the bulk removal.
        self.snapshot_obs(env);
    }

    /// Ship away records that do not address to this bucket at its level.
    /// A rebuilt bucket can hold such records: its predecessor died with a
    /// split order in flight, after the coordinator committed the address-
    /// space change but before the partition ran — the reconstruction then
    /// restores the movers into a bucket whose level says they belong
    /// elsewhere, where no lookup will ever find them. Retract each stray
    /// and ship it to its home bucket (the receiver absorbs idempotently).
    pub fn expel_misplaced(&mut self, env: &mut Env<'_, Msg>) {
        // A record whose home this host's registry replica cannot name yet
        // stays put (still covered by parity) instead of being retracted
        // into nowhere.
        let strays: Vec<Rank> = self
            .records
            .iter()
            .filter(|(_, rec)| self.is_stray(rec.key))
            .map(|(r, _)| *r)
            .collect();
        if strays.is_empty() {
            return;
        }
        let records = self.retract(env, strays);
        env.obs()
            .add("recovery_expelled_records", records.len() as u64);
        self.ship_home(env, records);
        self.snapshot_obs(env);
    }

    /// Receive records moved in by a split or merge: assign fresh ranks and
    /// enrol them in this group's parity. Records whose key is already
    /// present are duplicates from a retransmitted shipment and are skipped
    /// (absorbing them twice would double-count them in the parity).
    fn absorb_movers(
        &mut self,
        env: &mut Env<'_, Msg>,
        records: Vec<Record>,
        replay: Vec<ReplayEntry>,
        check_overflow: bool,
    ) {
        for e in replay {
            self.remember(e.client, e.op_id, e.key, e.result);
        }
        let cell_len = self.shared.cfg.cell_len();
        let mut onward = Vec::new();
        let mut additions = Vec::new();
        for rec in records {
            if self.by_key.contains_key(&rec.key) {
                continue; // duplicated shipment
            }
            // An expel shipment addressed at the *sender's* level can carry
            // records this bucket has since split past: forward them onward
            // at our level (the chain terminates — each hop's address
            // refines). An unresolvable home absorbs locally rather than
            // drop: the record stays parity-covered, just unaddressable
            // until a later split re-partitions it.
            if self.is_stray(rec.key) {
                onward.push(rec);
                continue;
            }
            let rank = self.alloc_rank();
            let cell = encode_cell(&rec.payload, cell_len);
            additions.push(self.next_delta(rank, KeyOp::Add(rec.key), cell));
            self.by_key.insert(rec.key, rank);
            self.records.insert(rank, rec);
        }
        self.send_batch(env, additions);
        self.ship_home(env, onward);
        if check_overflow {
            self.maybe_report_overflow(env);
        }
        // Structural change: snapshot rather than log the bulk arrival.
        self.snapshot_obs(env);
    }

    /// Execute a merge ordered by the coordinator: this bucket (the last
    /// one, `target`) retracts every record and ships them back to
    /// `source`. The node is retired afterwards.
    fn handle_merge(&mut self, env: &mut Env<'_, Msg>, source: u64, target: u64, new_level: u8) {
        debug_assert_eq!(target, self.bucket);
        if matches!(self.shipped, Some((_, Msg::MergeLoad { .. }))) {
            // Duplicate order (lost MergeLoad or MergeDone): re-ship the
            // cached load verbatim; the absorber dedups by key and
            // re-confirms.
            self.send_shipped(env);
            return;
        }
        let ranks = self.records.keys().copied().collect();
        let records = self.retract(env, ranks);
        // The whole replay cache follows the records (this bucket is
        // disappearing).
        let replay = self.take_replay(|_| true);
        let load = Msg::MergeLoad {
            level: new_level,
            records,
            replay,
            final_seq: self.delta_seq,
        };
        self.ship(env, source, load);
    }

    /// Take the records at `ranks` out of this bucket — the movers of a
    /// split, merge or expel — and retract them from this group's parity
    /// with one batch of `Remove` Δs (the paper's bulk transfer).
    fn retract(&mut self, env: &mut Env<'_, Msg>, ranks: Vec<Rank>) -> Vec<Record> {
        let cell_len = self.shared.cfg.cell_len();
        let mut movers = Vec::with_capacity(ranks.len());
        let mut removals = Vec::with_capacity(ranks.len());
        for rank in ranks {
            let Some(rec) = self.records.remove(&rank) else {
                continue; // listed from this map by the caller
            };
            self.by_key.remove(&rec.key);
            self.free_ranks.push(Reverse(rank));
            let cell = encode_cell(&rec.payload, cell_len);
            removals.push(self.next_delta(rank, KeyOp::Remove(rec.key), cell));
            movers.push(rec);
        }
        self.send_batch(env, removals);
        movers
    }

    /// Take the replay-cache entries whose keys move, in id order, so a
    /// retried write that now routes to the receiver is still seen there as
    /// a duplicate.
    fn take_replay(&mut self, moves: impl Fn(Key) -> bool) -> Vec<ReplayEntry> {
        let mut ids: Vec<(NodeId, OpId)> = self
            .replay
            .iter()
            .filter(|(_, (key, _, _))| moves(*key))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        let mut taken = Vec::with_capacity(ids.len());
        for (client, op_id) in ids {
            if let Some((key, result, gen)) = self.replay.remove(&(client, op_id)) {
                self.replay_lru.remove(&gen);
                taken.push(ReplayEntry {
                    client,
                    op_id,
                    key,
                    result,
                });
            }
        }
        taken
    }

    /// Send a split or merge load to bucket `dest`, keeping a copy for
    /// [`Self::send_shipped`].
    fn ship(&mut self, env: &mut Env<'_, Msg>, dest: u64, load: Msg) {
        self.shipped = Some((dest, load.clone()));
        let node = self.shared.registry.borrow().data_node(dest);
        env.send(node, load);
    }

    /// Re-send the cached split or merge load verbatim. The destination
    /// bucket's node is looked up again: a recovery may have moved the
    /// bucket since the first send.
    fn send_shipped(&self, env: &mut Env<'_, Msg>) {
        if let Some((dest, load)) = &self.shipped {
            let node = self.shared.registry.borrow().data_node(*dest);
            env.send(node, load.clone());
        }
    }

    /// Whether `key`'s home bucket at this bucket's level is another bucket
    /// that this host's registry can name.
    fn is_stray(&self, key: Key) -> bool {
        let home = lhrs_lh::h(self.level, 1, key);
        home != self.bucket && self.shared.registry.borrow().try_data_node(home).is_some()
    }

    /// Ship records to their home buckets at this bucket's level, one
    /// `SplitLoad` per home; every record must be [`Self::is_stray`].
    fn ship_home(&self, env: &mut Env<'_, Msg>, records: Vec<Record>) {
        let mut by_home: BTreeMap<u64, Vec<Record>> = BTreeMap::new();
        for rec in records {
            let home = lhrs_lh::h(self.level, 1, rec.key);
            by_home.entry(home).or_default().push(rec);
        }
        for (home, records) in by_home {
            let Some(node) = self.shared.registry.borrow().try_data_node(home) else {
                continue;
            };
            let load = Msg::SplitLoad {
                bucket: home,
                level: self.level,
                records,
                replay: Vec::new(),
            };
            env.send(node, load);
        }
    }

    /// Resume this column's Δ numbering at `seq` (a re-created bucket must
    /// continue where its merged-away predecessor stopped — the parity
    /// channels were never reset).
    pub fn resume_delta_seq(&mut self, seq: u64) {
        debug_assert_eq!(self.delta_seq, 0, "only meaningful on a fresh bucket");
        self.delta_seq = seq;
    }

    /// The next Δ of this column's stream.
    fn next_delta(&mut self, rank: Rank, key_op: KeyOp, delta_cell: Vec<u8>) -> DeltaEntry {
        let seq = self.delta_seq;
        self.delta_seq += 1;
        DeltaEntry {
            seq,
            rank,
            col: self.col(),
            key_op,
            delta_cell,
        }
    }

    /// The current parity buckets of this bucket's group.
    fn parity_nodes(&self) -> Vec<NodeId> {
        self.shared.registry.borrow().parity_nodes(self.group()).to_vec()
    }

    /// Commit one client write's Δ to this group's parity. Without a parity
    /// bucket there is no Δ, and no sequence number is taken.
    fn emit_delta(
        &mut self,
        env: &mut Env<'_, Msg>,
        rank: Rank,
        key_op: KeyOp,
        delta_cell: Vec<u8>,
    ) {
        let nodes = self.parity_nodes();
        if nodes.is_empty() {
            return;
        }
        let entry = self.next_delta(rank, key_op, delta_cell);
        self.fan_out(env, nodes, Deltas::One(entry));
    }

    /// Commit a bulk Δ batch (a move in or out) to this group's parity.
    fn send_batch(&mut self, env: &mut Env<'_, Msg>, entries: Vec<DeltaEntry>) {
        if entries.is_empty() {
            return;
        }
        let nodes = self.parity_nodes();
        if !nodes.is_empty() {
            self.fan_out(env, nodes, Deltas::Batch(entries));
        }
    }

    /// Send `deltas` to every parity bucket in `nodes`: a `ParityDelta` for
    /// one client write, a `ParityBatch` for bulk work. In reliable mode the
    /// entries are kept for retransmission until every parity bucket acks.
    fn fan_out(&mut self, env: &mut Env<'_, Msg>, nodes: Vec<NodeId>, deltas: Deltas) {
        let group = self.group();
        let ack_to = self.shared.cfg.ack_parity.then(|| env.me());
        let entries = match &deltas {
            Deltas::One(entry) => std::slice::from_ref(entry),
            Deltas::Batch(entries) => entries.as_slice(),
        };
        env.obs().add("deltas_emitted", entries.len() as u64);
        if ack_to.is_some() {
            for e in entries {
                self.unacked.insert(e.seq, e.clone());
            }
            if !self.exchanges.is_open(Row::Deltas as u64) {
                self.last_min_acked = self.min_acked();
                self.open(env, Row::Deltas);
            }
        }
        for pn in nodes {
            let msg = match &deltas {
                Deltas::One(entry) => Msg::ParityDelta {
                    group,
                    entry: entry.clone(),
                    ack_to,
                },
                Deltas::Batch(entries) => Msg::ParityBatch {
                    group,
                    entries: entries.clone(),
                    ack_to,
                },
            };
            env.send(pn, msg);
        }
    }

    fn alloc_rank(&mut self) -> Rank {
        if let Some(Reverse(r)) = self.free_ranks.pop() {
            r
        } else {
            let r = self.next_rank;
            self.next_rank += 1;
            r
        }
    }

    fn maybe_report_overflow(&mut self, env: &mut Env<'_, Msg>) {
        let len = self.records.len();
        if len <= self.shared.cfg.bucket_capacity {
            return;
        }
        // Report once; if the report (or the split order) was lost, the
        // bucket re-reports only after doubling in size again — in fault-free
        // runs the split always arrives long before that, so the report
        // stays effectively single-shot and the message cost model holds.
        if self.overflow_reported && len < 2 * self.last_report_size {
            return;
        }
        self.overflow_reported = true;
        self.last_report_size = len;
        env.obs().incr("overflow_reports");
        let coord = self.shared.registry.borrow().coordinator();
        env.send(
            coord,
            Msg::ReportOverflow {
                bucket: self.bucket,
                size: len,
            },
        );
    }

    /// Apply a Δ-suffix from one parity bucket: re-commit the ops this
    /// bucket lost between its log tail and the parity group's watermark.
    /// All `k` parity buckets ship the same column stream, so entries are
    /// applied exactly once by sequence (`seq == delta_seq` applies,
    /// anything older is a duplicate from another parity bucket).
    fn handle_suffix(
        &mut self,
        env: &mut Env<'_, Msg>,
        col: usize,
        entries: Vec<DeltaEntry>,
        complete: bool,
    ) {
        if col != self.col() || !self.catching_up() {
            return; // stale suffix addressed to a previous tenant
        }
        let cell_len = self.shared.cfg.cell_len();
        let mut applied = 0u64;
        let mut bytes = 0u64;
        for entry in entries {
            if entry.seq != self.delta_seq {
                continue; // duplicate (another parity's copy) or stale
            }
            bytes += entry.delta_cell.len() as u64;
            let entry_ok = match entry.key_op {
                KeyOp::Add(key) => {
                    // The Δ of an Add is the full cell (old was zero).
                    match decode_cell(&entry.delta_cell) {
                        None => false,
                        Some(payload) => {
                            self.by_key.insert(key, entry.rank);
                            self.records.insert(entry.rank, Record { key, payload });
                            self.next_rank = self.next_rank.max(entry.rank.saturating_add(1));
                            self.delta_seq = entry.seq + 1;
                            self.log_set(env, entry.rank, key);
                            true
                        }
                    }
                }
                KeyOp::Remove(key) => {
                    self.records.remove(&entry.rank);
                    self.by_key.remove(&key);
                    self.delta_seq = entry.seq + 1;
                    self.log_del(env, entry.rank, key);
                    true
                }
                KeyOp::Keep => match self.records.get_mut(&entry.rank) {
                    None => false,
                    Some(rec) => {
                        let old_cell = encode_cell(&rec.payload, cell_len);
                        let new_cell = cell_delta(&old_cell, &entry.delta_cell);
                        match decode_cell(&new_cell) {
                            None => false,
                            Some(payload) => {
                                let key = rec.key;
                                rec.payload = payload;
                                self.delta_seq = entry.seq + 1;
                                self.log_set(env, entry.rank, key);
                                true
                            }
                        }
                    }
                },
            };
            if !entry_ok {
                // The entry at exactly the resume point cannot be applied
                // (undecodable cell, or a Keep for a record this replica
                // never had): the certified watermark is unreachable, and
                // resuming below it would re-emit Δ-sequences the parity
                // group already consumed — permanent divergence. Give the
                // bucket up to the full RS rebuild instead.
                self.abort_catchup(env);
                return;
            }
            applied += 1;
        }
        if applied > 0 {
            env.obs().add("restart_suffix_entries", applied);
            env.obs().add("restart_suffix_bytes", bytes);
            env.trace(ObsEvent::RestartSuffix {
                bucket: self.bucket,
                entries: applied,
                bytes,
            });
        }
        // Count the reply regardless of content: an up-to-date bucket gets
        // k empty-but-complete suffixes. Incomplete replies still count —
        // the coordinator Retires us instead of acking in that case.
        let _ = complete;
        self.suffixes_seen += 1;
        self.try_resume(env);
    }

    /// Whether the Δ-suffix catch-up is running: its row is open.
    fn catching_up(&self) -> bool {
        self.exchanges.is_open(Row::Catchup as u64)
    }

    /// Re-deliver every held message.
    fn replay_held(&mut self, env: &mut Env<'_, Msg>) {
        for (f, m) in std::mem::take(&mut self.held) {
            self.on_message(env, f, m);
        }
    }

    /// Give up on the Δ-suffix catch-up: the local replica cannot reach the
    /// certified watermark (inapplicable suffix entry) or the handshake
    /// wedged past the watchdog. Drop everything held, poison the store so
    /// no later boot replays this diverged state, and ask the coordinator
    /// to demote this node into the full RS rebuild.
    fn abort_catchup(&mut self, env: &mut Env<'_, Msg>) {
        self.catchup_failed = true;
        self.held.clear();
        self.exchanges.settle(env, Row::Catchup as u64);
        self.reset_store();
        env.obs().incr("restart_aborts");
        let coord = self.shared.registry.borrow().coordinator();
        env.send(
            coord,
            Msg::RestartAbort {
                bucket: self.bucket,
            },
        );
    }

    /// Leave catch-up mode once the coordinator acked ownership and every
    /// parity bucket answered; replay everything held meanwhile.
    fn try_resume(&mut self, env: &mut Env<'_, Msg>) {
        if !self.catching_up() || !self.got_ack {
            return;
        }
        let k = self.shared.registry.borrow().group_k(self.group());
        if self.suffixes_seen < k {
            return;
        }
        self.exchanges.settle(env, Row::Catchup as u64);
        // The whole group stands at delta_seq now: nothing is in flight.
        self.unacked.clear();
        self.parity_acked.clear();
        self.ensure_acked_slots(k);
        for slot in self.parity_acked.iter_mut() {
            *slot = self.delta_seq;
        }
        // Suffix entries may have re-filled ranks the snapshot had free.
        self.free_ranks.clear();
        for r in 0..self.next_rank {
            if !self.records.contains_key(&r) {
                self.free_ranks.push(Reverse(r));
            }
        }
        self.snapshot_obs(env);
        self.replay_held(env);
    }

    /// The insert counter (exposed for tests and recovery assertions).
    pub fn next_rank(&self) -> Rank {
        self.next_rank
    }

    /// The shared handle (used by the node dispatcher for retirement).
    pub(crate) fn shared_handle(&self) -> SharedHandle {
        self.shared.clone()
    }
}

impl Owner for DataBucket {
    type Kind = Row;

    fn exchanges(&mut self) -> (&mut Exchanges<Row>, &Config) {
        (&mut self.exchanges, &self.shared.cfg)
    }

    /// A Δ-window round re-sends each parity column the Δs it has not
    /// acked, as one `ParityBatch`; the watchdogs re-send nothing.
    fn resend(
        &mut self,
        env: &Env<'_, Msg>,
        _: u64,
        _: u32,
        row: &mut Row,
    ) -> Vec<(NodeId, Msg)> {
        if !matches!(row, Row::Deltas) {
            return Vec::new();
        }
        let (group, ack_to) = (self.group(), Some(env.me()));
        let pending = |q: usize| -> Vec<DeltaEntry> {
            let acked = self.parity_acked.get(q).copied().unwrap_or(0);
            self.unacked.range(acked..).map(|(_, e)| e.clone()).collect()
        };
        let batch = |entries| Msg::ParityBatch {
            group,
            entries,
            ack_to,
        };
        let nodes = self.parity_nodes().into_iter().enumerate();
        nodes
            .map(|(q, pn)| (pn, pending(q)))
            .filter(|(_, entries)| !entries.is_empty())
            .map(|(pn, entries)| (pn, batch(entries)))
            .collect()
    }

    fn exhausted(&mut self, env: &mut Env<'_, Msg>, _: u64, row: Row) {
        match row {
            // No progress for too long: a dead parity bucket is the
            // recovery machinery's problem. An ack or a fresh Δ re-opens
            // the window.
            Row::Deltas => {}
            // The coordinator never said `ResumeWrites` (lost frame, or it
            // died mid-recovery): serve writes again rather than wedge.
            Row::Freeze => {
                env.obs().incr("recovery_freeze_expired");
                self.replay_held(env);
            }
            // The Δ-suffix handshake wedged: a suffix or the ack never
            // arrived, and this bucket has been deferring all traffic
            // while still answering probes — invisible to everyone. Give
            // up and route through the full RS rebuild.
            Row::Catchup => self.abort_catchup(env),
        }
    }
}
