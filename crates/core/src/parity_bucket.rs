//! The parity-bucket server: Reed–Solomon parity records, Δ-commits, and
//! shard transfer for recovery.

use std::collections::{BTreeMap, VecDeque};

use lhrs_gf::Gf8;
use lhrs_rs::{RsCode, RsError};
use lhrs_sim::{Env, NodeId};

use crate::msg::{DeltaEntry, KeyOp, Msg, ShardContent};
use crate::registry::SharedHandle;
use crate::slab::ParitySlab;
use crate::{Key, Rank};

/// Backstop on the per-column Δ history a parity bucket keeps to serve
/// Δ-suffix catch-up to restarting data buckets. The history holds only
/// the Δs at or above the column's durable watermark, the sender's flush
/// lag (DESIGN §10.3); the cap bounds it when that watermark stands still
/// (a store that only snapshots at structural events and whose appends
/// never count as durable). A restart whose gap exceeds it falls back to
/// a full RS rebuild.
pub const DELTA_HISTORY_CAP: usize = 4096;

/// One data column's Δ-stream state: the next sequence number this bucket
/// will apply, plus a buffer holding Δs the network delivered early.
///
/// Δs within a column do not commute (`Add` then `Remove` of the same rank
/// reversed is nonsense, and a double-applied XOR cancels itself), so each
/// column's stream is applied **exactly once, in order**: duplicates of
/// already-applied Δs are dropped, out-of-order arrivals wait for the gap
/// to fill (via the emitter's retransmission in `ack_parity` mode).
#[derive(Debug, Default, Clone)]
struct ColChannel {
    next_seq: u64,
    buffered: BTreeMap<u64, DeltaEntry>,
}

/// A parity bucket: column `index` of the `k` parity buckets of one bucket
/// group.
pub struct ParityBucket {
    shared: SharedHandle,
    /// The bucket group this parity bucket protects.
    pub group: u64,
    /// Parity column index `q ∈ 0..k`.
    pub index: usize,
    /// The group's availability level when this bucket was provisioned.
    /// Only `coeff(col, index)` is consulted, and generator columns are
    /// prefix-stable in `k`, so a later `k` increase does not invalidate it.
    pub k: usize,
    code: RsCode<Gf8>,
    /// One parity record per rank: the member keys of the record group
    /// (by column) and the parity cell `Σ_c Γ[c][q] · cell_c` for this
    /// bucket's column. Its key index is the "secondary index internal
    /// to each parity bucket" of §4.1, turning degraded-mode
    /// record location from a bucket scan into a hash probe. Key size is
    /// negligible next to the record size, so the overhead is
    /// inconsequential (as the paper argues).
    slab: ParitySlab,
    /// Per data column: Δ-stream admission state.
    channels: Vec<ColChannel>,
    /// Per data column: the applied Δs a restart of the column's store can
    /// still ask for — those at or above the durable watermark its Δs
    /// carry, none when they carry `None` — kept to serve Δ-suffix
    /// catch-up (bounded by [`DELTA_HISTORY_CAP`]). Contiguous and, unless
    /// empty, ending exactly at `channels[col].next_seq`.
    history: Vec<VecDeque<DeltaEntry>>,
}

impl ParityBucket {
    /// Create an empty parity bucket. Fails when GF(2^8) has no parity
    /// column `index` for groups of `m` (an `index`/`k` off the wire that
    /// no validated `Config` produces).
    pub fn new(shared: SharedHandle, group: u64, index: usize, k: usize) -> Result<Self, RsError> {
        let m = shared.cfg.group_size;
        let code = RsCode::new(m, k.max(index.saturating_add(1)))?;
        let slab = ParitySlab::new(shared.cfg.cell_len(), m);
        Ok(ParityBucket {
            shared,
            group,
            index,
            k,
            code,
            slab,
            channels: vec![ColChannel::default(); m],
            history: vec![VecDeque::new(); m],
        })
    }

    /// Restore from recovered content. `col_seqs` resumes each column's
    /// Δ stream where the snapshot left it (a retransmitted Δ the snapshot
    /// already contains is then recognised as a duplicate). `None` when
    /// GF(2^8) has no column `index` (see [`Self::new`]), or for content
    /// no bucket can hold: a rank past the rank bound (module `slab`), a
    /// repeated rank, or keys or a cell of the wrong length.
    pub fn from_content(
        shared: SharedHandle,
        group: u64,
        index: usize,
        k: usize,
        records: Vec<(Rank, Vec<Option<Key>>, Vec<u8>)>,
        col_seqs: Vec<u64>,
    ) -> Option<Self> {
        let mut p = ParityBucket::new(shared, group, index, k).ok()?;
        for (chan, seq) in p.channels.iter_mut().zip(col_seqs) {
            chan.next_seq = seq;
        }
        let m = p.shared.cfg.group_size;
        p.slab = ParitySlab::restore(p.shared.cfg.cell_len(), m, records)?;
        Some(p)
    }

    /// Number of parity records held.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether the bucket holds no parity records.
    pub fn is_empty(&self) -> bool {
        self.slab.len() == 0
    }

    /// Iterate over `(rank, member keys by column, parity cell)` in rank
    /// order; a `None` key is a column with no member at that rank.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, Vec<Option<Key>>, &[u8])> {
        self.slab.iter()
    }

    /// Parity payload bytes held (cells only).
    pub fn parity_bytes(&self) -> usize {
        self.slab.parity_bytes()
    }

    /// Bytes the parity store takes, from its lengths: a cell and `m` key
    /// slots (a key and a flag) per rank, empty ranks inside the slab
    /// included (not the key index).
    pub fn store_bytes(&self) -> usize {
        self.slab.store_bytes()
    }

    /// The shared handle (used by the node dispatcher for retirement).
    pub(crate) fn shared_handle(&self) -> SharedHandle {
        self.shared.clone()
    }

    /// This bucket's full state as shipped in recovery transfers.
    fn content(&self) -> ShardContent {
        ShardContent::Parity {
            records: (self.slab.iter())
                .map(|(rank, keys, cell)| (rank, keys, cell.to_vec()))
                .collect(),
            col_seqs: self.channels.iter().map(|c| c.next_seq).collect(),
        }
    }

    /// Remember an applied Δ in the bounded per-column history — the window
    /// this bucket can serve as a Δ-suffix to a restarting data bucket.
    /// Applies happen strictly in column order, so each deque is contiguous
    /// and ends exactly at `channels[col].next_seq`. Returns how many Δs
    /// the backstop dropped.
    fn remember(&mut self, entry: DeltaEntry) -> u64 {
        let Some(hist) = self.history.get_mut(entry.col) else {
            return 0;
        };
        hist.push_back(entry);
        let over = hist.len().saturating_sub(DELTA_HISTORY_CAP);
        hist.drain(..over);
        over as u64
    }

    /// Forget the Δs of column `col` no restart can ask for any more:
    /// those below the sender's `durable` watermark, or every one when the
    /// sender has no store. Returns how many were dropped.
    fn trim(&mut self, col: usize, durable: Option<u64>) -> u64 {
        let Some(hist) = self.history.get_mut(col) else {
            return 0;
        };
        let keep_from = match durable {
            None => hist.len(),
            Some(w) => hist.partition_point(|e| e.seq < w),
        };
        hist.drain(..keep_from);
        keep_from as u64
    }

    /// Drill hook: overwrite every retained history entry of column `col`
    /// with an undecodable delta cell (all 0xFF — the cell's length prefix
    /// then exceeds the cell), modelling a parity host whose suffix window
    /// rotted. The applied parity itself is untouched; only the catch-up
    /// service is poisoned, which is what the abort path must survive.
    pub(crate) fn corrupt_history(&mut self, col: usize) {
        if let Some(hist) = self.history.get_mut(col) {
            for e in hist.iter_mut() {
                for b in e.delta_cell.iter_mut() {
                    *b = 0xFF;
                }
            }
        }
    }

    /// Admit and apply one sender's Δs (a `ParityDelta` is a batch of
    /// one), then ack each column that moved. A Δ from a fenced sender or
    /// for a column outside the group (`col` is off the wire) is dropped
    /// and counted, and its watermark moves nothing. A Δ no valid stream
    /// sends, whose rank lies past the slab's end (`rank` is off the wire;
    /// see [`crate::slab`]), is dropped and counted when its turn comes,
    /// before it can size an allocation.
    ///
    /// The history keeps an applied Δ only while a restart of its column's
    /// store can still ask for it: its only reader is [`Msg::SuffixPull`],
    /// which pulls from where a WAL-recovered data bucket's store left it,
    /// never below the `durable` watermark the sender's Δs carry, and
    /// never at all when they carry `None`. The parity column itself keeps
    /// no store — a lost column is re-encoded from its group, never
    /// replayed.
    fn on_deltas(
        &mut self,
        env: &mut Env<'_, Msg>,
        from: NodeId,
        entries: impl IntoIterator<Item = DeltaEntry>,
        durable: Option<u64>,
        ack_to: Option<NodeId>,
    ) {
        let mut cols = std::collections::BTreeSet::new();
        let (mut applied, mut dropped) = (0u64, 0u64);
        let (mut remembered, mut forgotten) = (0u64, 0u64);
        let mut removed_keys = false;
        for entry in entries {
            let col = entry.col;
            let admitted = if self.sender_owns_column(from, col) {
                forgotten += self.trim(col, durable);
                self.admit(entry)
            } else {
                None
            };
            let Some(ready) = admitted else {
                dropped += 1;
                continue;
            };
            cols.insert(col);
            for ready in ready {
                if self.apply(&ready) {
                    removed_keys |= matches!(ready.key_op, KeyOp::Remove(_));
                    applied += 1;
                } else {
                    dropped += 1;
                }
                if durable.is_some_and(|w| ready.seq >= w) {
                    forgotten += self.remember(ready);
                    remembered += 1;
                }
            }
        }
        if removed_keys {
            self.slab.shrink();
        }
        env.obs().add("deltas_applied", applied);
        if dropped > 0 {
            env.obs().add("deltas_dropped", dropped);
        }
        if remembered > 0 {
            env.obs().add("deltas_remembered", remembered);
        }
        if forgotten > 0 {
            env.obs().add("deltas_forgotten", forgotten);
        }
        if let Some(ack) = ack_to {
            for col in cols {
                if let Some(chan) = self.channels.get(col) {
                    let upto = chan.next_seq;
                    env.send(ack, Msg::ParityAck { col, upto });
                }
            }
        }
    }

    /// Main message handler.
    pub fn on_message(&mut self, env: &mut Env<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::ParityDelta {
                group,
                entry,
                durable,
                ack_to,
            } => {
                debug_assert_eq!(group, self.group);
                self.on_deltas(env, from, [entry], durable, ack_to);
            }
            Msg::ParityBatch {
                group,
                entries,
                durable,
                ack_to,
            } => {
                debug_assert_eq!(group, self.group);
                self.on_deltas(env, from, entries, durable, ack_to);
            }
            Msg::FindRecord { key, token } => {
                // O(1) via the internal key index (§4.1), whose entries
                // point at the key slots themselves.
                let found = self.slab.find(key);
                env.send(from, Msg::FindRecordReply { token, found });
            }
            Msg::TransferShard { token } => {
                let m = self.shared.cfg.group_size;
                env.send(
                    from,
                    Msg::ShardData {
                        token,
                        shard: m + self.index,
                        content: self.content(),
                    },
                );
            }
            Msg::SuffixPull {
                group,
                col,
                from_seq,
                target,
            } => {
                debug_assert_eq!(group, self.group);
                let next = self.channels.get(col).map(|c| c.next_seq).unwrap_or(0);
                // The history deque for a column is contiguous, so the
                // suffix [from_seq, next) is servable iff its filtered view
                // starts exactly at `from_seq` and ends at `next`. (It ends
                // there whenever it is non-empty, but a short suffix acked
                // as complete is silent loss of acked updates, so the end is
                // checked, not assumed.)
                let entries: Vec<DeltaEntry> = self
                    .history
                    .get(col)
                    .map(|h| h.iter().filter(|e| e.seq >= from_seq).cloned().collect())
                    .unwrap_or_default();
                let complete = if from_seq >= next {
                    from_seq == next // nothing missed (or the puller is ahead: not ours to cover)
                } else {
                    entries.first().map(|e| e.seq) == Some(from_seq)
                        && entries.last().and_then(|e| e.seq.checked_add(1)) == Some(next)
                };
                let entries = if complete { entries } else { Vec::new() };
                let count = entries.len() as u64;
                let bytes: u64 = entries.iter().map(|e| e.delta_cell.len() as u64).sum();
                let m = self.shared.cfg.group_size as u64;
                env.send(
                    target,
                    Msg::DeltaSuffix {
                        col,
                        from_seq,
                        entries,
                        complete,
                    },
                );
                env.send(
                    from,
                    Msg::SuffixInfo {
                        bucket: self.group * m + col as u64,
                        col,
                        next_seq: next,
                        covered: complete,
                        count,
                        bytes,
                    },
                );
            }
            Msg::ReadCell { rank, token } => {
                let cell = (self.slab.cell_at(rank).map(<[u8]>::to_vec))
                    .unwrap_or_else(|| vec![0u8; self.shared.cfg.cell_len()]);
                let m = self.shared.cfg.group_size;
                env.send(
                    from,
                    Msg::CellData {
                        token,
                        shard: m + self.index,
                        cell,
                    },
                );
            }
            Msg::Probe { token } => {
                env.send(
                    from,
                    Msg::ProbeAck {
                        token,
                        bucket: None,
                    },
                );
            }
            Msg::SelfReport => {
                let coord = self.shared.registry.borrow().coordinator();
                env.send(
                    coord,
                    Msg::CheckOwnership {
                        bucket: None,
                        parity: Some((self.group, self.index)),
                    },
                );
            }
            Msg::OwnershipAck => { /* still the owner: resume serving */ }
            Msg::InitParity { group, index, .. } if group == self.group && index == self.index => {
                // Duplicated provisioning order (coordinator retransmission
                // racing the original): already initialised, nothing to do.
            }
            Msg::Install {
                group,
                index,
                token,
                ..
            } if group == self.group && index == Some(self.index) => {
                // Duplicated install: the first copy built this bucket (via
                // the Blank-node path); the coordinator is retransmitting
                // because our InstallAck was lost. Re-ack, don't rebuild.
                env.send(from, Msg::InstallAck { token });
            }
            other => {
                debug_assert!(
                    false,
                    "parity bucket ({}, {}) got {:?}",
                    self.group, self.index, other
                );
            }
        }
    }

    /// Fencing check: a Δ for column `col` is honoured only when it comes
    /// from the node the registry currently maps to that bucket. A node
    /// displaced by group recovery (failed or merely partitioned) keeps
    /// retransmitting until its Retire lands; accepting its stale stream
    /// would corrupt the rebuilt column's Δ channel. Columns beyond the
    /// current file size are accepted from anyone: during a merge the
    /// disappearing bucket's final retraction Δs can still be in flight
    /// when the registry shrinks.
    fn sender_owns_column(&self, from: NodeId, col: usize) -> bool {
        let m = self.shared.cfg.group_size as u64;
        let bucket = self.group * m + col as u64;
        let reg = self.shared.registry.borrow();
        if bucket >= reg.data_count() as u64 {
            return true;
        }
        reg.data_node(bucket) == from
    }

    /// Admission control for one Δ: returns the entries now ready to apply,
    /// in stream order. A duplicate (seq already applied) yields nothing; a
    /// future Δ is buffered until the gap fills; the expected Δ is returned
    /// together with any buffered successors it unblocks. `None` for a
    /// column outside the group.
    fn admit(&mut self, entry: DeltaEntry) -> Option<Vec<DeltaEntry>> {
        let chan = self.channels.get_mut(entry.col)?;
        Some(match entry.seq.cmp(&chan.next_seq) {
            std::cmp::Ordering::Less => Vec::new(), // duplicate: drop
            std::cmp::Ordering::Greater => {
                chan.buffered.insert(entry.seq, entry);
                Vec::new()
            }
            std::cmp::Ordering::Equal => {
                let mut ready = vec![entry];
                chan.next_seq += 1;
                while let Some(e) = chan.buffered.remove(&chan.next_seq) {
                    chan.next_seq += 1;
                    ready.push(e);
                }
                ready
            }
        })
    }

    /// Fold one Δ into the parity record at `entry.rank`:
    /// `cell ^= Γ[col][index] · Δ`, plus the key-list effect. `false` for
    /// a Δ no valid stream sends: one that lands past the slab's end (see
    /// `ParitySlab::apply`).
    fn apply(&mut self, entry: &DeltaEntry) -> bool {
        let (code, col, index) = (&self.code, entry.col, self.index);
        let fold = |cell: &mut [u8]| code.apply_delta(col, index, &entry.delta_cell, cell);
        self.slab.apply(entry.rank, col, entry.key_op, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::registry::Shared;
    use lhrs_sim::Effect;

    fn bucket() -> ParityBucket {
        let cfg = Config {
            group_size: 4,
            record_len: 8,
            ..Config::default()
        };
        ParityBucket::new(Shared::new(cfg), 0, 0, 1).unwrap()
    }

    fn delta(seq: u64, col: usize, key: u64, cell_len: usize) -> DeltaEntry {
        DeltaEntry {
            seq,
            rank: seq,
            col,
            key_op: KeyOp::Add(key),
            delta_cell: vec![1u8; cell_len],
        }
    }

    #[test]
    fn admit_is_exactly_once_in_order() {
        let mut p = bucket();
        let cl = p.shared.cfg.cell_len();

        // In-order Δ applies immediately.
        let ready = p.admit(delta(0, 0, 10, cl)).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(p.channels[0].next_seq, 1);

        // Duplicate of an already-applied Δ is dropped.
        assert!(p.admit(delta(0, 0, 10, cl)).unwrap().is_empty());
        assert_eq!(p.channels[0].next_seq, 1);

        // A future Δ is buffered, not applied.
        assert!(p.admit(delta(3, 0, 13, cl)).unwrap().is_empty());
        assert!(p.admit(delta(2, 0, 12, cl)).unwrap().is_empty());
        assert_eq!(p.channels[0].next_seq, 1);

        // Filling the gap releases the whole contiguous run, in order.
        let ready = p.admit(delta(1, 0, 11, cl)).unwrap();
        let seqs: Vec<u64> = ready.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(p.channels[0].next_seq, 4);
        assert!(p.channels[0].buffered.is_empty());

        // A duplicate of a buffered-then-applied Δ is also dropped.
        assert!(p.admit(delta(2, 0, 12, cl)).unwrap().is_empty());
    }

    #[test]
    fn admit_channels_are_independent_per_column() {
        let mut p = bucket();
        let cl = p.shared.cfg.cell_len();
        assert_eq!(p.admit(delta(0, 0, 1, cl)).unwrap().len(), 1);
        // Column 1 starts at seq 0 regardless of column 0's progress.
        assert!(p.admit(delta(1, 1, 2, cl)).unwrap().is_empty());
        assert_eq!(p.admit(delta(0, 1, 3, cl)).unwrap().len(), 2);
        assert_eq!(p.channels[0].next_seq, 1);
        assert_eq!(p.channels[1].next_seq, 2);
    }

    #[test]
    fn from_content_resumes_streams() {
        let p0 = bucket();
        let shared = p0.shared.clone();
        let mut p =
            ParityBucket::from_content(shared, 0, 0, 1, Vec::new(), vec![5, 0, 2, 0]).unwrap();
        let cl = p.shared.cfg.cell_len();
        // Δs below the restored watermark are recognised as duplicates.
        assert!(p.admit(delta(4, 0, 9, cl)).unwrap().is_empty());
        assert_eq!(p.admit(delta(5, 0, 9, cl)).unwrap().len(), 1);
        assert_eq!(p.admit(delta(2, 2, 9, cl)).unwrap().len(), 1);
    }

    /// Deliver Δs `seqs` of column 0 from `from`, each carrying the
    /// watermark `durable`; returns the history counters they moved,
    /// `(deltas_remembered, deltas_forgotten)`.
    fn deliver(
        p: &mut ParityBucket,
        from: NodeId,
        seqs: std::ops::Range<u64>,
        durable: Option<u64>,
    ) -> (u64, u64) {
        let cl = p.shared.cfg.cell_len();
        let (mut next_timer, mut effects) = (0, Vec::new());
        let obs = lhrs_obs::Metrics::new(lhrs_obs::Clock::logical());
        let mut env = Env::external(NodeId(9), 0, &mut next_timer, &mut effects, &obs);
        for seq in seqs {
            let msg = Msg::ParityDelta {
                group: 0,
                entry: delta(seq, 0, 10 + seq, cl),
                durable,
                ack_to: None,
            };
            p.on_message(&mut env, from, msg);
        }
        (
            obs.counter("deltas_remembered"),
            obs.counter("deltas_forgotten"),
        )
    }

    /// Pull column 0's suffix from `from_seq`: what the puller is sent.
    fn pull(p: &mut ParityBucket, from_seq: u64) -> (Vec<u64>, bool) {
        let (mut next_timer, mut effects) = (0, Vec::new());
        let obs = lhrs_obs::Metrics::disabled();
        let mut env = Env::external(NodeId(9), 0, &mut next_timer, &mut effects, &obs);
        let pull = Msg::SuffixPull {
            group: 0,
            col: 0,
            from_seq,
            target: NodeId(1),
        };
        p.on_message(&mut env, NodeId(0), pull);
        effects
            .into_iter()
            .find_map(|effect| match effect {
                Effect::Send {
                    msg:
                        Msg::DeltaSuffix {
                            entries, complete, ..
                        },
                    ..
                } => Some((entries.iter().map(|e| e.seq).collect(), complete)),
                _ => None,
            })
            .expect("a SuffixPull is answered with a DeltaSuffix")
    }

    /// The sequence numbers column 0's history holds.
    fn kept(p: &ParityBucket) -> Vec<u64> {
        p.history[0].iter().map(|e| e.seq).collect()
    }

    #[test]
    fn a_durable_watermark_trims_the_history_below_it() {
        let mut p = bucket();
        assert_eq!(deliver(&mut p, NodeId(1), 0..6, Some(0)), (6, 0));
        assert_eq!(kept(&p), vec![0, 1, 2, 3, 4, 5]);

        // The sender's store made everything below 4 durable: a restart
        // resumes at 4 or later, so nothing below it is kept.
        assert_eq!(deliver(&mut p, NodeId(1), 6..8, Some(4)), (2, 4));
        assert_eq!(kept(&p), vec![4, 5, 6, 7]);

        // A pull from at or above the watermark is served whole ...
        assert_eq!(pull(&mut p, 4), (vec![4, 5, 6, 7], true));
        assert_eq!(pull(&mut p, 6), (vec![6, 7], true));
        assert_eq!(pull(&mut p, 8), (Vec::new(), true), "nothing missed");
        // ... and one from below the pruned point is declined.
        assert_eq!(pull(&mut p, 3), (Vec::new(), false));

        // A watermark ahead of the column: the Δs below it are applied
        // but never stored.
        assert_eq!(deliver(&mut p, NodeId(1), 8..10, Some(10)), (0, 4));
        assert!(kept(&p).is_empty());
        assert_eq!(p.channels[0].next_seq, 10, "the Δs were still applied");
        assert_eq!(pull(&mut p, 10), (Vec::new(), true));
    }

    #[test]
    fn a_sender_without_a_store_leaves_no_history() {
        // `durable: None`: nothing is kept, and the pull is declined — the
        // coordinator then rebuilds the bucket in full.
        let mut p = bucket();
        assert_eq!(deliver(&mut p, NodeId(1), 0..3, None), (0, 0));
        assert!(p.history.iter().all(|h| h.is_empty()));
        assert_eq!(p.channels[0].next_seq, 3, "the Δs were still applied");
        assert_eq!(pull(&mut p, 1), (Vec::new(), false));

        // A sender whose store is poisoned sends `None`: what was kept goes.
        assert_eq!(deliver(&mut p, NodeId(1), 3..5, Some(3)), (2, 0));
        assert_eq!(deliver(&mut p, NodeId(1), 5..6, None), (0, 2));
        assert!(kept(&p).is_empty());
    }

    #[test]
    fn a_fenced_senders_watermark_moves_nothing() {
        let mut p = bucket();
        // Bucket 0 (column 0 of group 0) lives on node 1.
        assert!(p.shared.registry.borrow_mut().push_data(0, NodeId(1)));
        deliver(&mut p, NodeId(1), 0..4, Some(0));
        assert_eq!(kept(&p), vec![0, 1, 2, 3]);

        // Node 7 lost the column: its Δs and its watermark are dropped.
        assert_eq!(deliver(&mut p, NodeId(7), 4..6, Some(5)), (0, 0));
        assert_eq!(deliver(&mut p, NodeId(7), 4..5, None), (0, 0));
        assert_eq!(kept(&p), vec![0, 1, 2, 3]);
        assert_eq!(p.channels[0].next_seq, 4);
        assert_eq!(pull(&mut p, 0), (vec![0, 1, 2, 3], true));
    }

    /// A Δ for a rank past the rank bound is dropped and counted before it
    /// can size the slab; its column's stream moves past it.
    #[test]
    fn a_delta_past_the_rank_bound_is_refused() {
        let mut p = bucket();
        let (mut next_timer, mut effects) = (0, Vec::new());
        let obs = lhrs_obs::Metrics::new(lhrs_obs::Clock::logical());
        let mut env = Env::external(NodeId(9), 0, &mut next_timer, &mut effects, &obs);
        let mut entry = delta(0, 0, 10, p.shared.cfg.cell_len());
        entry.rank = 1 << 40;
        let msg = Msg::ParityDelta {
            group: 0,
            entry,
            durable: None,
            ack_to: None,
        };
        p.on_message(&mut env, NodeId(1), msg);
        assert_eq!(obs.counter("deltas_dropped"), 1);
        assert_eq!(obs.counter("deltas_applied"), 0);
        assert_eq!(p.channels[0].next_seq, 1);
        assert_eq!((p.len(), p.store_bytes()), (0, 0));
    }

    /// A retained window that ends short of `next_seq` must not be served as
    /// the whole suffix — the puller would resume its Δ stream too low.
    #[test]
    fn a_window_short_of_next_seq_is_never_served_complete() {
        let mut p = bucket();
        deliver(&mut p, NodeId(1), 0..6, None);
        assert_eq!(p.channels[0].next_seq, 6, "the Δs were applied");

        // Were a stale window to survive anyway, its end gives it away.
        p.history[0].extend((0..3).map(|seq| delta(seq, 0, 10 + seq, 1)));
        assert_eq!(pull(&mut p, 1), (Vec::new(), false));
    }
}
