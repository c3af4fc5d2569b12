//! The parity-bucket server: Reed–Solomon parity records, Δ-commits, and
//! shard transfer for recovery.

use std::collections::{BTreeMap, HashMap, VecDeque};

use lhrs_gf::Gf8;
use lhrs_rs::{RsCode, RsError};
use lhrs_sim::{Env, NodeId};

use crate::msg::{DeltaEntry, KeyOp, Msg, ShardContent};
use crate::record::cell_is_zero;
use crate::registry::SharedHandle;
use crate::{Key, Rank};

/// Per-column Δ-commit history each parity bucket of a durable file
/// retains to serve Δ-suffix catch-up to restarting data buckets. A
/// restart whose gap exceeds it falls back to a full RS rebuild.
pub const DELTA_HISTORY_CAP: usize = 4096;

/// One parity record: the member keys of the record group (by column) and
/// the accumulated parity cell for this bucket's parity column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityRecord {
    /// Member keys by column; `None` = no member in that bucket.
    pub keys: Vec<Option<Key>>,
    /// The parity coding cell `Σ_c Γ[c][q] · cell_c`.
    pub cell: Vec<u8>,
}

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
    records: BTreeMap<Rank, ParityRecord>,
    /// Per data column: Δ-stream admission state.
    channels: Vec<ColChannel>,
    /// Key → rank index — the "secondary index internal to each parity
    /// bucket" of §4.1, turning degraded-mode record location from a
    /// bucket scan into a hash probe. Key size is negligible next to the
    /// record size, so the overhead is inconsequential (as the paper
    /// argues).
    key_index: HashMap<Key, Rank>,
    /// Per data column: recently applied Δs (bounded by
    /// [`DELTA_HISTORY_CAP`]), kept to serve Δ-suffix catch-up to restarting
    /// data buckets. Contiguous and, unless empty, ending exactly at
    /// `channels[col].next_seq`; kept only on a durable node.
    history: Vec<VecDeque<DeltaEntry>>,
}

impl ParityBucket {
    /// Create an empty parity bucket. Fails when GF(2^8) has no parity
    /// column `index` for groups of `m` (an `index`/`k` off the wire that
    /// no validated `Config` produces).
    pub fn new(shared: SharedHandle, group: u64, index: usize, k: usize) -> Result<Self, RsError> {
        let m = shared.cfg.group_size;
        let code = RsCode::new(m, k.max(index.saturating_add(1)))?;
        Ok(ParityBucket {
            shared,
            group,
            index,
            k,
            code,
            records: BTreeMap::new(),
            channels: vec![ColChannel::default(); m],
            key_index: HashMap::new(),
            history: vec![VecDeque::new(); m],
        })
    }

    /// Restore from recovered content. `col_seqs` resumes each column's
    /// Δ stream where the snapshot left it (a retransmitted Δ the snapshot
    /// already contains is then recognised as a duplicate).
    pub fn from_content(
        shared: SharedHandle,
        group: u64,
        index: usize,
        k: usize,
        records: Vec<(Rank, Vec<Option<Key>>, Vec<u8>)>,
        col_seqs: Vec<u64>,
    ) -> Result<Self, RsError> {
        let mut p = ParityBucket::new(shared, group, index, k)?;
        for (chan, seq) in p.channels.iter_mut().zip(col_seqs) {
            chan.next_seq = seq;
        }
        for (rank, keys, cell) in records {
            for key in keys.iter().flatten() {
                p.key_index.insert(*key, rank);
            }
            p.records.insert(rank, ParityRecord { keys, cell });
        }
        Ok(p)
    }

    /// Number of parity records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the bucket holds no parity records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over `(rank, record)`.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, &ParityRecord)> {
        self.records.iter().map(|(r, rec)| (*r, rec))
    }

    /// Parity payload bytes held (cells only).
    pub fn parity_bytes(&self) -> usize {
        self.records.values().map(|r| r.cell.len()).sum()
    }

    /// The shared handle (used by the node dispatcher for retirement).
    pub(crate) fn shared_handle(&self) -> SharedHandle {
        self.shared.clone()
    }

    /// This bucket's full state as shipped in recovery transfers.
    fn content(&self) -> ShardContent {
        ShardContent::Parity {
            records: self
                .records
                .iter()
                .map(|(r, rec)| (*r, rec.keys.clone(), rec.cell.clone()))
                .collect(),
            col_seqs: self.channels.iter().map(|c| c.next_seq).collect(),
        }
    }

    /// Remember and apply one admitted Δ. The history's only reader is
    /// [`Msg::SuffixPull`], which only a WAL-recovered data bucket causes,
    /// and only a node with a store factory installed hosts durable data
    /// buckets: without one the file never pulls a suffix (or answers one
    /// `complete: false`, and the coordinator falls back to the full
    /// rebuild), so the bucket retains nothing. The parity column itself
    /// keeps no store — a lost column is re-encoded from its group, never
    /// replayed.
    fn commit(&mut self, ready: DeltaEntry) {
        if self.shared.has_store_factory() {
            self.remember(ready.clone());
        }
        self.apply(ready);
    }

    /// Remember an applied Δ in the bounded per-column history — the window
    /// this bucket can serve as a Δ-suffix to a restarting data bucket.
    /// Applies happen strictly in column order, so each deque is contiguous
    /// and ends exactly at `channels[col].next_seq`.
    fn remember(&mut self, entry: DeltaEntry) {
        let Some(hist) = self.history.get_mut(entry.col) else {
            return;
        };
        hist.push_back(entry);
        while hist.len() > DELTA_HISTORY_CAP {
            hist.pop_front();
        }
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
    /// and counted.
    fn on_deltas(
        &mut self,
        env: &mut Env<'_, Msg>,
        from: NodeId,
        entries: impl IntoIterator<Item = DeltaEntry>,
        ack_to: Option<NodeId>,
    ) {
        let mut cols = std::collections::BTreeSet::new();
        let (mut applied, mut dropped) = (0u64, 0u64);
        for entry in entries {
            let col = entry.col;
            let admitted = if self.sender_owns_column(from, col) {
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
                self.commit(ready);
                applied += 1;
            }
        }
        env.obs().add("deltas_applied", applied);
        if dropped > 0 {
            env.obs().add("deltas_dropped", dropped);
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
                ack_to,
            } => {
                debug_assert_eq!(group, self.group);
                self.on_deltas(env, from, [entry], ack_to);
            }
            Msg::ParityBatch {
                group,
                entries,
                ack_to,
            } => {
                debug_assert_eq!(group, self.group);
                self.on_deltas(env, from, entries, ack_to);
            }
            Msg::FindRecord { key, token } => {
                // O(1) via the internal key index (§4.1); the index and the
                // key lists are maintained together, which the debug
                // assertion cross-checks.
                let found = self.key_index.get(&key).and_then(|rank| {
                    let rec = self.records.get(rank)?;
                    debug_assert!(rec.keys.contains(&Some(key)), "index out of sync");
                    Some((*rank, rec.keys.clone()))
                });
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
                let cell_len = self.shared.cfg.cell_len();
                let cell = self
                    .records
                    .get(&rank)
                    .map(|rec| rec.cell.clone())
                    .unwrap_or_else(|| vec![0u8; cell_len]);
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
                let coord = self.shared.registry.borrow().coordinator;
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
    /// `cell ^= Γ[col][index] · Δ`, plus the key-list effect.
    fn apply(&mut self, entry: DeltaEntry) {
        let m = self.shared.cfg.group_size;
        let cell_len = self.shared.cfg.cell_len();
        let rec = self
            .records
            .entry(entry.rank)
            .or_insert_with(|| ParityRecord {
                keys: vec![None; m],
                cell: vec![0u8; cell_len],
            });
        // `admit` releases only columns below m, the length of `keys`.
        if let Some(slot) = rec.keys.get_mut(entry.col) {
            match entry.key_op {
                KeyOp::Add(key) => {
                    debug_assert!(slot.is_none(), "column already occupied");
                    *slot = Some(key);
                    self.key_index.insert(key, entry.rank);
                }
                KeyOp::Remove(key) => {
                    debug_assert_eq!(*slot, Some(key), "removing wrong member");
                    *slot = None;
                    self.key_index.remove(&key);
                }
                KeyOp::Keep => {
                    debug_assert!(slot.is_some(), "update of absent member");
                }
            }
            self.code
                .apply_delta(entry.col, self.index, &entry.delta_cell, &mut rec.cell);
        }
        // Garbage-collect empty record groups.
        if rec.keys.iter().all(Option::is_none) {
            debug_assert!(cell_is_zero(&rec.cell), "ghost parity after last removal");
            self.records.remove(&entry.rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::registry::Shared;
    use crate::storage::MemHub;
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

    /// Deliver Δs `seqs` of column 0, then pull the suffix from seq 1:
    /// what the puller is sent.
    fn suffix_after_deltas(p: &mut ParityBucket, seqs: std::ops::Range<u64>) -> (Vec<u64>, bool) {
        let cl = p.shared.cfg.cell_len();
        let (mut next_timer, mut effects) = (0, Vec::new());
        let obs = lhrs_obs::Metrics::disabled();
        let mut env = Env::external(NodeId(9), 0, &mut next_timer, &mut effects, &obs);
        for seq in seqs {
            let msg = Msg::ParityDelta {
                group: 0,
                entry: delta(seq, 0, 10 + seq, cl),
                ack_to: None,
            };
            p.on_message(&mut env, NodeId(1), msg);
        }
        let pull = Msg::SuffixPull {
            group: 0,
            col: 0,
            from_seq: 1,
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

    #[test]
    fn delta_history_is_kept_only_where_a_suffix_can_be_pulled() {
        // No store factory: nothing is retained, and the pull is declined —
        // the coordinator then rebuilds the bucket in full.
        let mut plain = bucket();
        assert_eq!(suffix_after_deltas(&mut plain, 0..3), (Vec::new(), false));
        assert!(plain.history.iter().all(|h| h.is_empty()));
        assert_eq!(plain.channels[0].next_seq, 3, "the Δs were still applied");

        // A durable node (store factory installed): the suffix is served.
        let mut durable = bucket();
        durable.shared.set_store_factory(MemHub::new().factory());
        assert_eq!(suffix_after_deltas(&mut durable, 0..3), (vec![1, 2], true));
    }

    /// A retained window that ends short of `next_seq` must not be served as
    /// the whole suffix — the puller would resume its Δ stream too low.
    #[test]
    fn a_window_short_of_next_seq_is_never_served_complete() {
        let mut p = bucket();
        assert_eq!(suffix_after_deltas(&mut p, 0..6), (Vec::new(), false));
        assert_eq!(p.channels[0].next_seq, 6, "the Δs were applied");

        // Were a stale window to survive anyway, its end gives it away.
        p.history[0].extend((0..3).map(|seq| delta(seq, 0, 10 + seq, 1)));
        assert_eq!(suffix_after_deltas(&mut p, 6..6), (Vec::new(), false));
    }
}
