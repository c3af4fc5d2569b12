//! The durable-bucket seam: a [`BucketStore`] trait buckets log committed
//! operations to, plus the replay path that rebuilds a bucket from its
//! local store after a process crash.
//!
//! The paper's LH\*RS multicomputer is RAM-only: a killed bucket is gone
//! and costs a full k-out-of-m+k Reed–Solomon rebuild over the network.
//! The cheapest "repair symbol" of all, though, is the node's own disk
//! (the locality argument of the storage-codes literature). With a store
//! attached, a restarting bucket replays its snapshot + write-ahead log
//! locally and only fetches the short Δ-suffix it missed from its parity
//! group — the coordinator falls back to the full rebuild when the disk
//! is lost or the suffix has been truncated away.
//!
//! This module is deliberately I/O-free: the file-backed implementation
//! lives in the zero-dep `lhrs-wal` crate, and [`MemStore`] provides a
//! deterministic in-memory "disk" for the simulator drills.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use lhrs_sim::NodeId;

use crate::data_bucket::DataBucket;
use crate::msg::{DeltaEntry, ShardContent};
use crate::node::Node;
use crate::slab::DataSlab;
use crate::registry::SharedHandle;
use crate::wire::{self, wire_enum, Reader, Wire};
use crate::{Key, Rank};

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying medium failed (filesystem error, out of space, ...).
    Io(String),
    /// The stored bytes are not a valid snapshot/log (decode failure past
    /// the CRC layer, missing snapshot, wrong role). The store cannot seed
    /// a bucket; recovery must fall back to the RS rebuild.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(why) => write!(f, "store I/O error: {why}"),
            StoreError::Corrupt(why) => write!(f, "store corrupt: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What the replay found at the end of the log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TailState {
    /// The log ended exactly at a record boundary.
    #[default]
    Clean,
    /// The last record was cut short mid-write (torn write): treated as a
    /// clean EOF, the partial record is discarded.
    Torn {
        /// Bytes of the partial record dropped.
        bytes_dropped: u64,
    },
    /// A record failed its integrity check; the clean prefix before it was
    /// replayed, everything from the bad record on was discarded.
    Corrupt {
        /// What failed (CRC mismatch, oversized length claim, ...).
        context: String,
        /// Bytes discarded from the bad record to the end of the log.
        bytes_dropped: u64,
    },
}

/// Result of [`BucketStore::replay`]: the latest snapshot plus every op
/// logged after it, in append order.
#[derive(Debug, Default)]
pub struct Replay {
    /// The latest snapshot state, if one was ever written.
    pub snapshot: Option<Vec<u8>>,
    /// Ops appended after that snapshot, oldest first.
    pub ops: Vec<Vec<u8>>,
    /// What the end of the log looked like.
    pub tail: TailState,
}

/// A per-bucket durable store: append-only op log + latest-state snapshot.
///
/// Implementations must make `snapshot` atomic (write-tmp + rename in the
/// file-backed store) and must treat a torn log tail as clean EOF on
/// replay — a crash mid-append may never poison the prefix.
pub trait BucketStore {
    /// Append one encoded op to the log.
    fn append(&mut self, op: &[u8]) -> Result<(), StoreError>;
    /// Atomically replace the snapshot with `state` and truncate the log.
    /// The bytes move in, so a store may finish writing them in the
    /// background; until it has, what it holds must still replay to the
    /// same state, and a write that fails there fails the next `append`,
    /// `snapshot` or `sync`.
    fn snapshot(&mut self, state: Vec<u8>) -> Result<(), StoreError>;
    /// Read back the snapshot and the logged ops.
    fn replay(&mut self) -> Result<Replay, StoreError>;
    /// Erase everything (bucket retired or reassigned).
    fn reset(&mut self) -> Result<(), StoreError>;
    /// Ops appended since the last snapshot (drives the snapshot policy).
    fn appended_since_snapshot(&self) -> u64;
    /// Current log size in bytes (post-snapshot suffix only).
    fn wal_bytes(&self) -> u64;
    /// Start making buffered appends durable (fsync-policy hook; a no-op
    /// for memory-backed stores). A store may finish the flush in the
    /// background; a flush that fails there fails the next `append`,
    /// `snapshot` or `sync`.
    fn sync(&mut self) -> Result<(), StoreError>;
    /// The flushes completed since the last call, and the appends they
    /// made durable. Feeds the host's group-commit accounting;
    /// memory-backed stores report none.
    fn take_group_commits(&mut self) -> GroupCommits {
        GroupCommits::default()
    }
    /// How far a restart from this store is sure to get after an OS
    /// crash, in the store's own writes counted from when it was opened:
    /// the appends made durable (by a finished flush, or made moot by a
    /// landed snapshot) and the snapshots landed. A data bucket maps these
    /// to Δ-sequences: the durable watermark its Δs carry (DESIGN §10.3).
    fn durable(&self) -> Durable;
}

/// What [`BucketStore::durable`] reports, both counts starting at 0 when
/// the store is opened: every append up to the `appends`-th and every
/// snapshot up to the `snapshots`-th survives an OS crash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Durable {
    /// Appends durable.
    pub appends: u64,
    /// The last snapshot landed, numbered in call order.
    pub snapshots: u64,
}

/// What [`BucketStore::take_group_commits`] reports: `ops / fsyncs` is the
/// mean number of appends one flush covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommits {
    /// Flushes (fsyncs) completed.
    pub fsyncs: u64,
    /// Appends those flushes made durable.
    pub ops: u64,
}

/// The durable identity a store is keyed by: logical shard, not node —
/// the disk follows the bucket through restarts. Only data buckets have
/// one: a parity column is a function of its group's data columns, so a
/// lost one is re-encoded, never replayed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StoreId {
    /// Data bucket `bucket`.
    Data {
        /// The bucket number.
        bucket: u64,
    },
}

/// Builds (or declines to build) a store for a shard landing on a node.
/// Returning `None` models a node without a usable disk.
pub type StoreFactory = Rc<dyn Fn(NodeId, &StoreId) -> Option<Box<dyn BucketStore>>>;

// ----- op codec -----

/// One logged bucket operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Data bucket: a record was inserted or updated at `rank`.
    Set {
        /// The record's rank.
        rank: Rank,
        /// The record's key.
        key: Key,
        /// The committed payload.
        payload: Vec<u8>,
        /// The bucket's Δ-stream position *after* this commit.
        delta_seq: u64,
    },
    /// Data bucket: the record at `rank` was deleted.
    Del {
        /// The deleted record's rank.
        rank: Rank,
        /// Its key.
        key: Key,
        /// The bucket's Δ-stream position *after* this commit.
        delta_seq: u64,
    },
    /// Parity bucket: a Δ-commit was applied in column order. No store
    /// logs it any more (parity columns keep no store); the tag stays
    /// reserved, and a data log holding one is refused as corrupt.
    Delta(DeltaEntry),
}

wire_enum!(WalOp {
    1 => Set { rank, key, payload, delta_seq },
    2 => Del { rank, key, delta_seq },
    3 => Delta(entry),
});

/// Encode a [`WalOp`] (integrity framing is the store's job, not ours).
pub fn encode_op(op: &WalOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    op.put(&mut out);
    out
}

/// Decode a [`WalOp`]; the whole buffer must be consumed.
pub fn decode_op(buf: &[u8]) -> Result<WalOp, StoreError> {
    Reader::new(buf)
        .rest()
        .map_err(|e| StoreError::Corrupt(format!("wal op: {e}")))
}

// ----- snapshot codec -----

const SNAP_VERSION: u8 = 1;

/// A bucket's snapshot state: [`SNAP_VERSION`], the role tag, the bucket's
/// identity, then its whole content. Tag 1 held parity snapshots, which no
/// store writes any more.
pub(crate) enum Snapshot {
    /// A data bucket.
    Data {
        /// The bucket number.
        bucket: u64,
        /// Always [`ShardContent::Data`].
        content: ShardContent,
    },
}

wire_enum!(Snapshot {
    0 => Data { bucket, content },
});

impl Snapshot {
    /// The snapshot bytes of this state: how a data bucket's are defined.
    #[cfg(test)]
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![SNAP_VERSION];
        self.put(&mut out);
        out
    }

    /// The bytes handed to [`BucketStore::snapshot`]: those of
    /// `Snapshot::Data` for this bucket state, encoded straight from its
    /// records instead of from a [`ShardContent::Data`] that would first
    /// copy every payload.
    pub(crate) fn encode_data(bucket: u64, level: u8, delta_seq: u64, slab: &DataSlab) -> Vec<u8> {
        // A record adds its rank, key and length varints to its payload.
        let mut out = Vec::with_capacity(slab.payload_bytes() + 12 * slab.len() + 32);
        out.push(SNAP_VERSION);
        out.push(0); // Snapshot::Data
        bucket.put(&mut out);
        out.push(0); // ShardContent::Data
        level.put(&mut out);
        slab.next_rank().put(&mut out);
        delta_seq.put(&mut out);
        wire::put_varint(&mut out, slab.len() as u64);
        for (rank, key, payload) in slab.iter() {
            rank.put(&mut out);
            key.put(&mut out);
            wire::put_bytes(&mut out, payload);
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<Snapshot, StoreError> {
        let corrupt = |e: wire::WireError| StoreError::Corrupt(format!("snapshot: {e}"));
        let mut r = Reader::new(buf);
        let version = r.u8().map_err(corrupt)?;
        if version != SNAP_VERSION {
            return Err(StoreError::Corrupt(format!(
                "snapshot version {version} (expected {SNAP_VERSION})"
            )));
        }
        r.rest().map_err(corrupt)
    }
}

// ----- recovery -----

/// A data bucket rebuilt from its local store by [`recover`].
pub struct Recovered {
    /// The reconstructed node, store re-attached, flagged to send
    /// [`crate::msg::Msg::RestartReport`] on its boot `SelfReport`.
    pub node: Node,
    /// The durable identity the store claimed.
    pub store_id: StoreId,
    /// Logged ops replayed on top of the snapshot.
    pub ops_replayed: u64,
    /// Bytes of logged ops replayed.
    pub bytes_replayed: u64,
    /// What the log tail looked like.
    pub tail: TailState,
}

/// Rebuild a data bucket from its durable store: decode the snapshot, fold
/// the logged op suffix over it, and hand back a node ready to be hosted.
///
/// A torn or corrupt log *tail* is survivable (the clean prefix is state
/// the rest of the file may have moved past anyway — the Δ-suffix
/// handshake reconciles it). A missing or undecodable *snapshot* is not:
/// that store cannot seed a bucket and the caller must fall back to the
/// full RS rebuild.
pub fn recover(
    shared: &SharedHandle,
    mut store: Box<dyn BucketStore>,
) -> Result<Recovered, StoreError> {
    let replay = store.replay()?;
    let snap_buf = replay
        .snapshot
        .ok_or_else(|| StoreError::Corrupt("store has no snapshot".into()))?;
    let Snapshot::Data { bucket, content } = Snapshot::decode(&snap_buf)?;
    let ShardContent::Data {
        level,
        next_rank,
        delta_seq,
        records,
    } = content
    else {
        return Err(StoreError::Corrupt(
            "data snapshot holds parity content".into(),
        ));
    };
    let mut map: BTreeMap<Rank, (Key, Vec<u8>)> = records
        .into_iter()
        .map(|(rank, key, payload)| (rank, (key, payload)))
        .collect();
    // A restart from this store resumes no lower than its snapshot: the
    // ops replayed over it may not survive an OS crash.
    let snapshot_seq = delta_seq;
    let (mut next_rank, mut delta_seq) = (next_rank, delta_seq);
    let (mut ops_replayed, mut bytes_replayed) = (0u64, 0u64);
    for buf in &replay.ops {
        match decode_op(buf)? {
            WalOp::Set {
                rank,
                key,
                payload,
                delta_seq: seq,
            } => {
                map.insert(rank, (key, payload));
                next_rank = next_rank.max(rank.saturating_add(1));
                delta_seq = delta_seq.max(seq);
            }
            WalOp::Del {
                rank,
                delta_seq: seq,
                ..
            } => {
                map.remove(&rank);
                delta_seq = delta_seq.max(seq);
            }
            WalOp::Delta(_) => {
                return Err(StoreError::Corrupt(
                    "data store logged a parity delta".into(),
                ));
            }
        }
        ops_replayed += 1;
        bytes_replayed += buf.len() as u64;
    }
    let records: Vec<(Rank, Key, Vec<u8>)> = map
        .into_iter()
        .map(|(rank, (key, payload))| (rank, key, payload))
        .collect();
    let mut d =
        DataBucket::from_content(shared.clone(), bucket, level, next_rank, delta_seq, records)
            .ok_or_else(|| StoreError::Corrupt("no bucket can hold the stored records".into()))?;
    d.mark_restarted();
    d.attach_store_at(store, snapshot_seq);
    d.snapshot_now();
    Ok(Recovered {
        node: Node::Data(d),
        store_id: StoreId::Data { bucket },
        ops_replayed,
        bytes_replayed,
        tail: replay.tail,
    })
}

// ----- in-memory store for the simulator drills -----

#[derive(Default)]
struct MemInner {
    snapshot: Option<Vec<u8>>,
    ops: Vec<Vec<u8>>,
    bytes: u64,
    /// Fault injection: every append/snapshot fails (a dying disk).
    failing: bool,
}

/// A handle to one simulated "disk": survives the bucket's crash so a
/// drill can reopen it, chop its tail, or destroy it.
#[derive(Clone, Default)]
pub struct MemDisk {
    inner: Rc<RefCell<MemInner>>,
}

impl MemDisk {
    /// Number of ops currently logged after the snapshot.
    pub fn ops_len(&self) -> usize {
        self.inner.borrow().ops.len()
    }

    /// Keep only the first `keep` logged ops (simulates losing the log
    /// tail — e.g. an unsynced page cache at power loss).
    pub fn truncate_ops(&self, keep: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.ops.truncate(keep);
        inner.bytes = inner.ops.iter().map(|o| o.len() as u64).sum();
    }

    /// Make every subsequent append/snapshot fail (a dying disk — the
    /// store-poisoning drill). `reset` still works: erasing a bad disk's
    /// metadata is modelled as always possible.
    pub fn fail_writes(&self, failing: bool) {
        self.inner.borrow_mut().failing = failing;
    }

    /// Whether the disk currently holds a snapshot (poisoning erases it).
    pub fn has_snapshot(&self) -> bool {
        self.inner.borrow().snapshot.is_some()
    }

    /// Open a store view onto this disk.
    pub fn open(&self) -> Box<dyn BucketStore> {
        Box::new(MemStore {
            disk: self.clone(),
            appends: 0,
            durable: Durable::default(),
        })
    }
}

/// [`BucketStore`] over a [`MemDisk`]. Its snapshots survive a crash
/// and its logged ops may not (a drill can [`MemDisk::truncate_ops`]), so
/// an append counts as durable only once a snapshot covers it.
pub struct MemStore {
    disk: MemDisk,
    /// Appends made through this view.
    appends: u64,
    /// What the last snapshot through this view made durable.
    durable: Durable,
}

impl BucketStore for MemStore {
    fn append(&mut self, op: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.disk.inner.borrow_mut();
        if inner.failing {
            return Err(StoreError::Io("injected append failure".into()));
        }
        inner.bytes += op.len() as u64;
        inner.ops.push(op.to_vec());
        self.appends += 1;
        Ok(())
    }

    fn snapshot(&mut self, state: Vec<u8>) -> Result<(), StoreError> {
        let mut inner = self.disk.inner.borrow_mut();
        if inner.failing {
            return Err(StoreError::Io("injected snapshot failure".into()));
        }
        inner.snapshot = Some(state);
        inner.ops.clear();
        inner.bytes = 0;
        self.durable = Durable {
            appends: self.appends,
            snapshots: self.durable.snapshots + 1,
        };
        Ok(())
    }

    fn replay(&mut self) -> Result<Replay, StoreError> {
        let inner = self.disk.inner.borrow();
        Ok(Replay {
            snapshot: inner.snapshot.clone(),
            ops: inner.ops.clone(),
            tail: TailState::Clean,
        })
    }

    fn reset(&mut self) -> Result<(), StoreError> {
        let mut inner = self.disk.inner.borrow_mut();
        inner.snapshot = None;
        inner.ops.clear();
        inner.bytes = 0;
        Ok(())
    }

    fn appended_since_snapshot(&self) -> u64 {
        self.disk.inner.borrow().ops.len() as u64
    }

    fn wal_bytes(&self) -> u64 {
        self.disk.inner.borrow().bytes
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn durable(&self) -> Durable {
        self.durable
    }
}

/// A fleet of [`MemDisk`]s keyed by [`StoreId`], with a [`StoreFactory`]
/// view for [`crate::registry::Shared::set_store_factory`]. Disks follow
/// the logical shard, not the node, exactly like a reattached volume.
#[derive(Clone, Default)]
pub struct MemHub {
    disks: Rc<RefCell<HashMap<StoreId, MemDisk>>>,
    dead: Rc<RefCell<HashSet<StoreId>>>,
}

impl MemHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// The factory view: creates a disk per store id on first use, and
    /// declines for ids that were [`MemHub::destroy`]ed.
    pub fn factory(&self) -> StoreFactory {
        let hub = self.clone();
        Rc::new(move |_node, id| {
            if hub.dead.borrow().contains(id) {
                return None;
            }
            let disk = hub
                .disks
                .borrow_mut()
                .entry(id.clone())
                .or_default()
                .clone();
            Some(disk.open())
        })
    }

    /// The disk behind `id`, if one was ever created.
    pub fn disk(&self, id: &StoreId) -> Option<MemDisk> {
        self.disks.borrow().get(id).cloned()
    }

    /// Destroy the disk behind `id`: its contents are gone and the factory
    /// declines to recreate it (the disk-lost drill arm).
    pub fn destroy(&self, id: &StoreId) {
        self.disks.borrow_mut().remove(id);
        self.dead.borrow_mut().insert(id.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::KeyOp;

    #[test]
    fn wal_op_roundtrip() {
        let ops = [
            WalOp::Set {
                rank: 3,
                key: 77,
                payload: vec![1, 2, 3],
                delta_seq: 9,
            },
            WalOp::Del {
                rank: 3,
                key: 77,
                delta_seq: 10,
            },
            WalOp::Delta(DeltaEntry {
                seq: 4,
                rank: 1,
                col: 2,
                key_op: KeyOp::Add(5),
                delta_cell: vec![0, 9],
            }),
        ];
        for op in &ops {
            assert_eq!(&decode_op(&encode_op(op)).unwrap(), op, "{op:?}");
        }
    }

    #[test]
    fn decode_op_rejects_garbage_and_trailing() {
        assert!(decode_op(&[]).is_err());
        assert!(decode_op(&[99]).is_err());
        let mut buf = encode_op(&WalOp::Del {
            rank: 0,
            key: 0,
            delta_seq: 0,
        });
        buf.push(7);
        assert!(decode_op(&buf).is_err());
    }

    #[test]
    fn snapshot_codec_rejects_bad_version_and_role() {
        let content = ShardContent::Data {
            level: 0,
            next_rank: 0,
            delta_seq: 0,
            records: Vec::new(),
        };
        let mut buf = Snapshot::Data { bucket: 3, content }.encode();
        assert!(Snapshot::decode(&buf).is_ok());
        buf[0] = 9;
        assert!(matches!(
            Snapshot::decode(&buf),
            Err(StoreError::Corrupt(_))
        ));
        buf[0] = SNAP_VERSION;
        buf[1] = 7;
        assert!(Snapshot::decode(&buf).is_err());
    }

    #[test]
    fn data_snapshot_bytes_are_those_of_its_shard_content() {
        let records: Vec<(Rank, Key, Vec<u8>)> = [(0u64, 7u64, 0usize), (1, 300, 5), (4, u64::MAX, 200)]
            .into_iter()
            .map(|(rank, key, len)| (rank, key, (0..len).map(|i| i as u8).collect()))
            .collect();
        for records in [Vec::new(), records] {
            let slab = DataSlab::restore(204, 5, records.clone()).unwrap();
            let content = ShardContent::Data {
                level: 3,
                next_rank: 5,
                delta_seq: 129,
                records,
            };
            assert_eq!(
                Snapshot::encode_data(260, 3, 129, &slab),
                Snapshot::Data {
                    bucket: 260,
                    content
                }
                .encode()
            );
        }
    }

    #[test]
    fn mem_disk_survives_and_truncates() {
        let hub = MemHub::new();
        let id = StoreId::Data { bucket: 0 };
        let factory = hub.factory();
        let mut store = factory(NodeId(1), &id).unwrap();
        store.snapshot(b"snap".to_vec()).unwrap();
        store.append(b"a").unwrap();
        store.append(b"bb").unwrap();
        assert_eq!(store.appended_since_snapshot(), 2);
        assert_eq!(store.wal_bytes(), 3);
        let only_the_snapshot = Durable {
            appends: 0,
            snapshots: 1,
        };
        assert_eq!(store.durable(), only_the_snapshot, "logged ops may not survive");
        drop(store);

        // Chop the tail, reopen "after the crash".
        hub.disk(&id).unwrap().truncate_ops(1);
        let mut store = factory(NodeId(2), &id).unwrap();
        let rep = store.replay().unwrap();
        assert_eq!(rep.snapshot.as_deref(), Some(&b"snap"[..]));
        assert_eq!(rep.ops, vec![b"a".to_vec()]);
        assert_eq!(rep.tail, TailState::Clean);

        hub.destroy(&id);
        assert!(factory(NodeId(2), &id).is_none());
    }
}
