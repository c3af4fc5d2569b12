//! Durable-boot plumbing shared by `lhrs-netd` and the restart drills:
//! where a node's write-ahead logs live on disk, the [`StoreFactory`] that
//! opens them, and the boot-time resurrection of a data bucket from a
//! surviving store.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use lhrs_core::node::Node;
use lhrs_core::registry::SharedHandle;
use lhrs_core::storage::{self, BucketStore, StoreFactory};
use lhrs_core::FsyncPolicy;
use lhrs_obs::{Event, Metrics};
use lhrs_sim::NodeId;
use lhrs_wal::FileWal;

use crate::cluster::ClusterSpec;

/// The durable root for one hosted node's shards: `<root>/node-<id>`.
pub fn node_root(root: &Path, id: u32) -> PathBuf {
    root.join(format!("node-{id}"))
}

/// A [`StoreFactory`] giving every (node, shard) pair its own directory
/// under `root`, so one machine can host several nodes without their logs
/// colliding. Declines (modelling a dead disk) when the directory cannot
/// be opened.
pub fn wal_factory(root: PathBuf, fsync: FsyncPolicy) -> StoreFactory {
    Rc::new(move |node, id| {
        let dir = lhrs_wal::store_dir(&node_root(&root, node.0), id);
        FileWal::open(dir, fsync)
            .ok()
            .map(|w| Box::new(w) as Box<dyn BucketStore>)
    })
}

/// What a durable host should boot node `id` as.
#[expect(
    clippy::large_enum_variant,
    reason = "one value per boot decision; the Recovered(Node) payload's size is \
              irrelevant at this frequency"
)]
pub enum DurableBoot {
    /// A usable store was found: host this resurrected node and announce
    /// the restart (`Msg::SelfReport`) so the coordinator tops it up with
    /// the missed Δ-suffix.
    Recovered(Node),
    /// The node's durable root exists but holds no usable data-shard
    /// store — this is a *restart* whose state is gone (wiped disk,
    /// damaged snapshot, or a parity column, which keeps no store and is
    /// never resurrected).
    /// The node must boot blank: rebuilding the spec's initial shard here
    /// would fabricate an empty bucket that answers lookups with
    /// authoritative misses for acked records. Blank, it stays silent and
    /// the coordinator's probe timeout routes the shard through the full
    /// RS rebuild.
    Blank,
    /// No durable root at all: a genuine first boot. Build the spec's
    /// initial node with [`fresh_node`]. (An operator re-pointing a
    /// restarted node at a brand-new empty root is indistinguishable from
    /// this — mount the old disk, even if wiped, so the root exists.)
    Fresh,
}

/// A blank (pool/spare) node over `shared` — the [`DurableBoot::Blank`]
/// outcome.
pub fn blank_node(shared: &SharedHandle) -> Node {
    Node::Blank {
        shared: shared.clone(),
        pending: Vec::new(),
    }
}

/// The [`DurableBoot::Fresh`] outcome: the spec's initial node, its data
/// bucket's store seeded. A parity column keeps no store, so its node
/// root is created here instead: either way the root exists from the
/// first boot on, and a restart classifies as [`DurableBoot::Blank`] —
/// never as a first boot that fabricates an empty shard.
pub fn fresh_node(spec: &ClusterSpec, shared: &SharedHandle, root: &Path, id: u32) -> Node {
    let mut node = spec.build_node(shared, id);
    node.attach_fresh_store(NodeId(id));
    if matches!(node, Node::Parity(_)) {
        let _ = std::fs::create_dir_all(node_root(root, id));
    }
    node
}

/// Decide how to boot node `id` under durable root `root`.
pub fn durable_boot(
    shared: &SharedHandle,
    root: &Path,
    id: u32,
    fsync: FsyncPolicy,
    metrics: &Metrics,
) -> DurableBoot {
    if !node_root(root, id).is_dir() {
        return DurableBoot::Fresh;
    }
    match recover_node(shared, root, id, fsync, metrics) {
        Some(node) => DurableBoot::Recovered(node),
        None => DurableBoot::Blank,
    }
}

/// Try to rebuild node `id` from a surviving data-shard store under its
/// durable root. Returns the recovered node if a usable snapshot was
/// found; any failure (no directory, no snapshot, damaged snapshot) means
/// a blank boot and the classic recovery path. A successful replay is
/// traced as [`Event::WalReplay`]; an unusable store bumps `wal_errors`.
///
/// Only *data* shards are resurrected here: a restarted data bucket is
/// reconciled by the coordinator's Δ-suffix handshake, but there is no
/// such handshake for parity columns, and serving stale parity would
/// silently corrupt later decodes. Stale parity state is erased on the
/// next `InitParity`/`Install` instead.
pub fn recover_node(
    shared: &SharedHandle,
    root: &Path,
    id: u32,
    fsync: FsyncPolicy,
    metrics: &Metrics,
) -> Option<Node> {
    let dir = node_root(root, id);
    let entries = std::fs::read_dir(&dir).ok()?;
    // A node killed before a Retire could wipe a previous tenancy's store
    // may hold several stores with state, and read_dir order is
    // unspecified. The current tenancy is the one written to last, so rank
    // candidates newest-snapshot-first and take the first that recovers
    // (path order breaks mtime ties deterministically).
    let mut candidates: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("data-"))
        .map(|e| e.path())
        .filter(|p| FileWal::has_state(p))
        .map(|p| {
            let mtime = FileWal::state_mtime(&p).unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            (mtime, p)
        })
        .collect();
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    for (_, shard_dir) in candidates {
        let Ok(wal) = FileWal::open(shard_dir.clone(), fsync) else {
            continue;
        };
        match storage::recover(shared, Box::new(wal)) {
            Ok(rec) => {
                if let Node::Data(d) = &rec.node {
                    metrics.trace(
                        0,
                        Event::WalReplay {
                            bucket: d.bucket,
                            ops: rec.ops_replayed,
                            bytes: rec.bytes_replayed,
                        },
                    );
                }
                return Some(rec.node);
            }
            Err(e) => {
                metrics.incr("wal_errors");
                eprintln!(
                    "lhrs-net: node {id}: store {} unusable ({e}); booting blank",
                    shard_dir.display()
                );
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhrs_core::storage::StoreId;

    #[test]
    fn factory_roots_each_shard_in_its_own_dir() {
        let root =
            std::env::temp_dir().join(format!("lhrs-net-factory-{}", std::process::id()));
        let f = wal_factory(root.clone(), FsyncPolicy::Never);
        let a_id = StoreId::Data { bucket: 4 };
        let b_id = StoreId::Data { bucket: 5 };
        let mut a = f(NodeId(7), &a_id).unwrap();
        let mut b = f(NodeId(8), &b_id).unwrap();
        a.snapshot(b"A".to_vec()).unwrap();
        b.snapshot(b"B".to_vec()).unwrap();
        lhrs_wal::wait_disk_idle();
        assert!(FileWal::has_state(&lhrs_wal::store_dir(&node_root(&root, 7), &a_id)));
        assert!(FileWal::has_state(&lhrs_wal::store_dir(&node_root(&root, 8), &b_id)));
        assert_eq!(a.replay().unwrap().snapshot.as_deref(), Some(&b"A"[..]));
        assert_eq!(b.replay().unwrap().snapshot.as_deref(), Some(&b"B"[..]));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
