//! The node dispatcher: one simulated server can be blank (pool/spare), a
//! data bucket, a parity bucket, a client, or the coordinator.

use lhrs_sim::{Actor, Env, NodeId, TimerId};

use crate::client::Client;
use crate::coordinator::Coordinator;
use crate::data_bucket::DataBucket;
use crate::exchange::Owner;
use crate::msg::{Msg, ShardContent};
use crate::parity_bucket::ParityBucket;
use crate::registry::SharedHandle;
use crate::storage::{GroupCommits, StoreError, StoreId};

/// A node of the LH\*RS multicomputer.
#[expect(
    clippy::large_enum_variant,
    reason = "a Node is allocated once per hosted actor and never moved in bulk; \
              an indirection on every dispatch would cost more than the size spread"
)]
pub enum Node {
    /// Unallocated pool node / hot spare. Buffers any early messages (a
    /// race possible only under extreme latency models) and replays them
    /// once initialised.
    Blank {
        /// Shared registry/config handle.
        shared: SharedHandle,
        /// Messages that arrived before initialisation.
        pending: Vec<(NodeId, Msg)>,
    },
    /// A primary (data) bucket.
    Data(DataBucket),
    /// A parity bucket.
    Parity(ParityBucket),
    /// A client.
    Client(Client),
    /// The coordinator (boxed: it carries the recovery state machines and
    /// would otherwise dominate the enum's size).
    Coordinator(Box<Coordinator>),
}

impl Node {
    /// Access the client state (panics otherwise) — driver convenience.
    pub fn as_client(&self) -> &Client {
        match self {
            Node::Client(c) => c,
            _ => panic!("node is not a client"),
        }
    }

    /// Mutable client access.
    pub fn as_client_mut(&mut self) -> &mut Client {
        match self {
            Node::Client(c) => c,
            _ => panic!("node is not a client"),
        }
    }

    /// Access the coordinator state (panics otherwise).
    pub fn as_coordinator(&self) -> &Coordinator {
        match self {
            Node::Coordinator(c) => c,
            _ => panic!("node is not the coordinator"),
        }
    }

    /// Access a data bucket (panics otherwise).
    pub fn as_data(&self) -> &DataBucket {
        match self {
            Node::Data(d) => d,
            _ => panic!("node is not a data bucket"),
        }
    }

    /// Mutable data-bucket access.
    pub fn as_data_mut(&mut self) -> &mut DataBucket {
        match self {
            Node::Data(d) => d,
            _ => panic!("node is not a data bucket"),
        }
    }

    /// Access a parity bucket (panics otherwise).
    pub fn as_parity(&self) -> &ParityBucket {
        match self {
            Node::Parity(p) => p,
            _ => panic!("node is not a parity bucket"),
        }
    }

    /// Mutable parity-bucket access.
    pub fn as_parity_mut(&mut self) -> &mut ParityBucket {
        match self {
            Node::Parity(p) => p,
            _ => panic!("node is not a parity bucket"),
        }
    }

    /// Whether the node is still an unallocated blank.
    pub fn is_blank(&self) -> bool {
        matches!(self, Node::Blank { .. })
    }

    /// Initialise a blank node per an init/install message; returns the
    /// replacement plus any buffered messages to replay.
    fn initialise(
        shared: &SharedHandle,
        pending: &mut Vec<(NodeId, Msg)>,
        env: &mut Env<'_, Msg>,
        from: NodeId,
        msg: Msg,
    ) -> Option<Node> {
        match msg {
            Msg::InitData {
                bucket,
                level,
                delta_seq,
            } => {
                let mut d = DataBucket::new(shared.clone(), bucket, level);
                d.resume_delta_seq(delta_seq);
                d.await_load();
                Node::attach_data_store(shared, env.me(), &mut d);
                Some(Node::Data(d))
            }
            Msg::InitParity { group, index, k } => {
                // A column the field cannot hold: drop the order, stay blank.
                let p = ParityBucket::new(shared.clone(), group, index, k).ok()?;
                Some(Node::Parity(p))
            }
            Msg::Install {
                group,
                bucket,
                index,
                k,
                content,
                token,
            } => {
                // Content no bucket can hold (a rank past the rank bound,
                // say) is refused: the node stays blank and sends no ack.
                let refused = |env: &mut Env<'_, Msg>| env.obs().incr("installs_refused");
                let node = match content {
                    ShardContent::Data {
                        level,
                        next_rank,
                        delta_seq,
                        records,
                    } => {
                        let Some(mut d) = DataBucket::from_content(
                            shared.clone(),
                            bucket.expect("data install carries a bucket number"),
                            level,
                            next_rank,
                            delta_seq,
                            records,
                        ) else {
                            refused(env);
                            return None;
                        };
                        Node::attach_data_store(shared, env.me(), &mut d);
                        // The predecessor may have died with a split's
                        // partition unexecuted: records the reconstruction
                        // restored that address elsewhere at the installed
                        // level must move to their home buckets now.
                        d.expel_misplaced(env);
                        Node::Data(d)
                    }
                    ShardContent::Parity { records, col_seqs } => {
                        let Some(p) = ParityBucket::from_content(
                            shared.clone(),
                            group,
                            index.expect("parity install carries an index"),
                            k,
                            records,
                            col_seqs,
                        ) else {
                            refused(env);
                            return None;
                        };
                        Node::Parity(p)
                    }
                };
                env.send(from, Msg::InstallAck { token });
                Some(node)
            }
            other => {
                pending.push((from, other));
                None
            }
        }
    }

    /// Attach (and seed) a durable store to a freshly initialised data
    /// bucket. The RAM content just installed is authoritative: any stale
    /// incarnation on the "disk" is erased before the seeding snapshot.
    fn attach_data_store(shared: &SharedHandle, me: NodeId, d: &mut DataBucket) {
        let id = StoreId::Data { bucket: d.bucket };
        if let Some(mut store) = shared.make_store(me, &id) {
            let _ = store.reset();
            d.attach_store(store);
            d.snapshot_now();
        }
    }

    /// Attach (and seed) a durable store to a node whose data bucket was
    /// built directly from the initial cluster layout rather than through
    /// an `Init`/`Install` message. No-op for every other role
    /// (parity columns keep no store), or when the factory declines.
    pub fn attach_fresh_store(&mut self, me: NodeId) {
        if let Node::Data(d) = self {
            let shared = d.shared_handle();
            Node::attach_data_store(&shared, me, d);
        }
    }

    /// Flush the attached store's buffered appends, if any — the
    /// once-per-batch hook behind [`crate::FsyncPolicy::Batch`] — and
    /// report the flushes completed since the last pass. An `Err` means
    /// the sync failed and the store was poisoned.
    pub fn sync_store(&mut self) -> Result<GroupCommits, StoreError> {
        match self {
            Node::Data(d) => d.sync_store(),
            _ => Ok(GroupCommits::default()),
        }
    }
}

impl Actor<Msg> for Node {
    fn on_message(&mut self, env: &mut Env<'_, Msg>, from: NodeId, msg: Msg) {
        // Retirement applies to whole nodes, independent of role.
        if matches!(msg, Msg::Retire) {
            let shared = match self {
                Node::Blank { shared, .. } => shared.clone(),
                Node::Data(d) => {
                    // The logical bucket is moving elsewhere: wipe the local
                    // log so a later restart cannot resurrect a stale copy.
                    d.reset_store();
                    d.shared_handle()
                }
                Node::Parity(p) => p.shared_handle(),
                Node::Client(_) | Node::Coordinator(_) => {
                    debug_assert!(false, "clients/coordinator are never retired");
                    return;
                }
            };
            *self = Node::Blank {
                shared,
                pending: Vec::new(),
            };
            return;
        }
        match self {
            Node::Blank { shared, pending } => {
                if let Some(mut node) = Node::initialise(shared, pending, env, from, msg) {
                    // Replay anything that raced ahead of the init.
                    let replay = std::mem::take(pending);
                    for (f, m) in replay {
                        node.on_message(env, f, m);
                    }
                    *self = node;
                }
            }
            Node::Data(d) => d.on_message(env, from, msg),
            Node::Parity(p) => p.on_message(env, from, msg),
            Node::Client(c) => c.on_message(env, from, msg),
            Node::Coordinator(c) => c.on_message(env, from, msg),
        }
    }

    fn on_timer(&mut self, env: &mut Env<'_, Msg>, timer: TimerId) {
        match self {
            Node::Client(c) => c.round(env, timer),
            Node::Coordinator(c) => c.round(env, timer),
            Node::Data(d) => d.round(env, timer),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::registry::Shared;

    /// An install whose ranks lie past the rank bound leaves the node
    /// blank, unacknowledged and counted, and allocates nothing for it: a
    /// slot map or parity slab sized by rank 2^40 would abort the process.
    #[test]
    fn an_install_past_the_rank_bound_is_refused() {
        let shared = Shared::new(Config::default());
        let (m, cell_len) = (shared.cfg.group_size, shared.cfg.cell_len());
        let data = ShardContent::Data {
            level: 0,
            next_rank: 1 << 40,
            delta_seq: 0,
            records: Vec::new(),
        };
        let parity = ShardContent::Parity {
            records: vec![(1 << 40, vec![Some(1); m], vec![0; cell_len])],
            col_seqs: vec![0; m],
        };
        for (bucket, index, content) in [(Some(0), None, data), (None, Some(0), parity)] {
            let mut node = Node::Blank {
                shared: shared.clone(),
                pending: Vec::new(),
            };
            let (mut next_timer, mut effects) = (0, Vec::new());
            let obs = lhrs_obs::Metrics::new(lhrs_obs::Clock::logical());
            let mut env = Env::external(NodeId(9), 0, &mut next_timer, &mut effects, &obs);
            let install = Msg::Install {
                group: 0,
                bucket,
                index,
                k: 1,
                content,
                token: 1,
            };
            node.on_message(&mut env, NodeId(0), install);
            assert!(node.is_blank());
            assert_eq!(obs.counter("installs_refused"), 1);
            assert!(effects.is_empty(), "no InstallAck");
        }
    }
}
