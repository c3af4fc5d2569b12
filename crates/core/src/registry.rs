//! The allocation table mapping logical buckets to simulated nodes.
//!
//! In the papers every client and server keeps a *physical allocation
//! table* translating logical bucket numbers to network addresses; the
//! tables are piggyback-updated and their maintenance is not part of the
//! operation cost model. We model them as one shared table (`Rc<RefCell>` —
//! the simulation is single-threaded), updated by the coordinator when
//! buckets are created or recovered onto spares. Message *costs* are
//! unaffected: resolving a logical address is a local operation in the
//! paper too. The displaced-bucket corner case (a client racing a
//! recovery) is exercised separately through the coordinator-assisted
//! delivery path.

use std::cell::RefCell;
use std::rc::Rc;

use lhrs_sim::NodeId;

use crate::Config;

/// Shared state every node holds a handle to: the allocation table plus the
/// immutable file configuration.
pub struct Shared {
    /// The allocation table.
    pub registry: RefCell<Registry>,
    /// File configuration (immutable after creation).
    pub cfg: Config,
    /// Optional durable-store factory: when set, data buckets attach a
    /// [`crate::storage::BucketStore`] on initialisation and log committed
    /// ops to it, and parity buckets keep the Δ-history a restarted data
    /// bucket pulls its suffix from. `None` = the paper's RAM-only
    /// multicomputer.
    store_factory: RefCell<Option<crate::storage::StoreFactory>>,
}

/// Cheap clonable handle.
pub type SharedHandle = Rc<Shared>;

/// Logical-to-physical address maps.
#[derive(Debug)]
pub struct Registry {
    /// Data bucket number → node.
    data: Vec<NodeId>,
    /// Per bucket group: parity column index → node.
    parity: Vec<Vec<NodeId>>,
    /// The coordinator node.
    coordinator: NodeId,
    /// Moves on every change to the table (see [`Registry::edits`]).
    edits: u64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            data: Vec::new(),
            parity: Vec::new(),
            coordinator: lhrs_sim::EXTERNAL,
            edits: 0,
        }
    }
}

impl Registry {
    /// Moves whenever an edit changes the table, so equal counts read the
    /// same table. A refused or same-value edit leaves it alone.
    pub fn edits(&self) -> u64 {
        self.edits
    }

    /// Count one change, when `changed`.
    fn edited(&mut self, changed: bool) {
        self.edits = self.edits.wrapping_add(u64::from(changed));
    }

    /// Write `value` into `slot`, counting it in `edits` if it differs.
    fn set<T: PartialEq>(edits: &mut u64, slot: &mut T, value: T) {
        *edits = edits.wrapping_add(u64::from(*slot != value));
        *slot = value;
    }

    /// The coordinator node.
    pub fn coordinator(&self) -> NodeId {
        self.coordinator
    }

    /// Move the coordinator to `node`.
    pub fn set_coordinator(&mut self, node: NodeId) {
        Self::set(&mut self.edits, &mut self.coordinator, node);
    }

    /// Node currently carrying data bucket `b`.
    ///
    /// # Panics
    /// Panics if the bucket does not exist — addressing logic must never
    /// produce a bucket number beyond the file.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers address buckets below the file's bucket count, which the \
                  coordinator keeps in step with this table; answering a miss with some \
                  other node would misroute silently, and callers that can race a stale \
                  table use try_data_node"
    )]
    pub fn data_node(&self, b: u64) -> NodeId {
        self.data[crate::convert::to_index(b)]
    }

    /// Node carrying data bucket `b`, or `None` when the table has no such
    /// bucket. The non-panicking variant for paths that can legitimately
    /// race a stale table (a networked host whose registry snapshot lags the
    /// coordinator); the caller drops the message and relies on retries.
    pub fn try_data_node(&self, b: u64) -> Option<NodeId> {
        self.data.get(crate::convert::to_index(b)).copied()
    }

    /// Number of data buckets (`M`).
    pub fn data_count(&self) -> usize {
        self.data.len()
    }

    /// Register the next data bucket. Buckets append densely: any other
    /// bucket number is refused (`false`) and the table is unchanged.
    pub fn push_data(&mut self, bucket: u64, node: NodeId) -> bool {
        if crate::convert::to_index(bucket) != self.data.len() {
            return false;
        }
        self.data.push(node);
        self.edited(true);
        true
    }

    /// Redirect data bucket `b` to a new node (recovery onto a spare);
    /// `false` if the table has no such bucket.
    pub fn move_data(&mut self, b: u64, node: NodeId) -> bool {
        match self.data.get_mut(crate::convert::to_index(b)) {
            Some(slot) => {
                Self::set(&mut self.edits, slot, node);
                true
            }
            None => false,
        }
    }

    /// Remove the last data bucket (merge); returns its ex-node, `None`
    /// for an empty table.
    pub fn pop_data(&mut self) -> Option<NodeId> {
        let popped = self.data.pop();
        self.edited(popped.is_some());
        popped
    }

    /// Drop the last group's (empty) parity mapping, returning its nodes
    /// for decommissioning.
    pub fn pop_parity_group(&mut self) -> Vec<NodeId> {
        let popped = self.parity.pop();
        self.edited(popped.is_some());
        popped.unwrap_or_default()
    }

    /// Parity nodes of bucket group `g` (empty slice if the group has no
    /// parity yet).
    pub fn parity_nodes(&self, g: u64) -> &[NodeId] {
        self.parity
            .get(crate::convert::to_index(g))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Availability level of group `g` as reflected by the table.
    pub fn group_k(&self, g: u64) -> usize {
        self.parity_nodes(g).len()
    }

    /// Number of bucket groups with any parity provisioned.
    pub fn group_count(&self) -> usize {
        self.parity.len()
    }

    /// Set (or extend) the parity nodes of group `g`; `false` only for a
    /// group number no table could hold.
    pub fn set_parity(&mut self, g: u64, nodes: Vec<NodeId>) -> bool {
        let g = crate::convert::to_index(g);
        let Some(len) = g.checked_add(1) else {
            return false;
        };
        if self.parity.len() < len {
            self.parity.resize(len, Vec::new());
            self.edited(true);
        }
        match self.parity.get_mut(g) {
            Some(slot) => {
                Self::set(&mut self.edits, slot, nodes);
                true
            }
            None => false,
        }
    }

    /// Redirect parity column `q` of group `g` to a new node; `false` if
    /// the table has no such column.
    pub fn move_parity(&mut self, g: u64, q: usize, node: NodeId) -> bool {
        let slot = self
            .parity
            .get_mut(crate::convert::to_index(g))
            .and_then(|nodes| nodes.get_mut(q));
        match slot {
            Some(slot) => {
                Self::set(&mut self.edits, slot, node);
                true
            }
            None => false,
        }
    }

    /// All live node ids of the file (data then parity), for scans and
    /// file-state recovery fan-out.
    pub fn all_data_nodes(&self) -> Vec<NodeId> {
        self.data.clone()
    }
}

/// A new file's placement over its server nodes, given in ascending id
/// order: bucket 0 on the lowest server, the next `k` as group 0's parity,
/// and the rest as the spare pool, listed highest id first (the
/// coordinator pops spares from the back). Every process of a deployment
/// derives the same placement from the same server list. `None` when there
/// are fewer than `1 + k` servers.
pub fn initial_layout(servers: &[NodeId], k: usize) -> Option<(NodeId, Vec<NodeId>, Vec<NodeId>)> {
    let (&bucket0, rest) = servers.split_first()?;
    let (parity, spares) = rest.split_at_checked(k)?;
    Some((bucket0, parity.to_vec(), spares.iter().rev().copied().collect()))
}

impl Shared {
    /// Create the shared handle.
    pub fn new(cfg: Config) -> SharedHandle {
        Rc::new(Shared {
            registry: RefCell::new(Registry::default()),
            cfg,
            store_factory: RefCell::new(None),
        })
    }

    /// Install a durable-store factory; data buckets initialised afterwards
    /// attach a store for their own identity.
    pub fn set_store_factory(&self, factory: crate::storage::StoreFactory) {
        *self.store_factory.borrow_mut() = Some(factory);
    }

    /// Build a store for `(node, id)` via the installed factory, if any.
    /// The factory itself may decline (e.g. a simulated node whose "disk"
    /// was destroyed), which also yields `None`.
    pub fn make_store(
        &self,
        node: NodeId,
        id: &crate::storage::StoreId,
    ) -> Option<Box<dyn crate::storage::BucketStore>> {
        let factory = self.store_factory.borrow();
        factory.as_ref().and_then(|f| f(node, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_layout_lists_spares_highest_id_first() {
        let servers: Vec<NodeId> = (2..7).map(NodeId).collect();
        let (bucket0, parity, pool) = initial_layout(&servers, 2).unwrap();
        assert_eq!(bucket0, NodeId(2));
        assert_eq!(parity, [NodeId(3), NodeId(4)]);
        assert_eq!(pool, [NodeId(6), NodeId(5)]);
        assert_eq!(initial_layout(&servers[..2], 2), None);
    }

    #[test]
    fn dense_append_enforced() {
        let mut r = Registry::default();
        assert!(r.push_data(0, NodeId(10)));
        assert!(r.push_data(1, NodeId(11)));
        assert_eq!(r.data_node(1), NodeId(11));
        assert_eq!(r.data_count(), 2);
    }

    #[test]
    fn sparse_or_empty_edits_are_refused() {
        let mut r = Registry::default();
        assert!(!r.push_data(5, NodeId(1)), "buckets append densely");
        assert_eq!(r.pop_data(), None);
        assert!(!r.move_data(0, NodeId(1)));
        assert!(!r.move_parity(0, 0, NodeId(1)));
        assert_eq!(r.data_count(), 0);
        assert_eq!(r.group_count(), 0);
        assert_eq!(r.edits(), 0, "a refused edit changes nothing");
    }

    #[test]
    fn parity_groups_grow_on_demand() {
        let mut r = Registry::default();
        assert_eq!(r.group_k(3), 0);
        assert!(r.set_parity(2, vec![NodeId(7), NodeId(8)]));
        assert_eq!(r.group_k(2), 2);
        assert_eq!(r.parity_nodes(2), &[NodeId(7), NodeId(8)]);
        assert_eq!(r.parity_nodes(0), &[] as &[NodeId]);
        assert!(r.move_parity(2, 1, NodeId(9)));
        assert_eq!(r.parity_nodes(2), &[NodeId(7), NodeId(9)]);
        let edits = r.edits();
        assert!(edits > 0);
        assert!(r.move_parity(2, 1, NodeId(9)), "unchanged, but accepted");
        assert_eq!(r.edits(), edits, "and not counted");
    }
}
