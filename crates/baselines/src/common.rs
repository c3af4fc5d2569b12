//! Shared machinery of the baseline schemes: message protocol, replicated
//! bucket servers, coordinator, and the generic client.
//!
//! All three baselines are "an LH\* file replicated `r` ways with a
//! client-side write/read policy": plain LH\* has `r = 1`, mirroring
//! `r = 2` (full copies), striping `r = m + 1` (fragments + XOR parity).
//! One bucket actor and one coordinator serve all of them; the client mode
//! decides what is written where and how lookups reassemble.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use lhrs_lh::{a2_route, A2Outcome, ClientImage, FileState};
use lhrs_sim::{Actor, Env, NodeId, Payload, TimerId};

/// Which copy of the logical file a bucket belongs to: replica 0 is the
/// primary; mirroring uses replica 1; striping uses replicas `0..m` for
/// data fragments and `m` for the parity fragment.
pub type Replica = usize;

/// Client write/read policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain LH\*: one replica, whole records.
    Plain,
    /// LH\*m: two replicas, whole records to both.
    Mirror,
    /// LH\*s: `m` data fragments + 1 parity fragment.
    Stripe {
        /// Number of data fragments per record.
        m: usize,
    },
}

impl Mode {
    /// Replicas (bucket copies per logical bucket) the mode needs.
    pub fn replicas(&self) -> usize {
        match self {
            Mode::Plain => 1,
            Mode::Mirror => 2,
            Mode::Stripe { m } => m + 1,
        }
    }
}

/// Protocol of the baseline schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BMsg {
    /// Driver → client (not tallied).
    Do {
        /// Operation id.
        op_id: u64,
        /// Insert (key, full payload) or lookup (key).
        op: BOp,
    },
    /// Request to a bucket (possibly forwarded).
    Req {
        /// Operation id.
        op_id: u64,
        /// Reply target.
        client: NodeId,
        /// Replica the request addresses.
        replica: Replica,
        /// Server-to-server forwards so far.
        hops: u8,
        /// Request body.
        kind: BReq,
    },
    /// Bucket → client reply.
    Reply {
        /// Operation id.
        op_id: u64,
        /// Which replica replied (stripe reassembly needs it).
        replica: Replica,
        /// Payload (fragment) or `None`.
        value: Option<Vec<u8>>,
        /// IAM when the request was forwarded.
        iam: Option<(u8, u64)>,
    },
    /// Primary bucket → coordinator.
    ReportOverflow {
        /// Overflowing logical bucket.
        bucket: u64,
    },
    /// Coordinator → pool node.
    InitBucket {
        /// Logical bucket number.
        bucket: u64,
        /// Level.
        level: u8,
        /// Replica.
        replica: Replica,
    },
    /// Coordinator → splitting bucket.
    DoSplit {
        /// New bucket.
        target: u64,
        /// Level after the split.
        new_level: u8,
    },
    /// Splitting bucket → new bucket.
    SplitLoad {
        /// Records moving in.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// Driver → coordinator: rebuild replica `replica` of logical bucket
    /// `bucket` onto a spare (the replica's node is presumed lost).
    RecoverReplica {
        /// Logical bucket.
        bucket: u64,
        /// Replica index to rebuild.
        replica: Replica,
    },
    /// Coordinator → surviving replica of the bucket: send your content.
    TransferBucket {
        /// Correlation token.
        token: u64,
    },
    /// Replica → coordinator: full content.
    BucketData {
        /// Echoed token.
        token: u64,
        /// Which replica this is.
        replica: Replica,
        /// `(key, payload-or-fragment)` records.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// Coordinator → spare node: install rebuilt replica content.
    InstallBucket {
        /// Logical bucket.
        bucket: u64,
        /// Bucket level.
        level: u8,
        /// Replica index.
        replica: Replica,
        /// Content.
        records: Vec<(u64, Vec<u8>)>,
        /// Correlation token.
        token: u64,
    },
    /// Spare → coordinator: installed.
    InstallAck {
        /// Echoed token.
        token: u64,
    },
}

/// Request bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BOp {
    /// Insert a record (client chops it per mode).
    Insert(u64, Vec<u8>),
    /// Key search.
    Lookup(u64),
}

/// What a bucket is asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BReq {
    /// Store a (whole or fragment) payload.
    Insert(u64, Vec<u8>),
    /// Fetch the payload for a key.
    Lookup(u64),
}

impl BReq {
    fn key(&self) -> u64 {
        match self {
            BReq::Insert(k, _) | BReq::Lookup(k) => *k,
        }
    }
}

impl Payload for BMsg {
    fn kind(&self) -> &'static str {
        match self {
            BMsg::Do { .. } => "app-do",
            BMsg::Req {
                kind: BReq::Insert(..),
                ..
            } => "insert",
            BMsg::Req {
                kind: BReq::Lookup(..),
                ..
            } => "lookup",
            BMsg::Reply { .. } => "reply",
            BMsg::ReportOverflow { .. } => "overflow",
            BMsg::InitBucket { .. } => "init-data",
            BMsg::DoSplit { .. } => "split",
            BMsg::SplitLoad { .. } => "split-load",
            BMsg::RecoverReplica { .. } => "recover-replica",
            BMsg::TransferBucket { .. } => "transfer-req",
            BMsg::BucketData { .. } => "transfer-data",
            BMsg::InstallBucket { .. } => "install",
            BMsg::InstallAck { .. } => "install-ack",
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            BMsg::Do { .. } => 0,
            BMsg::Req {
                kind: BReq::Insert(_, p),
                ..
            } => 24 + p.len(),
            BMsg::Req {
                kind: BReq::Lookup(_),
                ..
            } => 24,
            BMsg::Reply { value, .. } => 16 + value.as_ref().map(Vec::len).unwrap_or(0),
            BMsg::ReportOverflow { .. } => 12,
            BMsg::InitBucket { .. } => 16,
            BMsg::DoSplit { .. } => 16,
            BMsg::SplitLoad { records } => {
                8 + records.iter().map(|(_, p)| 12 + p.len()).sum::<usize>()
            }
            BMsg::RecoverReplica { .. } => 12,
            BMsg::TransferBucket { .. } => 8,
            BMsg::BucketData { records, .. } => {
                12 + records.iter().map(|(_, p)| 12 + p.len()).sum::<usize>()
            }
            BMsg::InstallBucket { records, .. } => {
                24 + records.iter().map(|(_, p)| 12 + p.len()).sum::<usize>()
            }
            BMsg::InstallAck { .. } => 8,
        }
    }
}

/// Shared allocation table: `nodes[replica][bucket]`.
pub struct BRegistry {
    /// Node per (replica, bucket).
    pub nodes: Vec<Vec<NodeId>>,
    /// Coordinator node.
    pub coordinator: NodeId,
}

/// Shared handle.
pub struct BShared {
    /// The allocation table.
    pub registry: RefCell<BRegistry>,
    /// Mode (fixes replica count).
    pub mode: Mode,
    /// Bucket capacity `b` (records per primary bucket before overflow).
    pub capacity: usize,
}

/// Handle alias.
pub type BHandle = Rc<BShared>;

/// A bucket server (any replica).
pub struct BBucket {
    shared: BHandle,
    /// Logical bucket number.
    pub bucket: u64,
    /// Level.
    pub level: u8,
    /// Replica index.
    pub replica: Replica,
    /// Stored records (fragments for striping).
    pub records: HashMap<u64, Vec<u8>>,
    overflow_reported: bool,
}

impl BBucket {
    /// Fresh bucket.
    pub fn new(shared: BHandle, bucket: u64, level: u8, replica: Replica) -> Self {
        BBucket {
            shared,
            bucket,
            level,
            replica,
            records: HashMap::new(),
            overflow_reported: false,
        }
    }

    fn on_message(&mut self, env: &mut Env<'_, BMsg>, _from: NodeId, msg: BMsg) {
        match msg {
            BMsg::Req {
                op_id,
                client,
                replica,
                hops,
                kind,
            } => {
                debug_assert_eq!(replica, self.replica);
                match a2_route(self.bucket, self.level, kind.key(), 1) {
                    A2Outcome::Forward(next) => {
                        let node = self.shared.registry.borrow().nodes[self.replica][next as usize];
                        env.send(
                            node,
                            BMsg::Req {
                                op_id,
                                client,
                                replica,
                                hops: hops + 1,
                                kind,
                            },
                        );
                    }
                    A2Outcome::Accept => {
                        let iam = (hops > 0).then_some((self.level, self.bucket));
                        match kind {
                            BReq::Insert(key, payload) => {
                                self.records.insert(key, payload);
                                // Only the primary replica drives splits.
                                if self.replica == 0
                                    && !self.overflow_reported
                                    && self.records.len() > self.shared.capacity
                                {
                                    self.overflow_reported = true;
                                    let coord = self.shared.registry.borrow().coordinator;
                                    env.send(
                                        coord,
                                        BMsg::ReportOverflow {
                                            bucket: self.bucket,
                                        },
                                    );
                                }
                                if let Some(iam) = iam {
                                    env.send(
                                        client,
                                        BMsg::Reply {
                                            op_id,
                                            replica,
                                            value: None,
                                            iam: Some(iam),
                                        },
                                    );
                                }
                            }
                            BReq::Lookup(key) => {
                                env.send(
                                    client,
                                    BMsg::Reply {
                                        op_id,
                                        replica,
                                        value: self.records.get(&key).cloned(),
                                        iam,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            BMsg::DoSplit { target, new_level } => {
                let movers: Vec<(u64, Vec<u8>)> = {
                    let keys: Vec<u64> = self
                        .records
                        .keys()
                        .copied()
                        .filter(|&k| lhrs_lh::h(new_level, 1, k) == target)
                        .collect();
                    keys.iter()
                        .map(|k| (*k, self.records.remove(k).expect("listed")))
                        .collect()
                };
                self.level = new_level;
                self.overflow_reported = false;
                let node = self.shared.registry.borrow().nodes[self.replica][target as usize];
                env.send(node, BMsg::SplitLoad { records: movers });
            }
            BMsg::SplitLoad { records } => {
                self.records.extend(records);
            }
            BMsg::TransferBucket { token } => {
                env.send(
                    _from,
                    BMsg::BucketData {
                        token,
                        replica: self.replica,
                        records: self.records.iter().map(|(k, v)| (*k, v.clone())).collect(),
                    },
                );
            }
            other => debug_assert!(false, "bucket got {other:?}"),
        }
    }
}

/// In-progress replica recovery at the baseline coordinator.
/// One surviving replica's transferred content.
type ReplicaContent = (Replica, Vec<(u64, Vec<u8>)>);

struct BRecovery {
    bucket: u64,
    replica: Replica,
    awaiting: usize,
    collected: Vec<ReplicaContent>,
}

/// The coordinator of a baseline file: drives the shared split sequence
/// across all replicas.
pub struct BCoordinator {
    shared: BHandle,
    /// Authoritative file state.
    pub state: FileState,
    pool: Vec<NodeId>,
    next_token: u64,
    recoveries: HashMap<u64, BRecovery>,
    /// Completed recoveries (bucket, replica) — driver-visible.
    pub recovered: Vec<(u64, Replica)>,
}

impl BCoordinator {
    /// New coordinator with a pool of blank nodes.
    pub fn new(shared: BHandle, pool: Vec<NodeId>) -> Self {
        BCoordinator {
            shared,
            state: FileState::new(1),
            pool,
            next_token: 1,
            recoveries: HashMap::new(),
            recovered: Vec::new(),
        }
    }

    fn on_message(&mut self, env: &mut Env<'_, BMsg>, _from: NodeId, msg: BMsg) {
        match msg {
            BMsg::ReportOverflow { .. } => {
                let plan = self.state.split();
                let replicas = self.shared.mode.replicas();
                for r in 0..replicas {
                    let node = self.pool.pop().expect("baseline pool exhausted");
                    env.send(
                        node,
                        BMsg::InitBucket {
                            bucket: plan.target,
                            level: plan.new_level,
                            replica: r,
                        },
                    );
                    let mut reg = self.shared.registry.borrow_mut();
                    debug_assert_eq!(reg.nodes[r].len() as u64, plan.target);
                    reg.nodes[r].push(node);
                    let source_node = reg.nodes[r][plan.source as usize];
                    drop(reg);
                    env.send(
                        source_node,
                        BMsg::DoSplit {
                            target: plan.target,
                            new_level: plan.new_level,
                        },
                    );
                }
            }
            BMsg::RecoverReplica { bucket, replica } => {
                // Ask every *other* replica of the logical bucket for its
                // content: mirroring needs just the copy; striping needs
                // all surviving fragments for the XOR rebuild. (For
                // mirroring that is exactly one transfer — the scheme's
                // recovery advantage.)
                let token = self.next_token;
                self.next_token += 1;
                let reg = self.shared.registry.borrow();
                let mut awaiting = 0;
                for (r, nodes) in reg.nodes.iter().enumerate() {
                    if r != replica {
                        env.send(nodes[bucket as usize], BMsg::TransferBucket { token });
                        awaiting += 1;
                    }
                }
                drop(reg);
                self.recoveries.insert(
                    token,
                    BRecovery {
                        bucket,
                        replica,
                        awaiting,
                        collected: Vec::new(),
                    },
                );
            }
            BMsg::BucketData {
                token,
                replica,
                records,
            } => {
                let done = {
                    let Some(ctx) = self.recoveries.get_mut(&token) else {
                        return;
                    };
                    ctx.collected.push((replica, records));
                    ctx.collected.len() == ctx.awaiting
                };
                if done {
                    let ctx = self.recoveries.remove(&token).expect("present");
                    let rebuilt = rebuild_replica(self.shared.mode, ctx.replica, &ctx.collected);
                    let spare = self.pool.pop().expect("baseline pool exhausted");
                    let level = self.state.level_of(ctx.bucket);
                    let install_token = self.next_token;
                    self.next_token += 1;
                    env.send(
                        spare,
                        BMsg::InstallBucket {
                            bucket: ctx.bucket,
                            level,
                            replica: ctx.replica,
                            records: rebuilt,
                            token: install_token,
                        },
                    );
                    self.shared.registry.borrow_mut().nodes[ctx.replica][ctx.bucket as usize] =
                        spare;
                    self.recoveries.insert(
                        install_token,
                        BRecovery {
                            bucket: ctx.bucket,
                            replica: ctx.replica,
                            awaiting: 0,
                            collected: Vec::new(),
                        },
                    );
                }
            }
            BMsg::InstallAck { token } => {
                if let Some(ctx) = self.recoveries.remove(&token) {
                    self.recovered.push((ctx.bucket, ctx.replica));
                }
            }
            other => debug_assert!(false, "coordinator got {other:?}"),
        }
    }
}

/// Rebuild one replica's content from the surviving replicas: mirroring
/// copies; striping XORs the surviving equal-length fragments (the missing
/// position does not matter — data and parity fragments rebuild alike).
fn rebuild_replica(
    mode: Mode,
    replica: Replica,
    collected: &[ReplicaContent],
) -> Vec<(u64, Vec<u8>)> {
    let _ = replica; // identical rebuild for every position (equal-length fragments)
    match mode {
        Mode::Plain => Vec::new(), // 0-availability: nothing to rebuild from
        Mode::Mirror => collected
            .first()
            .map(|(_, records)| records.clone())
            .expect("the mirror survives"),
        Mode::Stripe { .. } => {
            // All fragments of a record are equal length, so the missing
            // one — data or parity alike — is the XOR of the m survivors.
            use std::collections::HashMap;
            let mut by_key: HashMap<u64, Vec<&[u8]>> = HashMap::new();
            for (_, records) in collected {
                for (k, frag) in records {
                    by_key.entry(*k).or_default().push(frag);
                }
            }
            by_key
                .into_iter()
                .map(|(key, frags)| {
                    let flen = frags.first().map(|f| f.len()).unwrap_or(0);
                    let mut acc = vec![0u8; flen];
                    for f in frags {
                        debug_assert_eq!(f.len(), flen, "equal-length fragments");
                        for (a, b) in acc.iter_mut().zip(f) {
                            *a ^= b;
                        }
                    }
                    (key, acc)
                })
                .collect()
        }
    }
}

/// Outstanding client operation.
enum BPending {
    /// Write: settled optimistically by the driver.
    Write,
    /// Plain/mirror lookup: one reply expected.
    Lookup,
    /// Stripe lookup: gathering fragments.
    Gather {
        got: BTreeMap<Replica, Option<Vec<u8>>>,
        need: usize,
    },
}

/// The generic baseline client.
pub struct BClient {
    shared: BHandle,
    /// Client image of the logical file.
    pub image: ClientImage,
    pending: HashMap<u64, BPending>,
    results: Vec<(u64, Option<Vec<u8>>)>,
}

impl BClient {
    /// Fresh client (worst-case image).
    pub fn new(shared: BHandle) -> Self {
        BClient {
            shared,
            image: ClientImage::new(1),
            pending: HashMap::new(),
            results: Vec::new(),
        }
    }

    /// Drain results: `(op_id, Some(payload) | None)`. Writes settle as
    /// `None` via [`BClient::settle_writes`].
    pub fn take_results(&mut self) -> Vec<(u64, Option<Vec<u8>>)> {
        std::mem::take(&mut self.results)
    }

    /// Settle optimistic writes.
    pub fn settle_writes(&mut self) {
        let ids: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| matches!(p, BPending::Write))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.pending.remove(&id);
            self.results.push((id, None));
        }
    }

    fn on_message(&mut self, env: &mut Env<'_, BMsg>, _from: NodeId, msg: BMsg) {
        match msg {
            BMsg::Do { op_id, op } => match op {
                BOp::Insert(key, payload) => self.start_insert(env, op_id, key, payload),
                BOp::Lookup(key) => self.start_lookup(env, op_id, key),
            },
            BMsg::Reply {
                op_id,
                replica,
                value,
                iam,
            } => {
                if let Some((level, bucket)) = iam {
                    self.image.adjust(level, bucket);
                }
                match self.pending.get_mut(&op_id) {
                    Some(BPending::Lookup) => {
                        self.pending.remove(&op_id);
                        self.results.push((op_id, value));
                    }
                    Some(BPending::Gather { got, need }) => {
                        got.insert(replica, value);
                        if got.len() == *need {
                            // Reassemble fragments in replica order; a
                            // record exists iff fragment 0 exists.
                            let assembled = if got.get(&0).map(|v| v.is_some()).unwrap_or(false) {
                                let frags: Vec<Vec<u8>> = got.values().flatten().cloned().collect();
                                unstripe(&frags)
                            } else {
                                None
                            };
                            self.pending.remove(&op_id);
                            self.results.push((op_id, assembled));
                        }
                    }
                    Some(BPending::Write) | None => { /* IAM-only reply for a write */ }
                }
            }
            other => debug_assert!(false, "client got {other:?}"),
        }
    }

    fn start_insert(&mut self, env: &mut Env<'_, BMsg>, op_id: u64, key: u64, payload: Vec<u8>) {
        let bucket = self.image.address(key) as usize;
        let me = env.me();
        let reg = self.shared.registry.borrow();
        match self.shared.mode {
            Mode::Plain => {
                env.send(
                    reg.nodes[0][bucket],
                    BMsg::Req {
                        op_id,
                        client: me,
                        replica: 0,
                        hops: 0,
                        kind: BReq::Insert(key, payload),
                    },
                );
            }
            Mode::Mirror => {
                for r in 0..2 {
                    env.send(
                        reg.nodes[r][bucket],
                        BMsg::Req {
                            op_id,
                            client: me,
                            replica: r,
                            hops: 0,
                            kind: BReq::Insert(key, payload.clone()),
                        },
                    );
                }
            }
            Mode::Stripe { m } => {
                let frags = stripe_fragments(&payload, m);
                for (r, frag) in frags.into_iter().enumerate() {
                    env.send(
                        reg.nodes[r][bucket],
                        BMsg::Req {
                            op_id,
                            client: me,
                            replica: r,
                            hops: 0,
                            kind: BReq::Insert(key, frag),
                        },
                    );
                }
            }
        }
        drop(reg);
        self.pending.insert(op_id, BPending::Write);
    }

    fn start_lookup(&mut self, env: &mut Env<'_, BMsg>, op_id: u64, key: u64) {
        let bucket = self.image.address(key) as usize;
        let me = env.me();
        let reg = self.shared.registry.borrow();
        match self.shared.mode {
            Mode::Plain | Mode::Mirror => {
                // Mirrored lookups read the primary (mirror is for
                // availability, not load spreading, in the base scheme).
                env.send(
                    reg.nodes[0][bucket],
                    BMsg::Req {
                        op_id,
                        client: me,
                        replica: 0,
                        hops: 0,
                        kind: BReq::Lookup(key),
                    },
                );
                self.pending.insert(op_id, BPending::Lookup);
            }
            Mode::Stripe { m } => {
                // Gather the m data fragments (parity only read on repair).
                for r in 0..m {
                    env.send(
                        reg.nodes[r][bucket],
                        BMsg::Req {
                            op_id,
                            client: me,
                            replica: r,
                            hops: 0,
                            kind: BReq::Lookup(key),
                        },
                    );
                }
                self.pending.insert(
                    op_id,
                    BPending::Gather {
                        got: BTreeMap::new(),
                        need: m,
                    },
                );
            }
        }
    }
}

/// Chop a payload into `m` equal-length data fragments plus one XOR parity
/// fragment, as LH\*s does. The payload is length-prefixed and zero-padded
/// first (the stripe header of the original scheme), so any single missing
/// fragment is reconstructible by XOR alone and reassembly recovers the
/// exact payload.
pub fn stripe_fragments(payload: &[u8], m: usize) -> Vec<Vec<u8>> {
    let mut cell = Vec::with_capacity(4 + payload.len());
    cell.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    cell.extend_from_slice(payload);
    let flen = cell.len().div_ceil(m).max(1);
    cell.resize(m * flen, 0);
    let mut frags: Vec<Vec<u8>> = cell.chunks_exact(flen).map(|c| c.to_vec()).collect();
    let mut parity = vec![0u8; flen];
    for f in &frags {
        for (p, b) in parity.iter_mut().zip(f) {
            *p ^= b;
        }
    }
    frags.push(parity);
    frags
}

/// Reassemble the exact payload from the `m` data fragments (inverse of
/// [`stripe_fragments`]). `None` on a malformed length prefix.
pub fn unstripe(data_frags: &[Vec<u8>]) -> Option<Vec<u8>> {
    let cell: Vec<u8> = data_frags.iter().flatten().copied().collect();
    if cell.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(cell[..4].try_into().ok()?) as usize;
    (4 + len <= cell.len()).then(|| cell[4..4 + len].to_vec())
}

/// Node roles of a baseline simulation.
pub enum BNode {
    /// Unallocated pool node (buffers early messages like the core's
    /// blanks).
    Blank {
        /// Shared handle.
        shared: BHandle,
        /// Buffered early messages.
        pending: Vec<(NodeId, BMsg)>,
    },
    /// Bucket server.
    Bucket(BBucket),
    /// Client.
    Client(BClient),
    /// Coordinator.
    Coordinator(BCoordinator),
}

impl BNode {
    /// Client accessor.
    pub fn as_client_mut(&mut self) -> &mut BClient {
        match self {
            BNode::Client(c) => c,
            _ => panic!("not a client"),
        }
    }

    /// Coordinator accessor.
    pub fn as_coordinator(&self) -> &BCoordinator {
        match self {
            BNode::Coordinator(c) => c,
            _ => panic!("not the coordinator"),
        }
    }

    /// Bucket accessor.
    pub fn as_bucket(&self) -> &BBucket {
        match self {
            BNode::Bucket(b) => b,
            _ => panic!("not a bucket"),
        }
    }
}

impl Actor<BMsg> for BNode {
    fn on_message(&mut self, env: &mut Env<'_, BMsg>, from: NodeId, msg: BMsg) {
        match self {
            BNode::Blank { shared, pending } => match msg {
                BMsg::InitBucket {
                    bucket,
                    level,
                    replica,
                } => {
                    let mut node =
                        BNode::Bucket(BBucket::new(shared.clone(), bucket, level, replica));
                    let replay = std::mem::take(pending);
                    for (f, m) in replay {
                        node.on_message(env, f, m);
                    }
                    *self = node;
                }
                BMsg::InstallBucket {
                    bucket,
                    level,
                    replica,
                    records,
                    token,
                } => {
                    let mut b = BBucket::new(shared.clone(), bucket, level, replica);
                    b.records = records.into_iter().collect();
                    env.send(from, BMsg::InstallAck { token });
                    *self = BNode::Bucket(b);
                }
                other => pending.push((from, other)),
            },
            BNode::Bucket(b) => b.on_message(env, from, msg),
            BNode::Client(c) => c.on_message(env, from, msg),
            BNode::Coordinator(c) => c.on_message(env, from, msg),
        }
    }

    fn on_timer(&mut self, _env: &mut Env<'_, BMsg>, _timer: TimerId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_fragments_reassemble() {
        for len in [0usize, 1, 5, 16, 17, 100] {
            let payload: Vec<u8> = (0..len as u32).map(|i| (i * 7 + 1) as u8).collect();
            for m in [1usize, 2, 4, 7] {
                let frags = stripe_fragments(&payload, m);
                assert_eq!(frags.len(), m + 1);
                // All fragments equal length.
                assert!(frags.iter().all(|f| f.len() == frags[0].len()));
                assert_eq!(unstripe(&frags[..m]).unwrap(), payload, "len={len} m={m}");
            }
        }
    }

    #[test]
    fn stripe_parity_recovers_any_fragment() {
        let payload: Vec<u8> = (0..50u8).collect();
        let m = 4;
        let frags = stripe_fragments(&payload, m);
        let flen = frags[m].len();
        for lost in 0..=m {
            let mut rec = vec![0u8; flen];
            for (i, f) in frags.iter().enumerate() {
                if i != lost {
                    for (r, b) in rec.iter_mut().zip(f) {
                        *r ^= b;
                    }
                }
            }
            assert_eq!(rec, frags[lost], "lost={lost}");
        }
    }
}
