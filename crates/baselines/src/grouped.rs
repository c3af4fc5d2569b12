//! **LH\*g with insertion-bound record groups** — the predecessor design
//! that LH\*RS evolved from, implemented as a baseline for the
//! split-cost/recovery-cost ablation.
//!
//! Structure (following the LH\*g paper):
//!
//! * The **primary file** `F1` is an LH\* file that starts with `m` buckets
//!   (`N = m`). A record inserted into bucket `b` is stamped with the
//!   record-group key `(g, r)` where `g = ⌊b/m⌋` is the *bucket group at
//!   insertion time* and `r` is bucket `b`'s insert counter. The stamp
//!   **never changes**: when splits move the record, it keeps `(g, r)`.
//! * The **parity file** `F2` is a *second, independent LH\* file* keyed by
//!   `(g, r)`, holding one XOR parity record (member keys + parity cell)
//!   per record group. Primary buckets act as LH\* *clients* of `F2`: they
//!   keep their own image of `F2` and are corrected by IAMs like any
//!   client.
//!
//! The two consequences the ablation measures:
//!
//! * **Splits are parity-free** (the scheme's selling point): movers keep
//!   their group keys, so a primary split sends zero parity messages —
//!   unlike LH\*RS, which retracts and re-enrols every mover (2k batch
//!   messages per split).
//! * **Recovery is scattered** (the scheme's weakness, and why LH\*RS
//!   re-bound groups to buckets): a record group's members drift apart
//!   arbitrarily as the file grows, so reconstructing one record costs a
//!   scan of `F2` plus up to `m − 1` key searches anywhere in `F1` — and
//!   bucket recovery cannot bulk-transfer from a fixed set of partners.
//!
//! Only single-XOR parity (1-availability) is supported, as in the
//! original. Manipulations (insert/lookup/update/delete), both files'
//! splits, and record recovery (algorithm A7) are implemented; full bucket
//! recovery (A4) is costed analytically in the experiment notes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use lhrs_lh::{a2_route, A2Outcome, ClientImage, FileState};
use lhrs_obs::Snapshot;
use lhrs_sim::{Actor, Env, LatencyModel, NodeId, Payload, Sim, TimerId};

/// Record-group key `(g, r)` packed into one `u64` so the parity file can
/// hash it with the ordinary LH family.
fn pack_gkey(g: u64, r: u64) -> u64 {
    debug_assert!(g < (1 << 31) && r < (1 << 31));
    // Scramble so the parity file's `mod 2^l` hashing spreads group keys
    // uniformly (raw (g, r) pairs are highly clustered).
    lhrs_lh::scramble((g << 31) | r)
}

/// Fixed-size coding cell: `[len | payload | zero pad]`, as in the core.
fn cell(payload: &[u8], cell_len: usize) -> Vec<u8> {
    assert!(payload.len() + 4 <= cell_len);
    let mut c = vec![0u8; cell_len];
    c[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    c[4..4 + payload.len()].copy_from_slice(payload);
    c
}

fn uncell(c: &[u8]) -> Option<Vec<u8>> {
    let len = u32::from_le_bytes(c[..4].try_into().ok()?) as usize;
    (4 + len <= c.len()).then(|| c[4..4 + len].to_vec())
}

fn xor_into(src: &[u8], dst: &mut [u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Parity-file key operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum POp {
    /// New member: append key, fold cell in.
    Add(u64, Vec<u8>),
    /// Member gone: remove key, fold its old cell out.
    Remove(u64, Vec<u8>),
    /// Member payload changed: fold Δ in, keys unchanged.
    Update(Vec<u8>),
}

/// The LH\*g message protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GMsg {
    /// Driver → client.
    Do {
        /// Operation id.
        op_id: u64,
        /// Operation.
        op: GOp,
    },
    /// Client/coordinator → primary bucket (A2-forwarded).
    Req {
        /// Operation id.
        op_id: u64,
        /// Reply target.
        reply_to: NodeId,
        /// Forward count.
        hops: u8,
        /// Request.
        kind: GReq,
    },
    /// Primary bucket → requester.
    Reply {
        /// Operation id.
        op_id: u64,
        /// Payload or `None`.
        value: Option<Vec<u8>>,
        /// IAM for the primary file.
        iam: Option<(u8, u64)>,
    },
    /// Primary bucket (as F2 client) → parity bucket (A2-forwarded within
    /// F2).
    PReq {
        /// Packed `(g, r)` key.
        gkey: u64,
        /// The parity operation.
        op: POp,
        /// The primary bucket node (for the F2 IAM).
        origin: NodeId,
        /// Forward count within F2.
        hops: u8,
    },
    /// Parity bucket → primary bucket: F2 image adjustment after a forward.
    PIam {
        /// Level of the parity bucket that accepted.
        level: u8,
        /// Its bucket number.
        bucket: u64,
    },
    /// Primary bucket → coordinator.
    OverflowPrimary {
        /// Overflowing bucket.
        bucket: u64,
    },
    /// Parity bucket → coordinator.
    OverflowParity {
        /// Overflowing parity bucket.
        bucket: u64,
    },
    /// Coordinator → pool node: become primary bucket.
    InitPrimary {
        /// Bucket number.
        bucket: u64,
        /// Level.
        level: u8,
    },
    /// Coordinator → pool node: become parity bucket.
    InitParity {
        /// Parity-file bucket number.
        bucket: u64,
        /// Level.
        level: u8,
    },
    /// Coordinator → splitting primary bucket.
    SplitPrimary {
        /// New bucket.
        target: u64,
        /// New level.
        new_level: u8,
    },
    /// Splitting primary → new primary: movers (group keys travel along —
    /// no parity traffic).
    LoadPrimary {
        /// `(key, g, r, payload)` records.
        records: Vec<(u64, u64, u64, Vec<u8>)>,
    },
    /// Coordinator → splitting parity bucket.
    SplitParity {
        /// New parity bucket.
        target: u64,
        /// New level.
        new_level: u8,
    },
    /// Splitting parity → new parity bucket.
    LoadParity {
        /// `(gkey, member keys, parity cell)` records.
        records: Vec<(u64, Vec<u64>, Vec<u8>)>,
    },
    /// Driver → coordinator: reconstruct the record with this key
    /// (algorithm A7; the record's bucket is presumed unavailable, so the
    /// coordinator may not read it directly).
    RecoverRecord {
        /// Key to reconstruct.
        key: u64,
        /// The bucket the driver declared unavailable.
        unavailable: u64,
    },
    /// Coordinator → every parity bucket: find the parity record holding
    /// `key` (deterministic termination: every bucket replies).
    PScan {
        /// Correlation token.
        token: u64,
        /// Key searched.
        key: u64,
    },
    /// Parity bucket → coordinator.
    PScanReply {
        /// Echoed token.
        token: u64,
        /// Replying parity bucket.
        bucket: u64,
        /// Match, if any: `(gkey, member keys, parity cell)`.
        found: Option<(u64, Vec<u64>, Vec<u8>)>,
    },
}

/// Application operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GOp {
    /// Insert.
    Insert(u64, Vec<u8>),
    /// Key search.
    Lookup(u64),
    /// Update in place.
    Update(u64, Vec<u8>),
    /// Delete.
    Delete(u64),
}

/// Bucket-level requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GReq {
    /// Insert.
    Insert(u64, Vec<u8>),
    /// Key search.
    Lookup(u64),
    /// Update.
    Update(u64, Vec<u8>),
    /// Delete.
    Delete(u64),
    /// Recovery-driven key search: return the *cell* (padded) rather than
    /// the payload, and do not count as an application lookup.
    FetchCell(u64),
}

impl GReq {
    fn key(&self) -> u64 {
        match self {
            GReq::Insert(k, _)
            | GReq::Lookup(k)
            | GReq::Update(k, _)
            | GReq::Delete(k)
            | GReq::FetchCell(k) => *k,
        }
    }
}

impl Payload for GMsg {
    fn kind(&self) -> &'static str {
        match self {
            GMsg::Do { .. } => "app-do",
            GMsg::Req { kind, .. } => match kind {
                GReq::Insert(..) => "insert",
                GReq::Lookup(..) => "lookup",
                GReq::Update(..) => "update",
                GReq::Delete(..) => "delete",
                GReq::FetchCell(..) => "fetch-cell",
            },
            GMsg::Reply { .. } => "reply",
            GMsg::PReq { .. } => "parity-delta",
            GMsg::PIam { .. } => "parity-iam",
            GMsg::OverflowPrimary { .. } | GMsg::OverflowParity { .. } => "overflow",
            GMsg::InitPrimary { .. } | GMsg::InitParity { .. } => "init-data",
            GMsg::SplitPrimary { .. } | GMsg::SplitParity { .. } => "split",
            GMsg::LoadPrimary { .. } | GMsg::LoadParity { .. } => "split-load",
            GMsg::RecoverRecord { .. } => "recover-record",
            GMsg::PScan { .. } => "find-record",
            GMsg::PScanReply { .. } => "find-record-reply",
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            GMsg::Do { .. } => 0,
            GMsg::Req { kind, .. } => match kind {
                GReq::Insert(_, p) | GReq::Update(_, p) => 24 + p.len(),
                _ => 24,
            },
            GMsg::Reply { value, .. } => 16 + value.as_ref().map(Vec::len).unwrap_or(0),
            GMsg::PReq { op, .. } => {
                16 + match op {
                    POp::Add(_, c) | POp::Remove(_, c) => 8 + c.len(),
                    POp::Update(c) => c.len(),
                }
            }
            GMsg::PIam { .. } => 12,
            GMsg::OverflowPrimary { .. } | GMsg::OverflowParity { .. } => 12,
            GMsg::InitPrimary { .. } | GMsg::InitParity { .. } => 12,
            GMsg::SplitPrimary { .. } | GMsg::SplitParity { .. } => 16,
            GMsg::LoadPrimary { records } => {
                8 + records
                    .iter()
                    .map(|(_, _, _, p)| 28 + p.len())
                    .sum::<usize>()
            }
            GMsg::LoadParity { records } => {
                8 + records
                    .iter()
                    .map(|(_, ks, c)| 12 + 8 * ks.len() + c.len())
                    .sum::<usize>()
            }
            GMsg::RecoverRecord { .. } => 16,
            GMsg::PScan { .. } => 16,
            GMsg::PScanReply { found, .. } => {
                16 + found
                    .as_ref()
                    .map(|(_, ks, c)| 8 + 8 * ks.len() + c.len())
                    .unwrap_or(0)
            }
        }
    }
}

/// Shared allocation tables for both files.
struct GShared {
    primary: RefCell<Vec<NodeId>>,
    parity: RefCell<Vec<NodeId>>,
    coordinator: RefCell<NodeId>,
    m: usize,
    cell_len: usize,
    capacity: usize,
}

type GHandle = Rc<GShared>;

/// A primary record.
#[derive(Debug, Clone)]
struct GRecord {
    g: u64,
    r: u64,
    payload: Vec<u8>,
}

/// Primary bucket: stores records with their immutable `(g, r)` stamps and
/// acts as an LH\* client of the parity file.
struct GPrimary {
    shared: GHandle,
    bucket: u64,
    level: u8,
    records: HashMap<u64, GRecord>,
    /// The insert counter `r` — never decremented, unaffected by splits.
    counter: u64,
    /// This bucket's image of the parity file (it is an F2 *client*).
    parity_image: ClientImage,
    overflow_reported: bool,
}

impl GPrimary {
    fn new(shared: GHandle, bucket: u64, level: u8) -> Self {
        GPrimary {
            shared,
            bucket,
            level,
            records: HashMap::new(),
            counter: 0,
            parity_image: ClientImage::new(1),
            overflow_reported: false,
        }
    }

    fn send_parity(&mut self, env: &mut Env<'_, GMsg>, gkey: u64, op: POp) {
        let a = self.parity_image.address(gkey);
        let node = self.shared.parity.borrow()[a as usize];
        env.send(
            node,
            GMsg::PReq {
                gkey,
                op,
                origin: env.me(),
                hops: 0,
            },
        );
    }

    fn on_message(&mut self, env: &mut Env<'_, GMsg>, from: NodeId, msg: GMsg) {
        let m = self.shared.m as u64;
        let cell_len = self.shared.cell_len;
        match msg {
            GMsg::Req {
                op_id,
                reply_to,
                hops,
                kind,
            } => {
                match a2_route(self.bucket, self.level, kind.key(), m) {
                    A2Outcome::Forward(next) => {
                        let node = self.shared.primary.borrow()[next as usize];
                        env.send(
                            node,
                            GMsg::Req {
                                op_id,
                                reply_to,
                                hops: hops + 1,
                                kind,
                            },
                        );
                        return;
                    }
                    A2Outcome::Accept => {}
                }
                let iam = (hops > 0).then_some((self.level, self.bucket));
                match kind {
                    GReq::Lookup(key) => {
                        let value = self.records.get(&key).map(|r| r.payload.clone());
                        env.send(reply_to, GMsg::Reply { op_id, value, iam });
                    }
                    GReq::FetchCell(key) => {
                        let value = self.records.get(&key).map(|r| cell(&r.payload, cell_len));
                        env.send(reply_to, GMsg::Reply { op_id, value, iam });
                    }
                    GReq::Insert(key, payload) => {
                        if self.records.contains_key(&key) {
                            env.send(
                                reply_to,
                                GMsg::Reply {
                                    op_id,
                                    value: None,
                                    iam,
                                },
                            );
                            return;
                        }
                        // Insertion-time group binding: g from THIS bucket,
                        // r from its counter — immutable thereafter.
                        let g = self.bucket / m;
                        self.counter += 1;
                        let r = self.counter;
                        let c = cell(&payload, cell_len);
                        self.records.insert(key, GRecord { g, r, payload });
                        self.send_parity(env, pack_gkey(g, r), POp::Add(key, c));
                        if !self.overflow_reported && self.records.len() > self.shared.capacity {
                            self.overflow_reported = true;
                            let coord = *self.shared.coordinator.borrow();
                            env.send(
                                coord,
                                GMsg::OverflowPrimary {
                                    bucket: self.bucket,
                                },
                            );
                        }
                        if iam.is_some() {
                            env.send(
                                reply_to,
                                GMsg::Reply {
                                    op_id,
                                    value: Some(Vec::new()),
                                    iam,
                                },
                            );
                        }
                    }
                    GReq::Update(key, payload) => {
                        let Some(rec) = self.records.get_mut(&key) else {
                            env.send(
                                reply_to,
                                GMsg::Reply {
                                    op_id,
                                    value: None,
                                    iam,
                                },
                            );
                            return;
                        };
                        let mut delta = cell(&rec.payload, cell_len);
                        let newc = cell(&payload, cell_len);
                        xor_into(&newc, &mut delta);
                        rec.payload = payload;
                        let (g, r) = (rec.g, rec.r);
                        self.send_parity(env, pack_gkey(g, r), POp::Update(delta));
                        if iam.is_some() {
                            env.send(
                                reply_to,
                                GMsg::Reply {
                                    op_id,
                                    value: Some(Vec::new()),
                                    iam,
                                },
                            );
                        }
                    }
                    GReq::Delete(key) => {
                        let Some(rec) = self.records.remove(&key) else {
                            env.send(
                                reply_to,
                                GMsg::Reply {
                                    op_id,
                                    value: None,
                                    iam,
                                },
                            );
                            return;
                        };
                        let c = cell(&rec.payload, cell_len);
                        self.send_parity(env, pack_gkey(rec.g, rec.r), POp::Remove(key, c));
                        if iam.is_some() {
                            env.send(
                                reply_to,
                                GMsg::Reply {
                                    op_id,
                                    value: Some(Vec::new()),
                                    iam,
                                },
                            );
                        }
                    }
                }
            }
            GMsg::SplitPrimary { target, new_level } => {
                // THE LH*g HEADLINE: movers keep (g, r); zero parity
                // messages here.
                let moving: Vec<u64> = self
                    .records
                    .iter()
                    .filter(|(k, _)| lhrs_lh::h(new_level, m, **k) == target)
                    .map(|(k, _)| *k)
                    .collect();
                let records: Vec<(u64, u64, u64, Vec<u8>)> = moving
                    .into_iter()
                    .map(|k| {
                        let rec = self.records.remove(&k).expect("listed");
                        (k, rec.g, rec.r, rec.payload)
                    })
                    .collect();
                self.level = new_level;
                self.overflow_reported = false;
                let node = self.shared.primary.borrow()[target as usize];
                env.send(node, GMsg::LoadPrimary { records });
            }
            GMsg::LoadPrimary { records } => {
                // Movers arrive with their original stamps; the counter of
                // the receiving bucket is NOT advanced (its own inserts
                // start a fresh rank space tied to ITS group number).
                for (key, g, r, payload) in records {
                    self.records.insert(key, GRecord { g, r, payload });
                }
            }
            GMsg::PIam { level, bucket } => {
                self.parity_image.adjust(level, bucket);
            }
            GMsg::PScan { .. } | GMsg::PScanReply { .. } => {
                debug_assert!(false, "parity scan reached a primary bucket");
            }
            other => {
                debug_assert!(false, "primary bucket got {other:?}");
            }
        }
        let _ = from;
    }
}

/// One XOR parity record of the parity file.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GParityRecord {
    keys: Vec<u64>,
    cell: Vec<u8>,
}

/// Parity bucket of the separate parity LH\* file.
struct GParity {
    shared: GHandle,
    bucket: u64,
    level: u8,
    records: HashMap<u64, GParityRecord>,
    overflow_reported: bool,
}

impl GParity {
    fn new(shared: GHandle, bucket: u64, level: u8) -> Self {
        GParity {
            shared,
            bucket,
            level,
            records: HashMap::new(),
            overflow_reported: false,
        }
    }

    fn on_message(&mut self, env: &mut Env<'_, GMsg>, from: NodeId, msg: GMsg) {
        match msg {
            GMsg::PReq {
                gkey,
                op,
                origin,
                hops,
            } => {
                match a2_route(self.bucket, self.level, gkey, 1) {
                    A2Outcome::Forward(next) => {
                        let node = self.shared.parity.borrow()[next as usize];
                        env.send(
                            node,
                            GMsg::PReq {
                                gkey,
                                op,
                                origin,
                                hops: hops + 1,
                            },
                        );
                        return;
                    }
                    A2Outcome::Accept => {}
                }
                if hops > 0 {
                    env.send(
                        origin,
                        GMsg::PIam {
                            level: self.level,
                            bucket: self.bucket,
                        },
                    );
                }
                let cell_len = self.shared.cell_len;
                match op {
                    POp::Add(key, c) => {
                        let rec = self.records.entry(gkey).or_insert_with(|| GParityRecord {
                            keys: Vec::new(),
                            cell: vec![0u8; cell_len],
                        });
                        debug_assert!(!rec.keys.contains(&key));
                        rec.keys.push(key);
                        xor_into(&c, &mut rec.cell);
                    }
                    POp::Remove(key, c) => {
                        if let Some(rec) = self.records.get_mut(&gkey) {
                            rec.keys.retain(|k| *k != key);
                            xor_into(&c, &mut rec.cell);
                            if rec.keys.is_empty() {
                                self.records.remove(&gkey);
                            }
                        }
                    }
                    POp::Update(delta) => {
                        if let Some(rec) = self.records.get_mut(&gkey) {
                            xor_into(&delta, &mut rec.cell);
                        }
                    }
                }
                if !self.overflow_reported && self.records.len() > self.shared.capacity {
                    self.overflow_reported = true;
                    let coord = *self.shared.coordinator.borrow();
                    env.send(
                        coord,
                        GMsg::OverflowParity {
                            bucket: self.bucket,
                        },
                    );
                }
            }
            GMsg::SplitParity { target, new_level } => {
                let moving: Vec<u64> = self
                    .records
                    .keys()
                    .copied()
                    .filter(|gk| lhrs_lh::h(new_level, 1, *gk) == target)
                    .collect();
                let records: Vec<(u64, Vec<u64>, Vec<u8>)> = moving
                    .into_iter()
                    .map(|gk| {
                        let rec = self.records.remove(&gk).expect("listed");
                        (gk, rec.keys, rec.cell)
                    })
                    .collect();
                self.level = new_level;
                self.overflow_reported = false;
                let node = self.shared.parity.borrow()[target as usize];
                env.send(node, GMsg::LoadParity { records });
            }
            GMsg::LoadParity { records } => {
                for (gk, keys, cellv) in records {
                    self.records.insert(gk, GParityRecord { keys, cell: cellv });
                }
            }
            GMsg::PScan { token, key } => {
                let found = self
                    .records
                    .iter()
                    .find(|(_, rec)| rec.keys.contains(&key))
                    .map(|(gk, rec)| (*gk, rec.keys.clone(), rec.cell.clone()));
                env.send(
                    from,
                    GMsg::PScanReply {
                        token,
                        bucket: self.bucket,
                        found,
                    },
                );
            }
            other => {
                debug_assert!(false, "parity bucket got {other:?}");
            }
        }
    }
}

/// In-progress A7 record recovery at the coordinator.
struct RecoveryCtx {
    key: u64,
    unavailable: u64,
    /// Parity scan replies received (deterministic termination over the
    /// parity file).
    scan_replies: usize,
    found: Option<(u64, Vec<u64>, Vec<u8>)>,
    /// Outstanding member-cell fetches: op_id → key.
    fetches: HashMap<u64, u64>,
    cells: Vec<Vec<u8>>,
}

/// Coordinator of both files.
struct GCoordinator {
    shared: GHandle,
    primary_state: FileState,
    parity_state: FileState,
    pool: Vec<NodeId>,
    next_token: u64,
    recoveries: HashMap<u64, RecoveryCtx>,
    /// Completed record recoveries: key → payload (None = not in file).
    pub recovered: Vec<(u64, Option<Vec<u8>>)>,
}

impl GCoordinator {
    fn alloc(&mut self) -> NodeId {
        self.pool.pop().expect("LH*g pool exhausted")
    }

    fn on_message(&mut self, env: &mut Env<'_, GMsg>, from: NodeId, msg: GMsg) {
        match msg {
            GMsg::OverflowPrimary { .. } => {
                let plan = self.primary_state.split();
                let node = self.alloc();
                env.send(
                    node,
                    GMsg::InitPrimary {
                        bucket: plan.target,
                        level: plan.new_level,
                    },
                );
                let mut primary = self.shared.primary.borrow_mut();
                debug_assert_eq!(primary.len() as u64, plan.target);
                primary.push(node);
                let source = primary[plan.source as usize];
                drop(primary);
                env.send(
                    source,
                    GMsg::SplitPrimary {
                        target: plan.target,
                        new_level: plan.new_level,
                    },
                );
            }
            GMsg::OverflowParity { .. } => {
                let plan = self.parity_state.split();
                let node = self.alloc();
                env.send(
                    node,
                    GMsg::InitParity {
                        bucket: plan.target,
                        level: plan.new_level,
                    },
                );
                let mut parity = self.shared.parity.borrow_mut();
                debug_assert_eq!(parity.len() as u64, plan.target);
                parity.push(node);
                let source = parity[plan.source as usize];
                drop(parity);
                env.send(
                    source,
                    GMsg::SplitParity {
                        target: plan.target,
                        new_level: plan.new_level,
                    },
                );
            }
            GMsg::RecoverRecord { key, unavailable } => {
                // A7 step 1: scan F2 for the parity record holding `key`.
                let token = self.next_token;
                self.next_token += 1;
                let nodes: Vec<NodeId> = self.shared.parity.borrow().clone();
                for n in &nodes {
                    env.send(*n, GMsg::PScan { token, key });
                }
                self.recoveries.insert(
                    token,
                    RecoveryCtx {
                        key,
                        unavailable,
                        scan_replies: 0,
                        found: None,
                        fetches: HashMap::new(),
                        cells: Vec::new(),
                    },
                );
            }
            GMsg::PScanReply { token, found, .. } => {
                let done = {
                    let Some(ctx) = self.recoveries.get_mut(&token) else {
                        return;
                    };
                    ctx.scan_replies += 1;
                    if found.is_some() {
                        ctx.found = found;
                    }
                    ctx.scan_replies == self.shared.parity.borrow().len()
                };
                if done {
                    self.start_member_fetches(env, token);
                }
            }
            GMsg::Reply { op_id, value, .. } => {
                // A member-cell fetch for some recovery.
                let Some(token) = self
                    .recoveries
                    .iter()
                    .find(|(_, c)| c.fetches.contains_key(&op_id))
                    .map(|(t, _)| *t)
                else {
                    return;
                };
                let finished = {
                    let ctx = self.recoveries.get_mut(&token).expect("found");
                    ctx.fetches.remove(&op_id);
                    ctx.cells
                        .push(value.expect("member record must exist for recovery"));
                    ctx.fetches.is_empty()
                };
                if finished {
                    self.finish_recovery(token);
                }
            }
            other => {
                debug_assert!(false, "LH*g coordinator got {other:?}");
            }
        }
        let _ = from;
    }

    /// A7 steps 3–4: fetch every *other* member's cell by key search, then
    /// XOR with the parity cell.
    fn start_member_fetches(&mut self, env: &mut Env<'_, GMsg>, token: u64) {
        let me = env.me();
        let (others, key) = {
            let ctx = self.recoveries.get_mut(&token).expect("present");
            let Some((_, keys, _)) = &ctx.found else {
                // A7 step 2: no parity record ⇒ the key never existed.
                let key = ctx.key;
                self.recoveries.remove(&token);
                self.recovered.push((key, None));
                return;
            };
            (
                keys.iter()
                    .copied()
                    .filter(|k| *k != ctx.key)
                    .collect::<Vec<u64>>(),
                ctx.key,
            )
        };
        let _ = key;
        if others.is_empty() {
            // Sole member: the parity cell IS the record (step 3).
            self.finish_recovery(token);
            return;
        }
        let primary = self.shared.primary.borrow().clone();
        let mut fetches = HashMap::new();
        for member in others {
            let op_id = self.next_token;
            self.next_token += 1;
            // The coordinator knows the true state: address directly.
            let b = self.primary_state.address(member);
            debug_assert_ne!(
                b, self.recoveries[&token].unavailable,
                "two group members in one bucket would break 1-availability"
            );
            env.send(
                primary[b as usize],
                GMsg::Req {
                    op_id,
                    reply_to: me,
                    hops: 0,
                    kind: GReq::FetchCell(member),
                },
            );
            fetches.insert(op_id, member);
        }
        self.recoveries.get_mut(&token).expect("present").fetches = fetches;
    }

    fn finish_recovery(&mut self, token: u64) {
        let ctx = self.recoveries.remove(&token).expect("present");
        let (_, _, pcell) = ctx.found.expect("members imply a parity record");
        let mut acc = pcell;
        for c in &ctx.cells {
            xor_into(c, &mut acc);
        }
        self.recovered.push((ctx.key, uncell(&acc)));
    }
}

/// Client of the primary file.
struct GClient {
    shared: GHandle,
    image: ClientImage,
    pending: HashMap<u64, bool /* expects value */>,
    results: Vec<(u64, Option<Vec<u8>>)>,
}

impl GClient {
    fn on_message(&mut self, env: &mut Env<'_, GMsg>, _from: NodeId, msg: GMsg) {
        match msg {
            GMsg::Do { op_id, op } => {
                let kind = match op {
                    GOp::Insert(k, p) => GReq::Insert(k, p),
                    GOp::Lookup(k) => GReq::Lookup(k),
                    GOp::Update(k, p) => GReq::Update(k, p),
                    GOp::Delete(k) => GReq::Delete(k),
                };
                let expects_value = matches!(kind, GReq::Lookup(_));
                let a = self.image.address(kind.key());
                let node = self.shared.primary.borrow()[a as usize];
                self.pending.insert(op_id, expects_value);
                env.send(
                    node,
                    GMsg::Req {
                        op_id,
                        reply_to: env.me(),
                        hops: 0,
                        kind,
                    },
                );
            }
            GMsg::Reply { op_id, value, iam } => {
                if let Some((level, bucket)) = iam {
                    self.image.adjust(level, bucket);
                }
                if self.pending.remove(&op_id).is_some() {
                    self.results.push((op_id, value));
                }
            }
            other => {
                debug_assert!(false, "LH*g client got {other:?}");
            }
        }
    }

    fn settle_writes(&mut self) {
        // Fire-and-forget writes: anything still pending is a completed
        // write (errors would have been replied).
        let ids: Vec<u64> = self.pending.keys().copied().collect();
        for id in ids {
            self.pending.remove(&id);
            self.results.push((id, Some(Vec::new())));
        }
    }
}

/// Node roles.
enum GNode {
    Blank {
        shared: GHandle,
        pending: Vec<(NodeId, GMsg)>,
    },
    Primary(GPrimary),
    Parity(GParity),
    Client(GClient),
    Coordinator(Box<GCoordinator>),
}

impl Actor<GMsg> for GNode {
    fn on_message(&mut self, env: &mut Env<'_, GMsg>, from: NodeId, msg: GMsg) {
        match self {
            GNode::Blank { shared, pending } => {
                let built = match msg {
                    GMsg::InitPrimary { bucket, level } => {
                        Some(GNode::Primary(GPrimary::new(shared.clone(), bucket, level)))
                    }
                    GMsg::InitParity { bucket, level } => {
                        Some(GNode::Parity(GParity::new(shared.clone(), bucket, level)))
                    }
                    other => {
                        pending.push((from, other));
                        None
                    }
                };
                if let Some(mut node) = built {
                    let replay = std::mem::take(pending);
                    for (f, m) in replay {
                        node.on_message(env, f, m);
                    }
                    *self = node;
                }
            }
            GNode::Primary(p) => p.on_message(env, from, msg),
            GNode::Parity(p) => p.on_message(env, from, msg),
            GNode::Client(c) => c.on_message(env, from, msg),
            GNode::Coordinator(c) => c.on_message(env, from, msg),
        }
    }

    fn on_timer(&mut self, _env: &mut Env<'_, GMsg>, _timer: TimerId) {}
}

/// Driver for the insertion-bound LH\*g baseline.
pub struct GroupedLh {
    sim: Sim<GMsg, GNode>,
    shared: GHandle,
    client: NodeId,
    coordinator: NodeId,
    next_op: u64,
}

impl GroupedLh {
    /// Create a file with group size `m` (the primary file starts with `m`
    /// buckets, as in the paper), bucket capacity `b`, and `record_len`-byte
    /// max payloads.
    pub fn new(
        m: usize,
        capacity: usize,
        record_len: usize,
        node_pool: usize,
        latency: LatencyModel,
    ) -> Self {
        assert!(m >= 2, "LH*g needs group size > 1");
        let shared: GHandle = Rc::new(GShared {
            primary: RefCell::new(Vec::new()),
            parity: RefCell::new(Vec::new()),
            coordinator: RefCell::new(lhrs_sim::EXTERNAL),
            m,
            cell_len: record_len + 4,
            capacity,
        });
        let mut sim: Sim<GMsg, GNode> = Sim::new(latency);
        let ids: Vec<NodeId> = (0..node_pool)
            .map(|_| {
                sim.add_node(GNode::Blank {
                    shared: shared.clone(),
                    pending: Vec::new(),
                })
            })
            .collect();
        let coordinator = ids[0];
        let client = ids[1];
        *shared.coordinator.borrow_mut() = coordinator;
        // Primary file starts with m buckets (N = m); parity with 1.
        for (i, id) in ids[2..2 + m].iter().enumerate() {
            sim.replace(
                *id,
                GNode::Primary(GPrimary::new(shared.clone(), i as u64, 0)),
            );
            shared.primary.borrow_mut().push(*id);
        }
        let parity0 = ids[2 + m];
        sim.replace(parity0, GNode::Parity(GParity::new(shared.clone(), 0, 0)));
        shared.parity.borrow_mut().push(parity0);
        let pool: Vec<NodeId> = ids[3 + m..].iter().rev().copied().collect();
        sim.replace(
            coordinator,
            GNode::Coordinator(Box::new(GCoordinator {
                shared: shared.clone(),
                primary_state: FileState::new(m as u64),
                parity_state: FileState::new(1),
                pool,
                next_token: 1,
                recoveries: HashMap::new(),
                recovered: Vec::new(),
            })),
        );
        sim.replace(
            client,
            GNode::Client(GClient {
                shared: shared.clone(),
                image: ClientImage::new(m as u64),
                pending: HashMap::new(),
                results: Vec::new(),
            }),
        );
        GroupedLh {
            sim,
            shared,
            client,
            coordinator,
            next_op: 1,
        }
    }

    fn exec(&mut self, op: GOp) -> Option<Vec<u8>> {
        let op_id = self.next_op;
        self.next_op += 1;
        self.sim.send_external(self.client, GMsg::Do { op_id, op });
        self.sim.run_until_idle();
        let client = match self.sim.actor_mut(self.client) {
            GNode::Client(c) => c,
            _ => unreachable!(),
        };
        client.settle_writes();
        let results = std::mem::take(&mut client.results);
        results
            .into_iter()
            .find(|(id, _)| *id == op_id)
            .expect("op completed")
            .1
    }

    /// Insert a record.
    pub fn insert(&mut self, key: u64, payload: Vec<u8>) {
        assert!(payload.len() + 4 <= self.shared.cell_len);
        self.exec(GOp::Insert(key, payload));
    }

    /// Key search.
    pub fn lookup(&mut self, key: u64) -> Option<Vec<u8>> {
        self.exec(GOp::Lookup(key))
    }

    /// Update a record (no-op if absent, as un-acked writes are blind).
    pub fn update(&mut self, key: u64, payload: Vec<u8>) {
        self.exec(GOp::Update(key, payload));
    }

    /// Delete a record.
    pub fn delete(&mut self, key: u64) {
        self.exec(GOp::Delete(key));
    }

    /// Algorithm A7: reconstruct the record with `key` *without touching
    /// its bucket* (declared unavailable), from the parity file and the
    /// other group members. Returns the payload or `None` for a key that
    /// never existed.
    pub fn recover_record(&mut self, key: u64) -> Option<Vec<u8>> {
        let unavailable = self.coordinator_state().address(key);
        self.sim
            .send_external(self.coordinator, GMsg::RecoverRecord { key, unavailable });
        self.sim.run_until_idle();
        let coord = match self.sim.actor_mut(self.coordinator) {
            GNode::Coordinator(c) => c,
            _ => unreachable!(),
        };
        let pos = coord
            .recovered
            .iter()
            .position(|(k, _)| *k == key)
            .expect("recovery completed");
        coord.recovered.remove(pos).1
    }

    /// The true primary-file state.
    fn coordinator_state(&self) -> FileState {
        match self.sim.actor(self.coordinator) {
            GNode::Coordinator(c) => c.primary_state,
            _ => unreachable!(),
        }
    }

    /// Primary buckets `M`.
    pub fn primary_buckets(&self) -> u64 {
        self.coordinator_state().bucket_count()
    }

    /// Parity-file buckets.
    pub fn parity_buckets(&self) -> u64 {
        self.shared.parity.borrow().len() as u64
    }

    /// Every counter so far: messages by kind, bytes, fault outcomes.
    pub fn stats(&self) -> Snapshot {
        self.sim.metrics().snapshot()
    }

    /// Deep invariant: for every record group, the XOR of the member cells
    /// equals the parity cell, the key lists match exactly, and no group
    /// has two members in one bucket (Proposition 1).
    pub fn verify_integrity(&self) -> Result<(), String> {
        use std::collections::HashSet;
        let cell_len = self.shared.cell_len;
        // Gather all primary records by group key.
        type Members = Vec<(u64, u64, Vec<u8>)>; // (key, bucket, payload)
        let mut groups: HashMap<(u64, u64), Members> = HashMap::new();
        for (b, node) in self.shared.primary.borrow().iter().enumerate() {
            let bucket = match self.sim.actor(*node) {
                GNode::Primary(p) => p,
                _ => return Err(format!("primary slot {b} holds a non-primary node")),
            };
            for (key, rec) in &bucket.records {
                groups.entry((rec.g, rec.r)).or_default().push((
                    *key,
                    b as u64,
                    rec.payload.clone(),
                ));
            }
        }
        // Proposition 1 and parity consistency.
        let mut all_parity: HashMap<u64, GParityRecord> = HashMap::new();
        for node in self.shared.parity.borrow().iter() {
            let pb = match self.sim.actor(*node) {
                GNode::Parity(p) => p,
                _ => return Err("parity slot holds a non-parity node".into()),
            };
            for (gk, rec) in &pb.records {
                all_parity.insert(*gk, rec.clone());
            }
        }
        for ((g, r), members) in &groups {
            if members.len() > self.shared.m {
                return Err(format!("group ({g},{r}) has {} members", members.len()));
            }
            let buckets: HashSet<u64> = members.iter().map(|(_, b, _)| *b).collect();
            if buckets.len() != members.len() {
                return Err(format!(
                    "group ({g},{r}) has two members in one bucket — Proposition 1 violated"
                ));
            }
            let gk = pack_gkey(*g, *r);
            let Some(prec) = all_parity.get(&gk) else {
                return Err(format!("group ({g},{r}) has no parity record"));
            };
            let mut expect = vec![0u8; cell_len];
            for (_, _, payload) in members {
                xor_into(&cell(payload, cell_len), &mut expect);
            }
            if prec.cell != expect {
                return Err(format!("group ({g},{r}): parity cell mismatch"));
            }
            let mut pk: Vec<u64> = prec.keys.clone();
            pk.sort_unstable();
            let mut mk: Vec<u64> = members.iter().map(|(k, _, _)| *k).collect();
            mk.sort_unstable();
            if pk != mk {
                return Err(format!("group ({g},{r}): key lists differ"));
            }
        }
        // No ghost parity records.
        for gk in all_parity.keys() {
            if !groups.iter().any(|((g, r), _)| pack_gkey(*g, *r) == *gk) {
                return Err(format!("ghost parity record for packed gkey {gk}"));
            }
        }
        Ok(())
    }
}

impl crate::Scheme for GroupedLh {
    fn name(&self) -> &'static str {
        "LH*g (ins-bound)"
    }

    fn insert(&mut self, key: u64, payload: Vec<u8>) {
        GroupedLh::insert(self, key, payload);
    }

    fn lookup(&mut self, key: u64) -> Option<Vec<u8>> {
        GroupedLh::lookup(self, key)
    }

    fn stats(&self) -> Snapshot {
        GroupedLh::stats(self)
    }

    fn data_buckets(&self) -> u64 {
        self.primary_buckets()
    }

    fn total_servers(&self) -> u64 {
        self.primary_buckets() + self.parity_buckets()
    }

    fn storage_bytes(&self) -> (u64, u64) {
        let mut primary = 0u64;
        for node in self.shared.primary.borrow().iter() {
            if let GNode::Primary(p) = self.sim.actor(*node) {
                primary += p
                    .records
                    .values()
                    .map(|r| r.payload.len() as u64)
                    .sum::<u64>();
            }
        }
        let mut redundant = 0u64;
        for node in self.shared.parity.borrow().iter() {
            if let GNode::Parity(p) = self.sim.actor(*node) {
                redundant += p.records.values().map(|r| r.cell.len() as u64).sum::<u64>();
            }
        }
        (primary, redundant)
    }

    fn availability(&self, p: f64) -> f64 {
        // Record groups never co-locate two members (Proposition 1), so any
        // single bucket loss is recoverable; the k = 1 group formula is the
        // closest closed form (members scatter, making exact analysis
        // workload-dependent — see the module docs).
        lhrs_core::availability::file_availability(
            self.primary_buckets() + self.parity_buckets(),
            self.shared.m,
            1,
            p,
        )
    }

    fn tolerates(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GroupedLh {
        GroupedLh::new(3, 8, 32, 1024, LatencyModel::instant())
    }

    fn payload(key: u64) -> Vec<u8> {
        format!("g{key}").into_bytes()
    }

    #[test]
    fn crud_roundtrip_with_parity_integrity() {
        let mut f = small();
        for key in 0..400u64 {
            f.insert(lhrs_lh::scramble(key), payload(key));
        }
        assert!(f.primary_buckets() > 20);
        assert!(f.parity_buckets() > 1, "parity file must have split too");
        f.verify_integrity().unwrap();
        for key in 0..400u64 {
            assert_eq!(f.lookup(lhrs_lh::scramble(key)).unwrap(), payload(key));
        }
        for key in (0..400u64).step_by(3) {
            f.update(lhrs_lh::scramble(key), format!("u{key}").into_bytes());
        }
        for key in (0..400u64).step_by(5) {
            f.delete(lhrs_lh::scramble(key));
        }
        f.verify_integrity().unwrap();
        assert_eq!(f.lookup(lhrs_lh::scramble(3)).unwrap(), b"u3");
        assert_eq!(f.lookup(lhrs_lh::scramble(5)), None);
    }

    #[test]
    fn splits_send_zero_parity_messages() {
        // Load until several splits happened, then compare: every
        // parity-delta message corresponds to an insert/update/delete,
        // never to a split (the LH*g headline property).
        let mut f = small();
        let n = 600u64;
        for key in 0..n {
            f.insert(lhrs_lh::scramble(key), payload(key));
        }
        let stats = f.stats();
        assert!(stats.count("split") > 10, "file must have split");
        // One parity delta per insert, plus only A2 forwards inside F2 —
        // none added by splits. Every forwarded chain is ≤ 2 hops and ends
        // with exactly one IAM, so: n ≤ deltas ≤ n + 2·IAMs.
        let deltas = stats.count("parity-delta");
        let iams = stats.count("parity-iam");
        assert!(deltas >= n, "every insert commits parity");
        assert!(
            deltas <= n + 2 * iams,
            "splits leaked parity traffic: {deltas} deltas for {n} inserts ({iams} F2 IAMs)"
        );
        f.verify_integrity().unwrap();
    }

    #[test]
    fn record_recovery_without_touching_the_bucket() {
        let mut f = small();
        for key in 0..300u64 {
            f.insert(lhrs_lh::scramble(key), payload(key));
        }
        // Recover several records purely from parity + other members.
        for key in [0u64, 17, 123, 299] {
            let got = f.recover_record(lhrs_lh::scramble(key));
            assert_eq!(got.unwrap(), payload(key), "key {key}");
        }
        // A key that never existed: unsuccessful-search semantics.
        assert_eq!(f.recover_record(42_424_242), None);
    }

    #[test]
    fn proposition_1_holds_across_heavy_splitting() {
        let mut f = GroupedLh::new(4, 4, 24, 2048, LatencyModel::instant());
        for key in 0..1500u64 {
            f.insert(lhrs_lh::scramble(key), vec![(key % 250) as u8; 12]);
        }
        // verify_integrity checks Proposition 1 (≤ m members, all in
        // distinct buckets) for every group.
        f.verify_integrity().unwrap();
    }

    #[test]
    fn duplicate_inserts_are_rejected_silently() {
        let mut f = small();
        f.insert(7, b"a".to_vec());
        f.insert(7, b"b".to_vec());
        assert_eq!(f.lookup(7).unwrap(), b"a");
        f.verify_integrity().unwrap();
    }
}
