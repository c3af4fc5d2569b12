//! The coordinator: file state, split sequencing, scalable availability,
//! failure detection, degraded-mode record recovery, and multi-bucket group
//! recovery by erasure decoding.
//!
//! One coordinator per file, assumed available (the papers' standing
//! assumption; coordinator replication is orthogonal and out of scope).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use lhrs_gf::Gf8;
use lhrs_lh::FileState;
use lhrs_obs::Event as ObsEvent;
use lhrs_rs::RsCode;
use lhrs_sim::{Env, NodeId, Payload};

use crate::exchange::{Exchanges, Owner, Schedule};
use crate::msg::{Msg, OpId, OpResult, ReqKind, ShardContent};
use crate::record::decode_cell;
use crate::registry::SharedHandle;
use crate::{Config, Key, Rank, UpgradeMode};

/// The protocol state of one exchange (DESIGN.md §2.4 lists, per kind, the
/// request, the period, what a round re-sends, and the give-up outcome).
pub(crate) enum Kind {
    /// Group audit, opened by a client's `Suspect`, by a restart
    /// fallback or another row's give-up, or by `CheckGroup`. A shard is
    /// only declared dead after `coord_retries` unanswered re-probes — one
    /// lost probe (or ack) must not trigger a spurious recovery.
    Check(GroupCheck),
    /// Shard collection, then install, for one group.
    Recovery(Recovery),
    /// Degraded-mode record read.
    Degraded(Degraded),
    /// An ordered split awaiting `SplitDone`, with everything needed to
    /// re-issue the orders if they (or the confirmation) were lost.
    Split {
        source: u64,
        target: u64,
        new_level: u8,
        /// Δ-stream resume point passed in the target's InitData.
        seq0: u64,
        /// InitParity orders for a group this split created, re-sent
        /// alongside (they carry no ack of their own).
        init_parity: Vec<(NodeId, Msg)>,
    },
    /// An ordered merge awaiting `MergeDone`.
    Merge {
        source: u64,
        target: u64,
        new_level: u8,
    },
    /// File-state recovery scan.
    StateRec {
        expected: usize,
        /// Replies keyed by bucket — a duplicated `StateReply` must not
        /// count twice toward completion.
        replies: BTreeMap<u64, u8>,
    },
    /// Δ-suffix catch-up handshake for one restarted data bucket.
    Suffix(Suffix),
}

impl Schedule for Kind {
    /// Retransmission period: liveness questions (audits, suffix pulls)
    /// are timed by `probe_timeout_us`, everything else by
    /// `coord_retransmit_us`.
    fn period(&self, cfg: &Config, _: u32) -> u64 {
        match self {
            Kind::Check(_) | Kind::Suffix(_) => cfg.probe_timeout_us,
            _ => cfg.coord_retransmit_us,
        }
    }

    /// A lost message (or lost reply) only costs latency: every exchange
    /// re-sends for `coord_retries` rounds before it concludes.
    fn limit(&self, cfg: &Config) -> u32 {
        cfg.coord_retries
    }
}

/// Outstanding group audit: probing every shard of a group.
pub(crate) struct GroupCheck {
    group: u64,
    /// shard index → node probed.
    probed: Vec<(usize, NodeId)>,
    responded: HashSet<usize>,
}

/// Why shards are being collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// Rebuild failed shards onto spares.
    Repair,
    /// Extend the group's parity to a higher `k`.
    Upgrade,
}

/// Outstanding shard collection for one group.
pub(crate) struct Recovery {
    group: u64,
    purpose: Purpose,
    /// Group availability level used for the code (target level for
    /// upgrades).
    k: usize,
    /// Shard indices being rebuilt.
    rebuild: Vec<usize>,
    /// Shard indices we are waiting to receive.
    awaiting: BTreeSet<usize>,
    collected: HashMap<usize, ShardContent>,
    /// Install acks outstanding: token → (shard index, spare, the `Install`
    /// kept verbatim for retransmission).
    installs: HashMap<u64, (usize, NodeId, Msg)>,
}

/// Degraded-mode record read in progress.
pub(crate) struct Degraded {
    group: u64,
    op_id: OpId,
    client: NodeId,
    key: Key,
    stage: DegradedStage,
}

enum DegradedStage {
    AwaitFind {
        /// The parity bucket asked (for retransmission).
        pnode: NodeId,
    },
    AwaitCells {
        target_col: usize,
        rank: Rank,
        /// Shards asked for cells (for retransmission).
        requested: Vec<(usize, NodeId)>,
        cells: HashMap<usize, Vec<u8>>,
        need: usize,
    },
}

/// Outstanding Δ-suffix catch-up handshake for one restarted data bucket.
pub(crate) struct Suffix {
    group: u64,
    col: usize,
    bucket: u64,
    /// The restarting node: `SuffixPull` target, `OwnershipAck` (or
    /// `Retire`) recipient.
    node: NodeId,
    /// The Δ-stream position the bucket replayed from its local store.
    from_seq: u64,
    /// Parity answers so far, keyed by the answering parity node.
    infos: HashMap<NodeId, SuffixReply>,
    /// Answers needed (the group's parity count when the pull went out).
    expected: usize,
}

/// One parity bucket's answer to a `SuffixPull`.
#[derive(Clone, Copy)]
struct SuffixReply {
    next_seq: u64,
    covered: bool,
    bytes: u64,
}

/// The LH\*RS coordinator actor.
pub struct Coordinator {
    shared: SharedHandle,
    /// The authoritative file state `(n, i)`.
    pub state: FileState,
    /// Current file-wide availability level.
    pub k_file: usize,
    /// Per-group availability level (index = group).
    pub group_k: Vec<usize>,
    /// Hot spares, handed out from the back.
    pub(crate) pool: Vec<NodeId>,
    thresholds_crossed: usize,
    /// Confirmed-failed shards: (group, shard index).
    failed: HashSet<(u64, usize)>,
    /// Groups declared unrecoverable.
    pub dead_groups: HashSet<u64>,
    next_token: u64,
    /// Every exchange in flight, keyed by its token: the coordinator's
    /// whole in-flight state.
    exchanges: Exchanges<Kind>,
    /// group → ops parked until the group heals.
    queued_ops: HashMap<u64, Vec<(OpId, NodeId, ReqKind)>>,
    /// Overflow reports waiting for the coordinator to go idle, one split
    /// owed per report (the paper's split policy). Runaway growth under
    /// slow networks is bounded by the pool guard in `do_split`, not here.
    deferred_splits: u64,
    upgrade_queue: VecDeque<u64>,
    /// Final Δ sequence of merged-away buckets, keyed by bucket number: a
    /// regrow split re-creating the bucket resumes its column's stream here
    /// (parity channels are never reset).
    col_floors: HashMap<u64, u64>,
    /// Groups lagging behind `k_file` (lazy mode).
    lagging: HashSet<u64>,
}

impl Coordinator {
    /// Build the coordinator for a freshly created file. The registry must
    /// already map bucket 0 and group 0's parity; `pool` is the free node
    /// list.
    pub fn new(shared: SharedHandle, pool: Vec<NodeId>) -> Self {
        let k = shared.cfg.initial_k;
        Coordinator {
            shared,
            state: FileState::new(1),
            k_file: k,
            group_k: vec![k],
            pool,
            thresholds_crossed: 0,
            failed: HashSet::new(),
            dead_groups: HashSet::new(),
            next_token: 1,
            exchanges: Exchanges::new(),
            queued_ops: HashMap::new(),
            deferred_splits: 0,
            upgrade_queue: VecDeque::new(),
            col_floors: HashMap::new(),
            lagging: HashSet::new(),
        }
    }

    /// Whether structural work is in flight: any exchange but a
    /// file-state scan. Splits, upgrades and merges wait for it.
    fn structural_work(&self) -> bool {
        self.exchanges.any(|k| !matches!(k, Kind::StateRec { .. }))
    }

    /// Whether structural work is in flight or queued.
    fn busy(&self) -> bool {
        self.structural_work() || !self.upgrade_queue.is_empty() || self.deferred_splits > 0
    }

    fn m(&self) -> usize {
        self.shared.cfg.group_size
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Pop a spare node. Callers check `pool.len()` up front and reserve
    /// enough nodes for the whole operation, so `None` here means the
    /// reservation arithmetic is wrong — an invariant violation the caller
    /// surfaces as an [`ObsEvent::InvariantViolated`] instead of aborting.
    fn alloc_node(&mut self) -> Option<NodeId> {
        self.pool.pop()
    }

    /// Record an invariant violation as a degraded-mode event. The
    /// coordinator drops the operation that tripped it and keeps serving;
    /// the trace is the audit trail.
    fn invariant_violated(&mut self, env: &mut Env<'_, Msg>, context: &str) {
        env.obs().incr("invariant_violations");
        env.trace(ObsEvent::InvariantViolated {
            context: context.to_string(),
        });
    }

    /// Existing data buckets of `group` (the file may not have grown the
    /// whole group yet).
    fn existing_cols(&self, group: u64) -> usize {
        let m = self.m() as u64;
        let total = self.state.bucket_count();
        let start = group * m;
        crate::convert::to_index(total.saturating_sub(start).min(m))
    }

    /// Main message handler.
    pub fn on_message(&mut self, env: &mut Env<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::ReportOverflow { .. } => {
                if self.busy() {
                    self.deferred_splits += 1;
                } else {
                    self.do_split(env);
                }
            }
            Msg::SplitDone { bucket } => {
                // Only a split we are actually waiting for completes; a
                // duplicated confirmation finds nothing.
                let token = self
                    .exchanges
                    .find(|k| matches!(k, Kind::Split { target, .. } if *target == bucket));
                if let Some(Kind::Split { source, target, .. }) =
                    token.and_then(|t| self.exchanges.settle(env, t))
                {
                    env.obs().incr("splits_completed");
                    env.trace(ObsEvent::SplitEnd {
                        bucket: source,
                        new_bucket: target,
                    });
                    self.drain_queues(env);
                }
            }
            Msg::ForceMerge => self.do_merge(env),
            Msg::MergeDone { final_seq, .. } => self.finish_merge(env, final_seq),
            Msg::Suspect {
                op_id,
                client,
                bucket: _,
                kind,
            } => self.handle_suspect(env, op_id, client, kind),
            Msg::ProbeAck { token, .. } => self.handle_probe_ack(env, token, from),
            Msg::CheckGroup { group } => {
                if group < self.group_k.len() as u64 && !self.checking(group) {
                    self.start_group_check(env, group);
                }
            }
            Msg::ShardData {
                token,
                shard,
                content,
            } => self.handle_shard_data(env, token, shard, content),
            Msg::InstallAck { token } => self.handle_install_ack(env, token),
            Msg::FindRecordReply { token, found } => self.handle_find_reply(env, token, found),
            Msg::CellData { token, shard, cell } => self.handle_cell_data(env, token, shard, cell),
            Msg::RecoverFileState => {
                if self.exchanges.any(|k| matches!(k, Kind::StateRec { .. })) {
                    return; // duplicated trigger: scan already running
                }
                let nodes = self.shared.registry.borrow().all_data_nodes();
                let token = self.token();
                let kind = Kind::StateRec {
                    expected: nodes.len(),
                    replies: BTreeMap::new(),
                };
                // Armed before the queries go out, as a merge is; every
                // other kind sends its first round first (`start`).
                self.exchanges.open(env, &self.shared.cfg, token, kind);
                for n in nodes {
                    env.send(n, Msg::StateQuery);
                }
            }
            Msg::StateReply { bucket, level } => {
                let scan = self.exchanges.find_mut(|k| matches!(k, Kind::StateRec { .. }));
                let Some((token, Kind::StateRec { expected, replies })) = scan else {
                    return;
                };
                replies.insert(bucket, level);
                if replies.len() != *expected {
                    return;
                }
                let Some(Kind::StateRec { replies, .. }) = self.exchanges.settle(env, token) else {
                    return;
                };
                let pairs: Vec<(u64, u8)> = replies.into_iter().collect();
                let (n, i) = recompute_state(&pairs);
                match FileState::from_parts(n, i, 1) {
                    Some(state) => {
                        self.state = state;
                        env.trace(ObsEvent::StateRecovered { n, i });
                    }
                    None => {
                        // The survivors' reports recompose into an
                        // impossible (n, i); keep the current state and
                        // leave an audit trail rather than install it.
                        self.invariant_violated(env, "recovered file state inconsistent");
                    }
                }
            }
            Msg::CheckOwnership { bucket, parity } => {
                let (still_owner, loc) = match (bucket, parity) {
                    (Some(b), None) => (
                        self.owns(b, from),
                        (
                            b / self.m() as u64,
                            crate::convert::to_index(b % self.m() as u64),
                        ),
                    ),
                    (None, Some((g, q))) => {
                        let reg = self.shared.registry.borrow();
                        (reg.parity_nodes(g).get(q) == Some(&from), (g, self.m() + q))
                    }
                    _ => {
                        debug_assert!(false, "malformed ownership claim");
                        return;
                    }
                };
                if still_owner {
                    // §2.5.4: restarted with correct data and never
                    // replaced — resume. Clear any failure suspicion.
                    self.failed.remove(&loc);
                    env.send(from, Msg::OwnershipAck);
                } else {
                    // The bucket was recreated elsewhere: the comeback node
                    // is demoted to a hot spare.
                    self.demote(env, from);
                }
            }
            Msg::RestartReport { bucket, delta_seq } => {
                self.handle_restart_report(env, from, bucket, delta_seq)
            }
            Msg::SuffixInfo {
                bucket,
                col: _,
                next_seq,
                covered,
                count: _,
                bytes,
            } => self.handle_suffix_info(env, from, bucket, next_seq, covered, bytes),
            Msg::RestartAbort { bucket } => self.handle_restart_abort(env, from, bucket),
            Msg::ParityAck { .. } => {}
            other => {
                debug_assert!(false, "coordinator got {:?}", other);
            }
        }
    }

    // ----- exchanges -----

    /// Whether a group check is auditing `group`.
    fn checking(&self, group: u64) -> bool {
        self.exchanges.any(|k| matches!(k, Kind::Check(c) if c.group == group))
    }

    /// Whether a shard collection (repair or upgrade) is running on `group`.
    fn recovering(&self, group: u64) -> bool {
        self.exchanges.any(|k| matches!(k, Kind::Recovery(r) if r.group == group))
    }

    /// Park an op on a group, unless it is parked already (a duplicated
    /// `Suspect` can offer the same op twice).
    fn queue_op(&mut self, group: u64, op_id: OpId, client: NodeId, kind: ReqKind) {
        let queued = self.queued_ops.entry(group).or_default();
        if !queued.iter().any(|(o, c, _)| *o == op_id && *c == client) {
            queued.push((op_id, client, kind));
        }
    }

    // ----- splits and availability scaling -----

    fn do_split(&mut self, env: &mut Env<'_, Msg>) {
        let m = self.m() as u64;

        // Out of spare nodes: drop the split rather than panic. The
        // overflowing bucket keeps serving (just over capacity) and will
        // re-report as it grows, so the split retries once nodes free up.
        // Checked before `state.split()` commits the address-space change;
        // the next bucket number is always the current count, so the
        // new-group test is exact.
        let next_target = self.state.bucket_count();
        let needed = 1 + if self.group_k.len() as u64 <= next_target / m {
            self.k_file
        } else {
            0
        };
        if self.pool.len() < needed {
            return;
        }

        let plan = self.state.split();
        let target_group = plan.target / m;

        // Provision parity for a group touched for the first time. The
        // InitParity orders are remembered on the split exchange so a lost
        // one is re-sent with the split orders (Blank nodes buffer traffic
        // until initialised, so a late init is harmless).
        let mut init_parity: Vec<(NodeId, Msg)> = Vec::new();
        if self.group_k.len() as u64 <= target_group {
            debug_assert_eq!(self.group_k.len() as u64, target_group);
            let k = self.k_file;
            let mut nodes = Vec::with_capacity(k);
            for q in 0..k {
                let Some(n) = self.alloc_node() else {
                    self.invariant_violated(
                        env,
                        "node pool ran dry mid-split despite the up-front reservation check",
                    );
                    return;
                };
                let msg = Msg::InitParity {
                    group: target_group,
                    index: q,
                    k,
                };
                init_parity.push((n, msg));
                nodes.push(n);
            }
            if !self
                .shared
                .registry
                .borrow_mut()
                .set_parity(target_group, nodes)
            {
                self.invariant_violated(env, "allocation table refused a new group's parity");
                return;
            }
            self.group_k.push(k);
        }

        // Lazy upgrades: a touched lagging group catches up now.
        let source_group = plan.source / m;
        if self.shared.cfg.upgrade_mode == UpgradeMode::Lazy {
            for g in [source_group, target_group] {
                if self.lagging.remove(&g) {
                    self.upgrade_queue.push_back(g);
                }
            }
        }

        // Create the new bucket and order the split.
        let seq0 = self.col_floors.remove(&plan.target).unwrap_or(0);
        let Some(target_node) = self.alloc_node() else {
            self.invariant_violated(
                env,
                "node pool ran dry mid-split despite the up-front reservation check",
            );
            return;
        };
        if !self
            .shared
            .registry
            .borrow_mut()
            .push_data(plan.target, target_node)
        {
            self.invariant_violated(
                env,
                "split target is not the allocation table's next bucket",
            );
            return;
        }
        let token = self.token();
        self.start(
            env,
            token,
            Kind::Split {
                source: plan.source,
                target: plan.target,
                new_level: plan.new_level,
                seq0,
                init_parity,
            },
        );
        env.obs().incr("splits_started");
        env.trace(ObsEvent::SplitStart {
            bucket: plan.source,
            new_bucket: plan.target,
            buckets: self.state.bucket_count(),
        });

        // Scalable availability: raise k when M crosses the next threshold.
        let m_now = self.state.bucket_count();
        while self
            .shared
            .cfg
            .scale_thresholds
            .get(self.thresholds_crossed)
            .is_some_and(|&t| m_now > t)
        {
            self.thresholds_crossed += 1;
            self.k_file += 1;
            env.trace(ObsEvent::KRaised {
                k: self.k_file as u64,
            });
            let k_file = self.k_file;
            let behind: Vec<u64> = self
                .group_k
                .iter()
                .enumerate()
                .filter(|(_, &k)| k < k_file)
                .map(|(g, _)| g as u64)
                .collect();
            match self.shared.cfg.upgrade_mode {
                UpgradeMode::Eager => {
                    for g in behind {
                        if !self.upgrade_queue.contains(&g) {
                            self.upgrade_queue.push_back(g);
                        }
                    }
                }
                UpgradeMode::Lazy => self.lagging.extend(behind),
            }
        }
    }

    /// Undo the last split: order the last bucket to fold back into its
    /// split source. Ignored while other structural work is in flight or
    /// at the initial size.
    fn do_merge(&mut self, env: &mut Env<'_, Msg>) {
        if self.busy() || self.state.bucket_count() <= 1 {
            return;
        }
        let Some(plan) = self.state.merge() else {
            return;
        };
        // plan.target is the disappearing bucket, plan.source absorbs;
        // both end at level new_level - 1.
        let (source, target, new_level) = (plan.source, plan.target, plan.new_level - 1);
        let target_node = self.shared.registry.borrow().data_node(target);
        let token = self.token();
        // Armed before the order goes out (see `RecoverFileState`).
        self.exchanges.open(
            env,
            &self.shared.cfg,
            token,
            Kind::Merge {
                source,
                target,
                new_level,
            },
        );
        env.send(
            target_node,
            Msg::DoMerge {
                source,
                target,
                new_level,
            },
        );
    }

    /// The absorbing bucket confirmed: retire the ex-bucket's node (and the
    /// last group's parity nodes if the group emptied) back into the pool.
    fn finish_merge(&mut self, env: &mut Env<'_, Msg>, final_seq: u64) {
        let token = self.exchanges.find(|k| matches!(k, Kind::Merge { .. }));
        let Some(Kind::Merge { source, target, .. }) =
            token.and_then(|t| self.exchanges.settle(env, t))
        else {
            return;
        };
        self.col_floors.insert(target, final_seq);
        let m = self.m() as u64;
        let mut reg = self.shared.registry.borrow_mut();
        let Some(ex_node) = reg.pop_data() else {
            drop(reg);
            self.invariant_violated(env, "merge confirmed against an empty allocation table");
            return;
        };
        env.send(ex_node, Msg::Retire);
        self.pool.push(ex_node);
        // If the removed bucket was the sole member of the last group, the
        // group's (now record-free) parity buckets are decommissioned too.
        if target % m == 0 {
            debug_assert_eq!(self.group_k.len() as u64, target / m + 1);
            for pn in reg.pop_parity_group() {
                env.send(pn, Msg::Retire);
                self.pool.push(pn);
            }
            self.group_k.pop();
            self.lagging.remove(&(target / m));
            // The group's parity state is gone with its buckets: any Δ
            // floors recorded for this group's columns die with it (a
            // regrow gets fresh parity channels starting at 0).
            for b in target..target + m {
                self.col_floors.remove(&b);
            }
        }
        drop(reg);
        env.trace(ObsEvent::MergeDone {
            bucket: source,
            removed: target,
            buckets: self.state.bucket_count(),
        });
        self.drain_queues(env);
    }

    /// Run queued structural work once none is in flight: the next upgrade,
    /// else the next deferred split. Queued work that starts nothing — an
    /// upgrade whose group is gone or caught up, a split the pool cannot
    /// fund — is dropped and the next item tried, so a dry pool cannot
    /// leave `busy()` set with nothing in flight.
    fn drain_queues(&mut self, env: &mut Env<'_, Msg>) {
        while !self.structural_work() {
            if let Some(group) = self.upgrade_queue.pop_front() {
                self.start_upgrade(env, group);
            } else if self.deferred_splits > 0 {
                self.deferred_splits -= 1;
                self.do_split(env);
            } else {
                return;
            }
        }
    }

    fn start_upgrade(&mut self, env: &mut Env<'_, Msg>, group: u64) {
        // A queued upgrade can outlive its group (merged away).
        let Some(&k_old) = self.group_k.get(crate::convert::to_index(group)) else {
            return;
        };
        let k_new = self.k_file;
        if k_old >= k_new {
            return;
        }
        let token = self.token();
        let existing = self.existing_cols(group);
        let recovery = Recovery {
            group,
            purpose: Purpose::Upgrade,
            k: k_new,
            rebuild: (self.m() + k_old..self.m() + k_new).collect(),
            awaiting: (0..existing).collect(),
            collected: HashMap::new(),
            installs: HashMap::new(),
        };
        self.start(env, token, Kind::Recovery(recovery));
        // A group with no existing columns (cannot happen: groups are
        // created by splits into them) would stall; guard anyway.
        if existing == 0 {
            self.finish_collection(env, token);
        }
    }

    // ----- failure detection -----

    fn handle_suspect(
        &mut self,
        env: &mut Env<'_, Msg>,
        op_id: OpId,
        client: NodeId,
        kind: ReqKind,
    ) {
        let group = self.state.address(kind.key()) / self.m() as u64;
        if self.dead_groups.contains(&group) {
            env.send(
                client,
                Msg::Reply {
                    op_id,
                    result: OpResult::Failed("group unrecoverable".into()),
                    iam: None,
                },
            );
            return;
        }
        // Park the op on its group's verdict: a false alarm replays it to
        // the live bucket, a failure serves it degraded or after the
        // rebuild. A check or repair already running covers the group.
        self.queue_op(group, op_id, client, kind);
        if !self.checking(group) && !self.recovering(group) {
            self.start_group_check(env, group);
        }
    }

    /// A group check's probe: the responding shard is identified by its
    /// node id. A check whose every probed shard responded finishes early
    /// (healthy groups pay no timeout).
    fn handle_probe_ack(&mut self, env: &mut Env<'_, Msg>, token: u64, from: NodeId) {
        let Some(Kind::Check(check)) = self.exchanges.get_mut(token) else {
            return;
        };
        if let Some((shard, _)) = check.probed.iter().find(|(_, n)| *n == from) {
            check.responded.insert(*shard);
        }
        if check.responded.len() == check.probed.len() {
            if let Some(Kind::Check(check)) = self.exchanges.settle(env, token) {
                self.finish_group_check(env, check);
            }
        }
    }

    fn start_group_check(&mut self, env: &mut Env<'_, Msg>, group: u64) {
        let token = self.token();
        let m = self.m() as u64;
        let existing = self.existing_cols(group);
        let reg = self.shared.registry.borrow();
        let mut probed = Vec::new();
        for c in 0..existing {
            probed.push((c, reg.data_node(group * m + c as u64)));
        }
        for (q, n) in reg.parity_nodes(group).iter().enumerate() {
            probed.push((self.m() + q, *n));
        }
        drop(reg);
        let check = GroupCheck {
            group,
            probed,
            responded: HashSet::new(),
        };
        self.start(env, token, Kind::Check(check));
    }

    fn finish_group_check(&mut self, env: &mut Env<'_, Msg>, check: GroupCheck) {
        let group = check.group;
        let failed: Vec<usize> = check
            .probed
            .iter()
            .map(|(s, _)| *s)
            .filter(|s| !check.responded.contains(s))
            .collect();
        if failed.is_empty() {
            // False alarm: replay queued ops to their (live) buckets.
            self.replay_queued(env, group);
            self.drain_queues(env);
            return;
        }
        let Some(&k_g) = self.group_k.get(crate::convert::to_index(group)) else {
            // The group vanished (merged away) between probe and reply.
            self.invariant_violated(
                env,
                "group check finished for a group with no parity record",
            );
            self.drain_queues(env);
            return;
        };
        env.trace(ObsEvent::FailureDetected {
            group,
            shards: failed.iter().map(|&s| s as u64).collect(),
        });
        if failed.len() > k_g {
            self.dead_groups.insert(group);
            env.obs().incr("recoveries_failed");
            env.trace(ObsEvent::RecoveryEnd {
                group,
                rebuilt: 0,
                ok: false,
            });
            self.fail_queued(env, group, "group unrecoverable");
            self.drain_queues(env);
            return;
        }
        for &s in &failed {
            self.failed.insert((group, s));
        }

        // Serve queued *lookups* right now in degraded mode; writes wait
        // for the rebuilt bucket.
        let queued = self.queued_ops.entry(group).or_default();
        let mut keep = Vec::new();
        let mut degraded_lookups = Vec::new();
        for (op_id, client, kind) in queued.drain(..) {
            match kind {
                ReqKind::Lookup(key) => degraded_lookups.push((op_id, client, key)),
                other => keep.push((op_id, client, other)),
            }
        }
        *queued = keep;
        for (op_id, client, key) in degraded_lookups {
            self.start_degraded_read(env, group, op_id, client, key);
        }

        // Kick off the rebuild: collect all surviving data columns plus as
        // many parity shards as there are failed data columns.
        env.obs().incr("recoveries_started");
        env.trace(ObsEvent::RecoveryStart {
            group,
            failed: failed.len() as u64,
        });
        let token = self.token();
        let m = self.m();
        let existing = self.existing_cols(group);
        let failed_data: Vec<usize> = failed.iter().copied().filter(|&s| s < m).collect();
        let mut awaiting: BTreeSet<usize> = (0..existing).filter(|c| !failed.contains(c)).collect();
        let mut parity_needed = failed_data.len();
        for q in 0..self.shared.registry.borrow().group_k(group) {
            if parity_needed == 0 {
                break;
            }
            if !failed.contains(&(m + q)) {
                awaiting.insert(m + q);
                parity_needed -= 1;
            }
        }
        debug_assert_eq!(parity_needed, 0, "tolerance check guarantees survivors");
        // Degenerate case: nothing to await (e.g. group of one existing
        // failed column rebuilt purely from parity... then parity was
        // awaited; truly empty only if no survivors needed).
        let nothing_to_await = awaiting.is_empty();
        let recovery = Recovery {
            group,
            purpose: Purpose::Repair,
            k: k_g,
            rebuild: failed,
            awaiting,
            collected: HashMap::new(),
            installs: HashMap::new(),
        };
        self.start(env, token, Kind::Recovery(recovery));
        if nothing_to_await {
            self.finish_collection(env, token);
        }
    }

    fn replay_queued(&mut self, env: &mut Env<'_, Msg>, group: u64) {
        let reg = self.shared.registry.borrow();
        for (op_id, client, kind) in self.queued_ops.remove(&group).unwrap_or_default() {
            let bucket = self.state.address(kind.key());
            env.send(
                reg.data_node(bucket),
                Msg::Req {
                    op_id,
                    client,
                    intended: bucket,
                    hops: 1,
                    kind,
                },
            );
        }
    }

    /// Fail every op parked on `group` back to its client.
    fn fail_queued(&mut self, env: &mut Env<'_, Msg>, group: u64, why: &str) {
        for (op_id, client, _) in self.queued_ops.remove(&group).unwrap_or_default() {
            env.send(
                client,
                Msg::Reply {
                    op_id,
                    result: OpResult::Failed(why.into()),
                    iam: None,
                },
            );
        }
    }

    // ----- restart (Δ-suffix) recovery -----

    /// A data bucket replayed its local store and asks to resume its column
    /// at `delta_seq`. Cheap path: confirm every parity channel for that
    /// column stands at one common watermark `R ≥ delta_seq` and have the
    /// parity buckets ship the missed Δ-suffix `[delta_seq, R)`. Anything
    /// murkier — displaced bucket, busy or dead group, divergent parity
    /// watermarks, truncated history — falls back to the full RS rebuild;
    /// correctness never depends on the suffix path.
    fn handle_restart_report(
        &mut self,
        env: &mut Env<'_, Msg>,
        from: NodeId,
        bucket: u64,
        delta_seq: u64,
    ) {
        let m = self.m() as u64;
        let group = bucket / m;
        let col = crate::convert::to_index(bucket % m);
        if !self.owns(bucket, from) {
            // Recreated elsewhere meanwhile: demote to a hot spare — the
            // same path as a plain CheckOwnership miss.
            self.demote(env, from);
            return;
        }
        let parity: Vec<NodeId> = self.shared.registry.borrow().parity_nodes(group).to_vec();
        if self
            .exchanges
            .any(|k| matches!(k, Kind::Suffix(s) if s.bucket == bucket))
        {
            return; // duplicated report: handshake already running
        }
        let group_busy = self.dead_groups.contains(&group)
            || self.checking(group)
            || self.recovering(group)
            || self
                .exchanges
                .any(|k| matches!(k, Kind::Degraded(d) if d.group == group));
        if group_busy {
            // Racing the failure machinery would certify a resume point the
            // rebuild is about to invalidate.
            self.restart_fallback(env, bucket, group, col, from);
            return;
        }
        if parity.is_empty() {
            // k = 0: no parity stream to reconcile with — the local log is
            // the only copy and it is authoritative.
            self.failed.remove(&(group, col));
            env.send(from, Msg::OwnershipAck);
            env.obs().incr("restart_recoveries");
            env.trace(ObsEvent::BucketRestarted {
                bucket,
                suffix_len: 0,
            });
            return;
        }
        let token = self.token();
        let suffix = Suffix {
            group,
            col,
            bucket,
            node: from,
            from_seq: delta_seq,
            infos: HashMap::new(),
            expected: parity.len(),
        };
        self.start(env, token, Kind::Suffix(suffix));
    }

    /// One parity bucket answered a `SuffixPull`. Once all `k` are in, the
    /// resume point is certified iff every parity channel reports the same
    /// watermark `R`, the bucket is at or behind it, and (when behind) at
    /// least one parity bucket's history covered the gap.
    fn handle_suffix_info(
        &mut self,
        env: &mut Env<'_, Msg>,
        from: NodeId,
        bucket: u64,
        next_seq: u64,
        covered: bool,
        bytes: u64,
    ) {
        let pull = self.exchanges.find_mut(|k| matches!(k, Kind::Suffix(s) if s.bucket == bucket));
        let Some((token, Kind::Suffix(s))) = pull else {
            return; // stale answer for a settled handshake
        };
        let reply = SuffixReply {
            next_seq,
            covered,
            bytes,
        };
        s.infos.insert(from, reply);
        if s.infos.len() < s.expected {
            return;
        }
        let Some(Kind::Suffix(s)) = self.exchanges.settle(env, token) else {
            return;
        };
        let mut seqs = s.infos.values().map(|r| r.next_seq);
        let r0 = seqs.next().unwrap_or(s.from_seq);
        let all_equal = seqs.all(|seq| seq == r0);
        let any_covered = s.infos.values().any(|r| r.covered);
        let ok = all_equal && s.from_seq <= r0 && (s.from_seq == r0 || any_covered);
        if !ok {
            self.restart_fallback(env, s.bucket, s.group, s.col, s.node);
            return;
        }
        self.failed.remove(&(s.group, s.col));
        env.send(s.node, Msg::OwnershipAck);
        let moved: u64 = s.infos.values().map(|r| r.bytes).sum();
        env.obs().incr("restart_recoveries");
        env.obs().add("recovery_bytes_moved", moved);
        env.trace(ObsEvent::BucketRestarted {
            bucket: s.bucket,
            suffix_len: r0 - s.from_seq,
        });
        self.drain_queues(env);
    }

    /// The restarted bucket itself gave up on the Δ-suffix catch-up: it
    /// could not apply a shipped suffix entry, or its watchdog expired with
    /// the handshake wedged. Same outcome as a coordinator-side give-up —
    /// cancel any handshake still in flight and demote the node into the
    /// full RS rebuild. An abort can also arrive *after* certification
    /// (the undecodable suffix raced the `OwnershipAck`); the bucket
    /// ignores that ack, so the fallback here is still the only path back
    /// to a serving replica.
    fn handle_restart_abort(&mut self, env: &mut Env<'_, Msg>, from: NodeId, bucket: u64) {
        let pred = |k: &Kind| matches!(k, Kind::Suffix(s) if s.bucket == bucket && s.node == from);
        if let Some(token) = self.exchanges.find(pred) {
            self.exchanges.settle(env, token);
        }
        let m = self.m() as u64;
        let group = bucket / m;
        let col = crate::convert::to_index(bucket % m);
        if self.owns(bucket, from) {
            self.restart_fallback(env, bucket, group, col, from);
        } else {
            // Displaced meanwhile: the bucket already lives elsewhere; just
            // demote the reporter.
            self.demote(env, from);
        }
    }

    /// Whether data bucket `bucket` exists and `node` carries it.
    fn owns(&self, bucket: u64, node: NodeId) -> bool {
        let reg = self.shared.registry.borrow();
        crate::convert::to_index(bucket) < reg.data_count() && reg.data_node(bucket) == node
    }

    /// Retire `node` into the hot-spare pool. A duplicated claim must not
    /// pool the same node twice (it would be allocated to two roles at
    /// once).
    fn demote(&mut self, env: &mut Env<'_, Msg>, node: NodeId) {
        env.send(node, Msg::Retire);
        if !self.pool.contains(&node) {
            self.pool.push(node);
        }
    }

    /// Give up on the Δ-suffix path for `bucket`: demote the restarted node
    /// to a hot spare and let the standard audit → RS-rebuild machinery
    /// recreate the bucket from the group's survivors. The handshake held
    /// queued structural work back, so the queues are drained after.
    fn restart_fallback(
        &mut self,
        env: &mut Env<'_, Msg>,
        bucket: u64,
        group: u64,
        col: usize,
        node: NodeId,
    ) {
        env.obs().incr("restart_fallbacks");
        env.trace(ObsEvent::RestartFallback { bucket });
        self.demote(env, node);
        self.failed.insert((group, col));
        let audit_clear =
            !self.checking(group) && !self.dead_groups.contains(&group) && !self.recovering(group);
        if audit_clear {
            self.start_group_check(env, group);
        }
        self.drain_queues(env);
    }

    // ----- degraded-mode record recovery -----

    fn start_degraded_read(
        &mut self,
        env: &mut Env<'_, Msg>,
        group: u64,
        op_id: OpId,
        client: NodeId,
        key: Key,
    ) {
        // Ask a surviving parity bucket which rank holds the key.
        let m = self.m();
        let reg = self.shared.registry.borrow();
        let alive_parity = reg
            .parity_nodes(group)
            .iter()
            .enumerate()
            .find(|(q, _)| !self.failed.contains(&(group, m + q)));
        let Some((_, &pnode)) = alive_parity else {
            drop(reg);
            env.send(
                client,
                Msg::Reply {
                    op_id,
                    result: OpResult::Failed("no surviving parity bucket".into()),
                    iam: None,
                },
            );
            return;
        };
        drop(reg);
        env.obs().incr("degraded_reads");
        env.trace(ObsEvent::DegradedRead { group });
        let token = self.token();
        let read = Degraded {
            group,
            op_id,
            client,
            key,
            stage: DegradedStage::AwaitFind { pnode },
        };
        self.start(env, token, Kind::Degraded(read));
    }

    fn handle_find_reply(
        &mut self,
        env: &mut Env<'_, Msg>,
        token: u64,
        found: Option<(Rank, Vec<Option<Key>>)>,
    ) {
        // A duplicated reply for a read already in the cell stage must not
        // restart it.
        let (group, key) = match self.exchanges.get(token) {
            Some(Kind::Degraded(d)) if matches!(d.stage, DegradedStage::AwaitFind { .. }) => {
                (d.group, d.key)
            }
            _ => return,
        };
        let Some((rank, keys)) = found else {
            // The key never existed: unsuccessful-search semantics.
            if let Some(Kind::Degraded(d)) = self.exchanges.settle(env, token) {
                self.answer_degraded(env, &d, OpResult::Value(None));
            }
            return;
        };
        let m = self.m();
        // The parity bucket claimed it found the key, so the key list it
        // returned must contain it. A reply that violates that (a buggy or
        // byzantine parity node — this arrives off the wire) fails the one
        // lookup instead of aborting the coordinator.
        let Some(target_col) = keys.iter().position(|k| *k == Some(key)) else {
            if let Some(Kind::Degraded(d)) = self.exchanges.settle(env, token) {
                self.invariant_violated(
                    env,
                    "FindRecordReply's key list does not contain the key it claims to have found",
                );
                let result = OpResult::Failed("inconsistent parity reply".into());
                self.answer_degraded(env, &d, result);
            }
            return;
        };
        // Gather m shards: existing live data columns first, then parity.
        let existing = self.existing_cols(group);
        let mut cells: HashMap<usize, Vec<u8>> = HashMap::new();
        // Non-existing columns are known-zero locally.
        for c in existing..m {
            cells.insert(c, vec![0u8; self.shared.cfg.cell_len()]);
        }
        let mut requested: Vec<(usize, NodeId)> = Vec::new();
        let reg = self.shared.registry.borrow();
        let mut remaining = m.saturating_sub(cells.len());
        for c in 0..existing {
            if remaining == 0 {
                break;
            }
            if !self.failed.contains(&(group, c)) {
                let node = reg.data_node(group * m as u64 + c as u64);
                env.send(node, Msg::ReadCell { rank, token });
                requested.push((c, node));
                remaining -= 1;
            }
        }
        for (q, node) in reg.parity_nodes(group).iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if !self.failed.contains(&(group, m + q)) {
                env.send(*node, Msg::ReadCell { rank, token });
                requested.push((m + q, *node));
                remaining -= 1;
            }
        }
        drop(reg);
        debug_assert_eq!(remaining, 0, "tolerance guarantees m live shards");
        let need = cells.len() + requested.len();
        debug_assert_eq!(need, m);
        if let Some(Kind::Degraded(d)) = self.exchanges.get_mut(token) {
            d.stage = DegradedStage::AwaitCells {
                target_col,
                rank,
                requested,
                cells,
                need,
            };
        }
    }

    fn handle_cell_data(
        &mut self,
        env: &mut Env<'_, Msg>,
        token: u64,
        shard: usize,
        cell: Vec<u8>,
    ) {
        let Some(Kind::Degraded(d)) = self.exchanges.get_mut(token) else {
            return;
        };
        let DegradedStage::AwaitCells { cells, need, .. } = &mut d.stage else {
            return;
        };
        cells.insert(shard, cell);
        if cells.len() < *need {
            return;
        }
        let Some(Kind::Degraded(d)) = self.exchanges.settle(env, token) else {
            return;
        };
        let DegradedStage::AwaitCells {
            target_col, cells, ..
        } = &d.stage
        else {
            return;
        };
        // group_k and m were validated when the group was created; a
        // mismatch here degrades the one lookup, not the actor.
        let k_g = self
            .group_k
            .get(crate::convert::to_index(d.group))
            .copied()
            .unwrap_or(0);
        let result = match RsCode::<Gf8>::new(self.m(), k_g) {
            Ok(code) => {
                let avail: Vec<(usize, &[u8])> =
                    cells.iter().map(|(s, c)| (*s, c.as_slice())).collect();
                match code.reconstruct_one(*target_col, &avail) {
                    Ok(cell) => match decode_cell(&cell) {
                        Some(payload) => OpResult::Value(Some(payload)),
                        None => OpResult::Failed("corrupt cell after decode".into()),
                    },
                    Err(e) => OpResult::Failed(format!("decode failed: {e}")),
                }
            }
            Err(e) => OpResult::Failed(format!("code construction failed: {e}")),
        };
        self.answer_degraded(env, &d, result);
    }

    /// A degraded read is over, however it ended: answer its client and
    /// let queued structural work run.
    fn answer_degraded(&mut self, env: &mut Env<'_, Msg>, d: &Degraded, result: OpResult) {
        env.send(
            d.client,
            Msg::Reply {
                op_id: d.op_id,
                result,
                iam: None,
            },
        );
        self.drain_queues(env);
    }

    // ----- shard collection, decode, install -----

    fn handle_shard_data(
        &mut self,
        env: &mut Env<'_, Msg>,
        token: u64,
        shard: usize,
        content: ShardContent,
    ) {
        let m = self.m();
        let Some(Kind::Recovery(r)) = self.exchanges.get_mut(token) else {
            return;
        };
        // Each (token, shard) settles once: a late or duplicated reply —
        // after the collection completed, too — is dropped, or it would
        // decode again and install onto a second set of spares.
        if !r.awaiting.remove(&shard) {
            return;
        }
        r.collected.insert(shard, content);
        if !r.awaiting.is_empty() {
            return;
        }
        // The rebuild XORs shards cell-by-cell, so every collected shard
        // must sit on the same Δ-prefix. Survivors freeze on
        // `TransferShard`, but a write racing the first round (or a Δ still
        // in flight to a parity bucket) can tear the cut — detect it and
        // re-collect rather than rebuild garbage. The re-request rides
        // outside the retransmission schedule and its give-up budget.
        if torn_cut(m, &r.collected).is_some() {
            env.obs().incr("recovery_torn_cuts");
            r.awaiting = r.collected.keys().copied().collect();
            r.collected.clear();
            if let Some(kind) = self.exchanges.get(token) {
                for (node, msg) in self.requests(token, kind) {
                    env.send(node, msg);
                }
            }
            return;
        }
        self.finish_collection(env, token);
    }

    /// The shard collection for `group` is over, however it ended: tell
    /// the surviving data columns to serve writes again. Columns being
    /// rebuilt are skipped (their nodes are gone); a bucket that never
    /// froze treats the message as a no-op, and a lost message is covered
    /// by the bucket's own freeze row.
    fn resume_group_writes(&self, env: &mut Env<'_, Msg>, group: u64, rebuild: &[usize]) {
        let m = self.m();
        let reg = self.shared.registry.borrow();
        let mut targets = Vec::new();
        for col in 0..m {
            if rebuild.contains(&col) {
                continue;
            }
            if let Some(node) = reg.try_data_node(group * m as u64 + col as u64) {
                targets.push(node);
            }
        }
        drop(reg);
        for node in targets {
            env.send(node, Msg::ResumeWrites { group });
        }
    }

    /// Collection `token` is complete: decode the rebuilt shards and send
    /// each to a spare. The exchange stays open until every install is
    /// acknowledged.
    fn finish_collection(&mut self, env: &mut Env<'_, Msg>, token: u64) {
        let Some(Kind::Recovery(r)) = self.exchanges.get(token) else {
            return;
        };
        let (group, k) = (r.group, r.k);
        // A consistent cut is in hand: the survivors may serve writes again
        // whatever happens below (the rebuild works on the snapshot, and
        // the dead bucket's ops stay parked here until the install).
        self.resume_group_writes(env, group, &r.rebuild);
        let m = self.m();
        let cell_len = self.shared.cfg.cell_len();
        let existing = self.existing_cols(group);
        // The (m, k) pair was validated at file creation and every upgrade;
        // if decode still fails the collected shards are inconsistent.
        // Either way: record it, abandon the rebuild (the shards stay
        // marked failed, so the next suspect re-audits), and fail the
        // parked writes back to their clients.
        let rebuilt = RsCode::<Gf8>::new(m, k)
            .map_err(|e| e.to_string())
            .and_then(|code| {
                rebuild_shards(m, k, cell_len, existing, &r.collected, &r.rebuild, &code)
            });
        let rebuilt = match rebuilt {
            Ok(rebuilt) => rebuilt,
            Err(why) => {
                self.exchanges.settle(env, token);
                self.invariant_violated(env, &format!("group rebuild failed: {why}"));
                self.fail_queued(env, group, "group rebuild failed");
                self.drain_queues(env);
                return;
            }
        };

        // Out of spare nodes: abandon this rebuild instead of panicking
        // the coordinator. The shards stay marked failed, so the next
        // suspect re-audits the group and retries once nodes free up (a
        // merge, say); queued lookups were already served degraded, and
        // parked writes fail back to their clients.
        if self.pool.len() < rebuilt.len() {
            self.exchanges.settle(env, token);
            env.obs().incr("recoveries_stalled");
            env.trace(ObsEvent::RecoveryStalled {
                group,
                needed: rebuilt.len() as u64,
            });
            self.fail_queued(env, group, "no spare nodes to rebuild onto");
            return;
        }

        // Install each rebuilt shard on a spare node.
        let mut installs = Vec::new();
        for (shard, content) in rebuilt {
            let Some(spare) = self.alloc_node() else {
                // Reserved above (`pool.len() >= rebuilt.len()`); the
                // retransmit timer retries whatever this round missed.
                self.invariant_violated(env, "node pool ran dry mid-install despite reservation");
                break;
            };
            let install_token = self.token();
            let (bucket, index) = if shard < m {
                (Some(group * m as u64 + shard as u64), None)
            } else {
                (None, Some(shard - m))
            };
            // Data buckets need their level restored; the coordinator
            // computes it from the file state. Only a data shard (shard < m,
            // i.e. `bucket` is Some) carries a level to restore.
            let content = match (content, bucket) {
                (
                    ShardContent::Data {
                        next_rank,
                        delta_seq,
                        records,
                        ..
                    },
                    Some(b),
                ) => ShardContent::Data {
                    level: self.state.level_of(b),
                    next_rank,
                    delta_seq,
                    records,
                },
                (p, _) => p,
            };
            let msg = Msg::Install {
                group,
                bucket,
                index,
                k,
                content,
                token: install_token,
            };
            env.send(spare, msg.clone());
            installs.push((install_token, (shard, spare, msg)));
        }
        if let Some(Kind::Recovery(r)) = self.exchanges.get_mut(token) {
            r.installs.extend(installs);
        }
    }

    fn handle_install_ack(&mut self, env: &mut Env<'_, Msg>, install_token: u64) {
        let m = self.m();
        let ours =
            |k: &Kind| matches!(k, Kind::Recovery(r) if r.installs.contains_key(&install_token));
        let Some((token, Kind::Recovery(r))) = self.exchanges.find_mut(ours) else {
            return;
        };
        let Some((shard, spare, msg)) = r.installs.remove(&install_token) else {
            return;
        };
        let group = r.group;
        if r.purpose == Purpose::Repair {
            let bytes = msg.size_bytes() as u64;
            env.obs().incr("recovery_shards_rebuilt");
            env.obs().add("recovery_bytes_moved", bytes);
            env.trace(ObsEvent::RecoveryShard {
                group,
                shard: shard as u64,
                bytes,
            });
        }
        let done = r.installs.is_empty();
        let mut reg = self.shared.registry.borrow_mut();
        let (displaced, placed) = if shard < m {
            let bucket = group * m as u64 + shard as u64;
            (reg.try_data_node(bucket), reg.move_data(bucket, spare))
        } else if shard - m < reg.group_k(group) {
            let displaced = reg.parity_nodes(group).get(shard - m).copied();
            (displaced, reg.move_parity(group, shard - m, spare))
        } else {
            // Upgrade: append the new parity column.
            let mut nodes = reg.parity_nodes(group).to_vec();
            debug_assert_eq!(nodes.len(), shard - m);
            nodes.push(spare);
            (None, reg.set_parity(group, nodes))
        };
        drop(reg);
        if !placed {
            self.invariant_violated(env, "installed shard has no slot in the allocation table");
        }
        // Fence the replaced node: if it was only partitioned (not dead) it
        // must not keep serving the shard. The Retire is best-effort — the
        // parity sender check (deltas accepted only from the registered
        // bucket node) backs it up while the Retire is in flight.
        if let Some(old) = displaced {
            env.send(old, Msg::Retire);
        }
        if !done {
            return;
        }
        let Some(Kind::Recovery(r)) = self.exchanges.settle(env, token) else {
            return;
        };
        match r.purpose {
            Purpose::Repair => {
                for &s in &r.rebuild {
                    self.failed.remove(&(r.group, s));
                }
                env.obs().incr("recoveries_completed");
                env.trace(ObsEvent::RecoveryEnd {
                    group: r.group,
                    rebuilt: r.rebuild.len() as u64,
                    ok: true,
                });
                self.replay_queued(env, r.group);
            }
            Purpose::Upgrade => {
                env.obs().incr("group_upgrades");
                if let Some(slot) = self.group_k.get_mut(crate::convert::to_index(r.group)) {
                    *slot = r.k;
                }
                env.trace(ObsEvent::GroupUpgraded {
                    group: r.group,
                    k: r.k as u64,
                });
            }
        }
        self.drain_queues(env);
    }
}

impl Coordinator {
    /// What exchange `token` is still waiting on, as the messages that ask
    /// for it again. Every request is idempotent at its receiver (a split
    /// source re-ships its cached `SplitLoad`, an installed spare re-acks).
    fn requests(&self, token: u64, kind: &Kind) -> Vec<(NodeId, Msg)> {
        let m = self.m();
        let reg = self.shared.registry.borrow();
        match kind {
            Kind::Check(c) => c
                .probed
                .iter()
                .filter(|(s, _)| !c.responded.contains(s))
                .map(|(_, n)| (*n, Msg::Probe { token }))
                .collect(),
            Kind::Recovery(r) => {
                // `TransferShard` to the shards not yet collected, then the
                // pending `Install`s verbatim.
                let mut sends: Vec<(NodeId, Msg)> = r
                    .awaiting
                    .iter()
                    .filter_map(|&shard| {
                        if shard < m {
                            Some(reg.data_node(r.group * m as u64 + shard as u64))
                        } else {
                            // A shard index beyond the parity set means the
                            // group shrank under us; skip it — the give-up
                            // path re-audits.
                            reg.parity_nodes(r.group).get(shard - m).copied()
                        }
                    })
                    .map(|node| (node, Msg::TransferShard { token }))
                    .collect();
                sends.extend(
                    r.installs
                        .values()
                        .map(|(_, spare, msg)| (*spare, msg.clone())),
                );
                sends
            }
            Kind::Degraded(d) => match &d.stage {
                DegradedStage::AwaitFind { pnode } => {
                    vec![(*pnode, Msg::FindRecord { key: d.key, token })]
                }
                DegradedStage::AwaitCells {
                    rank,
                    requested,
                    cells,
                    ..
                } => requested
                    .iter()
                    .filter(|(shard, _)| !cells.contains_key(shard))
                    .map(|(_, node)| (*node, Msg::ReadCell { rank: *rank, token }))
                    .collect(),
            },
            Kind::Split {
                source,
                target,
                new_level,
                seq0,
                init_parity,
            } => {
                let mut sends = init_parity.clone();
                sends.push((
                    reg.data_node(*target),
                    Msg::InitData {
                        bucket: *target,
                        level: *new_level,
                        delta_seq: *seq0,
                    },
                ));
                sends.push((
                    reg.data_node(*source),
                    Msg::DoSplit {
                        source: *source,
                        target: *target,
                        new_level: *new_level,
                    },
                ));
                sends
            }
            Kind::Merge {
                source,
                target,
                new_level,
            } => vec![(
                reg.data_node(*target),
                Msg::DoMerge {
                    source: *source,
                    target: *target,
                    new_level: *new_level,
                },
            )],
            Kind::StateRec { replies, .. } => (0..reg.data_count() as u64)
                .filter(|b| !replies.contains_key(b))
                .map(|b| (reg.data_node(b), Msg::StateQuery))
                .collect(),
            Kind::Suffix(s) => reg
                .parity_nodes(s.group)
                .iter()
                .filter(|pn| !s.infos.contains_key(pn))
                .map(|pn| {
                    (
                        *pn,
                        Msg::SuffixPull {
                            group: s.group,
                            col: s.col,
                            from_seq: s.from_seq,
                            target: s.node,
                        },
                    )
                })
                .collect(),
        }
    }

}

impl Owner for Coordinator {
    type Kind = Kind;

    fn exchanges(&mut self) -> (&mut Exchanges<Kind>, &Config) {
        (&mut self.exchanges, &self.shared.cfg)
    }

    fn resend(
        &mut self,
        _: &Env<'_, Msg>,
        token: u64,
        _: u32,
        kind: &mut Kind,
    ) -> Vec<(NodeId, Msg)> {
        self.requests(token, kind)
    }

    /// Conclude an exchange whose peers stayed silent.
    fn exhausted(&mut self, env: &mut Env<'_, Msg>, _: u64, kind: Kind) {
        match kind {
            // The verdict: whoever is still silent has failed.
            Kind::Check(check) => self.finish_group_check(env, check),
            Kind::Recovery(r) => {
                // Whatever froze for this collection must not stay frozen
                // until its freeze row expires: the collection is dead.
                self.resume_group_writes(env, r.group, &r.rebuild);
                match r.purpose {
                    Purpose::Repair => {
                        // Survivors stopped answering (the survivor set may
                        // have changed under us): audit the group afresh.
                        if !self.checking(r.group) {
                            self.start_group_check(env, r.group);
                        }
                    }
                    Purpose::Upgrade => {
                        if !self.upgrade_queue.contains(&r.group) {
                            self.upgrade_queue.push_back(r.group);
                        }
                    }
                }
                self.drain_queues(env);
            }
            // The lookup fails cleanly — the client's own retry may still
            // land once the group is rebuilt.
            Kind::Degraded(d) => {
                let result = OpResult::Failed("degraded read timed out".into());
                self.answer_degraded(env, &d, result);
            }
            Kind::Split { target, .. } => {
                // Unblock the queue and audit the target's group.
                let group = target / self.m() as u64;
                if !self.checking(group) {
                    self.start_group_check(env, group);
                }
                self.drain_queues(env);
            }
            Kind::Merge { .. } => self.drain_queues(env),
            Kind::StateRec { .. } => {}
            Kind::Suffix(s) => self.restart_fallback(env, s.bucket, s.group, s.col, s.node),
        }
    }
}

/// Copy `cell` into the `pos`-th `cell_len` slot of `buf`, clamping to the
/// shorter of the two. A wrong-length cell (the content arrives off the
/// wire) corrupts at most its own record instead of panicking the decode.
fn copy_cell(buf: &mut [u8], pos: usize, cell_len: usize, cell: &[u8]) {
    if let Some(dst) = buf.get_mut(pos * cell_len..(pos + 1) * cell_len) {
        let n = dst.len().min(cell.len());
        if let (Some(d), Some(s)) = (dst.get_mut(..n), cell.get(..n)) {
            d.copy_from_slice(s);
        }
    }
}

/// Check a completed shard collection for a torn cut. The rebuild treats
/// the collected shards as one code word per rank, which is only sound if
/// every parity shard has applied exactly the Δ-prefix each collected data
/// shard had emitted when it was snapshotted (`col_seqs[c] == delta_seq`),
/// and all parity shards agree with each other on every column (the only
/// cross-check available for columns whose data shard is being rebuilt).
/// Returns a description of the first mismatch, `None` when consistent.
fn torn_cut(m: usize, collected: &HashMap<usize, ShardContent>) -> Option<String> {
    let parities: Vec<(usize, &Vec<u64>)> = collected
        .iter()
        .filter_map(|(&s, c)| match c {
            ShardContent::Parity { col_seqs, .. } if s >= m => Some((s, col_seqs)),
            _ => None,
        })
        .collect();
    for (&shard, content) in collected {
        let ShardContent::Data { delta_seq, .. } = content else {
            continue;
        };
        for &(pshard, col_seqs) in &parities {
            let applied = col_seqs.get(shard).copied().unwrap_or(0);
            if applied != *delta_seq {
                return Some(format!(
                    "column {shard} emitted Δ-seq {delta_seq} but parity shard {pshard} applied {applied}"
                ));
            }
        }
    }
    if let Some((&(first_shard, first), rest)) = parities.split_first() {
        for &(pshard, col_seqs) in rest {
            if col_seqs != first {
                return Some(format!(
                    "parity shards {first_shard} and {pshard} disagree on applied Δ-seqs: {first:?} vs {col_seqs:?}"
                ));
            }
        }
    }
    None
}

/// Rebuild the listed shards of one group from the collected survivors.
///
/// Pure function (no messaging) so the decode logic is unit-testable. Uses
/// the concatenated-buffer trick: all ranks of a shard are laid out
/// rank-major in one buffer, so one `reconstruct` call decodes every record
/// group at once.
///
/// # Errors
/// A human-readable description when the survivors cannot produce the
/// requested shards (too many erasures, inconsistent content). The caller
/// surfaces it as a degraded-mode event and abandons the rebuild.
fn rebuild_shards(
    m: usize,
    k: usize,
    cell_len: usize,
    existing_cols: usize,
    collected: &HashMap<usize, ShardContent>,
    rebuild: &[usize],
    code: &RsCode<Gf8>,
) -> Result<Vec<(usize, ShardContent)>, String> {
    // Universe of ranks, plus the per-column delta-sequence watermarks.
    // Collection happens at quiescence (every survivor has applied the same
    // Δ stream), so the data bucket's own counter and any parity channel
    // counter for that column agree; `max` also covers partial collections.
    let mut ranks: BTreeSet<Rank> = BTreeSet::new();
    let mut watermark: Vec<u64> = vec![0; m];
    for (&idx, content) in collected {
        match content {
            ShardContent::Data {
                records, delta_seq, ..
            } => {
                ranks.extend(records.iter().map(|(r, _, _)| *r));
                if let Some(w) = watermark.get_mut(idx) {
                    *w = (*w).max(*delta_seq);
                }
            }
            ShardContent::Parity { records, col_seqs } => {
                ranks.extend(records.iter().map(|(r, _, _)| *r));
                for (w, s) in watermark.iter_mut().zip(col_seqs) {
                    *w = (*w).max(*s);
                }
            }
        }
    }
    let rank_pos: BTreeMap<Rank, usize> = ranks.iter().enumerate().map(|(i, r)| (*r, i)).collect();
    let n_ranks = ranks.len();
    let buf_len = n_ranks * cell_len;

    let mut shards: Vec<Option<Vec<u8>>> = vec![None; m + k];
    // Known-zero: data columns beyond the file's current size.
    for slot in shards.iter_mut().take(m).skip(existing_cols) {
        *slot = Some(vec![0u8; buf_len]);
    }
    for (&idx, content) in collected {
        let mut buf = vec![0u8; buf_len];
        match content {
            ShardContent::Data { records, .. } => {
                for (rank, _, payload) in records {
                    let Some(&pos) = rank_pos.get(rank) else {
                        continue;
                    };
                    let cell = crate::record::encode_cell(payload, cell_len);
                    copy_cell(&mut buf, pos, cell_len, &cell);
                }
            }
            ShardContent::Parity { records, .. } => {
                for (rank, _, cell) in records {
                    let Some(&pos) = rank_pos.get(rank) else {
                        continue;
                    };
                    copy_cell(&mut buf, pos, cell_len, cell);
                }
            }
        }
        // An index beyond m + k (inconsistent collection) is dropped here
        // and caught below as a reconstruction shortfall.
        if let Some(slot) = shards.get_mut(idx) {
            *slot = Some(buf);
        }
    }
    code.reconstruct(&mut shards)
        .map_err(|e| format!("reconstruct failed: {e}"))?;

    // Keys per (rank, col): from collected data shards and any collected
    // parity shard's key lists.
    let mut keys: BTreeMap<Rank, Vec<Option<Key>>> =
        ranks.iter().map(|r| (*r, vec![None; m])).collect();
    for (&idx, content) in collected {
        match content {
            ShardContent::Data { records, .. } => {
                for (rank, key, _) in records {
                    if let Some(slot) = keys.get_mut(rank).and_then(|v| v.get_mut(idx)) {
                        *slot = Some(*key);
                    }
                }
            }
            ShardContent::Parity { records, .. } => {
                for (rank, ks, _) in records {
                    let Some(slot) = keys.get_mut(rank) else {
                        continue;
                    };
                    for (dst, src) in slot.iter_mut().zip(ks) {
                        if src.is_some() {
                            *dst = *src;
                        }
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    for &shard in rebuild {
        let Some(buf) = shards.get(shard).and_then(|s| s.as_ref()) else {
            return Err(format!("shard {shard} missing after reconstruction"));
        };
        if shard < m {
            // A data bucket: records are the ranks where this column holds
            // a key.
            let mut records = Vec::new();
            let mut max_rank: Option<Rank> = None;
            for (rank, pos) in &rank_pos {
                let key = keys.get(rank).and_then(|v| v.get(shard)).copied().flatten();
                if let Some(key) = key {
                    let Some(cell) = buf.get(pos * cell_len..(pos + 1) * cell_len) else {
                        return Err(format!("rank {rank} out of the decoded buffer"));
                    };
                    let Some(payload) = decode_cell(cell) else {
                        return Err(format!("rank {rank} decoded to a malformed cell"));
                    };
                    records.push((*rank, key, payload));
                    max_rank = Some(max_rank.map_or(*rank, |m0: Rank| m0.max(*rank)));
                }
            }
            out.push((
                shard,
                ShardContent::Data {
                    level: 0, // restored by the coordinator from file state
                    next_rank: max_rank.map_or(0, |r| r + 1),
                    delta_seq: watermark.get(shard).copied().unwrap_or(0),
                    records,
                },
            ));
        } else {
            // A parity bucket: one parity record per rank with any member.
            let mut records = Vec::new();
            for (rank, pos) in &rank_pos {
                let ks = keys.get(rank).cloned().unwrap_or_else(|| vec![None; m]);
                if ks.iter().any(Option::is_some) {
                    let Some(cell) = buf.get(pos * cell_len..(pos + 1) * cell_len) else {
                        return Err(format!("rank {rank} out of the decoded buffer"));
                    };
                    records.push((*rank, ks, cell.to_vec()));
                }
            }
            out.push((
                shard,
                ShardContent::Parity {
                    records,
                    col_seqs: watermark.clone(),
                },
            ));
        }
    }
    Ok(out)
}

/// Recompute `(n, i)` from the `(bucket, level)` pairs of a full scan —
/// algorithm A6: the split pointer sits exactly where the level drops by
/// one; if no drop exists the pointer is 0 and the level is uniform.
fn recompute_state(replies: &[(u64, u8)]) -> (u64, u8) {
    let mut by_bucket: Vec<(u64, u8)> = replies.to_vec();
    by_bucket.sort_unstable();
    debug_assert!(!by_bucket.is_empty());
    for w in by_bucket.windows(2) {
        if let [(_, j_prev), (b, j)] = w {
            if *j_prev == *j + 1 {
                return (*b, *j);
            }
        }
    }
    // Uniform level: n = 0.
    let i = by_bucket.first().map_or(0, |&(_, j)| j);
    debug_assert_eq!(by_bucket.len() as u64, 1u64 << i, "E1 cross-check");
    (0, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_cell;

    #[test]
    fn recompute_state_finds_split_pointer() {
        // M = 6: levels 3,3,2,2,3,3 → n = 2, i = 2.
        let replies = vec![(0, 3), (1, 3), (2, 2), (3, 2), (4, 3), (5, 3)];
        assert_eq!(recompute_state(&replies), (2, 2));
        // Order must not matter.
        let mut shuffled = replies.clone();
        shuffled.reverse();
        assert_eq!(recompute_state(&shuffled), (2, 2));
    }

    #[test]
    fn recompute_state_uniform_levels() {
        let replies = vec![(0, 2), (1, 2), (2, 2), (3, 2)];
        assert_eq!(recompute_state(&replies), (0, 2));
        assert_eq!(recompute_state(&[(0, 0)]), (0, 0));
    }

    #[test]
    fn rebuild_shards_data_and_parity() {
        let m = 4;
        let k = 2;
        let cell_len = 12;
        let code = RsCode::<Gf8>::new(m, k).unwrap();

        // Build a consistent group: 3 existing columns with some records.
        let data: Vec<Vec<(Rank, Key, Vec<u8>)>> = vec![
            vec![(0, 10, b"aa".to_vec()), (1, 11, b"bb".to_vec())],
            vec![(0, 20, b"cc".to_vec())],
            vec![(1, 31, b"dd".to_vec()), (2, 32, b"ee".to_vec())],
        ];
        // Parity from scratch.
        let ranks = [0u64, 1, 2];
        type ParityRecords = Vec<(Rank, Vec<Option<Key>>, Vec<u8>)>;
        let mut parity: Vec<ParityRecords> = vec![Vec::new(); k];
        for &rank in &ranks {
            let mut keys = vec![None; m];
            let mut cells: Vec<Vec<u8>> = vec![vec![0u8; cell_len]; m];
            for (c, recs) in data.iter().enumerate() {
                for (r, key, payload) in recs {
                    if *r == rank {
                        keys[c] = Some(*key);
                        cells[c] = encode_cell(payload, cell_len);
                    }
                }
            }
            let refs: Vec<&[u8]> = cells.iter().map(|c| c.as_slice()).collect();
            let pcells = code.encode(&refs).unwrap();
            for (q, list) in parity.iter_mut().enumerate() {
                list.push((rank, keys.clone(), pcells[q].clone()));
            }
        }

        // Lose data column 1 and parity 1; collect cols 0, 2 and parity 0.
        let mut collected = HashMap::new();
        collected.insert(
            0,
            ShardContent::Data {
                level: 5,
                next_rank: 2,
                delta_seq: 7,
                records: data[0].clone(),
            },
        );
        collected.insert(
            2,
            ShardContent::Data {
                level: 5,
                next_rank: 3,
                delta_seq: 9,
                records: data[2].clone(),
            },
        );
        collected.insert(
            m,
            ShardContent::Parity {
                records: parity[0].clone(),
                col_seqs: vec![7, 4, 9, 0],
            },
        );
        let rebuilt = rebuild_shards(m, k, cell_len, 3, &collected, &[1, m + 1], &code).unwrap();
        let by_shard: HashMap<usize, &ShardContent> =
            rebuilt.iter().map(|(s, c)| (*s, c)).collect();

        match by_shard[&1] {
            ShardContent::Data {
                next_rank,
                delta_seq,
                records,
                ..
            } => {
                assert_eq!(*next_rank, 1);
                // The lost column's Δ-sequence resumes from the surviving
                // parity channel's watermark.
                assert_eq!(*delta_seq, 4);
                assert_eq!(records, &vec![(0, 20, b"cc".to_vec())]);
            }
            _ => panic!("expected data shard"),
        }
        match by_shard[&(m + 1)] {
            ShardContent::Parity { records, col_seqs } => {
                assert_eq!(records.len(), parity[1].len());
                for (got, want) in records.iter().zip(&parity[1]) {
                    assert_eq!(got, want);
                }
                assert_eq!(col_seqs, &vec![7, 4, 9, 0]);
            }
            _ => panic!("expected parity shard"),
        }
    }

    #[test]
    fn rebuild_with_nonexistent_columns_as_zero() {
        // Group of m = 4 but only 1 existing column; k = 1. Lose the one
        // data column; rebuild from parity alone plus known-zero columns.
        let m = 4;
        let k = 1;
        let cell_len = 10;
        let code = RsCode::<Gf8>::new(m, k).unwrap();
        let rec: (Rank, Key, Vec<u8>) = (0, 77, b"xyz".to_vec());
        let cell = encode_cell(&rec.2, cell_len);
        // Parity 0 is the XOR of the single member.
        let mut keys = vec![None; m];
        keys[0] = Some(77);
        let mut collected = HashMap::new();
        collected.insert(
            m,
            ShardContent::Parity {
                records: vec![(0, keys, cell)],
                col_seqs: vec![1, 0, 0, 0],
            },
        );
        let rebuilt = rebuild_shards(m, k, cell_len, 1, &collected, &[0], &code).unwrap();
        match &rebuilt[0].1 {
            ShardContent::Data {
                records, next_rank, ..
            } => {
                assert_eq!(records, &vec![rec]);
                assert_eq!(*next_rank, 1);
            }
            _ => panic!("expected data shard"),
        }
    }

    #[test]
    fn rebuild_empty_group_yields_empty_shards() {
        let m = 2;
        let k = 1;
        let code = RsCode::<Gf8>::new(m, k).unwrap();
        let mut collected = HashMap::new();
        collected.insert(
            1,
            ShardContent::Data {
                level: 1,
                next_rank: 0,
                delta_seq: 0,
                records: Vec::new(),
            },
        );
        collected.insert(
            m,
            ShardContent::Parity {
                records: Vec::new(),
                col_seqs: vec![0, 0],
            },
        );
        let rebuilt = rebuild_shards(m, k, 8, 2, &collected, &[0], &code).unwrap();
        match &rebuilt[0].1 {
            ShardContent::Data { records, .. } => assert!(records.is_empty()),
            _ => panic!("expected data shard"),
        }
    }
}
