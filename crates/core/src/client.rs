//! The client actor: image-based addressing (A1), image adjustment from
//! IAMs (A3), timeout-based failure reporting, and scan orchestration with
//! deterministic termination.

use std::collections::{BTreeMap, HashMap};

use lhrs_lh::ClientImage;
use lhrs_obs::Event as ObsEvent;
use lhrs_sim::{Env, NodeId, TimerId};

use crate::msg::{ClientOp, FilterSpec, Msg, OpId, OpResult, ReqKind};
use crate::registry::SharedHandle;
use crate::{Key, ScanTermination};

/// A stalled request context, kept until the reply (or final failure).
struct Pending {
    kind: ReqKind,
    /// Logical bucket the request was (last) sent to.
    sent_to: u64,
    timer: Option<TimerId>,
    /// Retransmissions attempted so far (bounded by `client_retries`).
    attempts: u32,
    /// Whether the coordinator has already been alerted.
    escalated: bool,
    /// Fire-and-forget write (`ack_writes = false`): assumed successful
    /// unless an error reply arrives before the driver settles — the
    /// paper's 1-message insert cost model.
    optimistic: bool,
    /// Sim time the request was first issued (op-latency histogram).
    issued_at: u64,
}

/// Per-bucket scan reply: the bucket's level and its matching records.
type ScanReply = (u8, Vec<(Key, Vec<u8>)>);

/// An in-progress scan: replies collected so far.
struct ScanState {
    /// bucket → (level, hits)
    replies: BTreeMap<u64, ScanReply>,
    timer: TimerId,
    termination: ScanTermination,
    /// The filter, kept for retransmission to unresponsive buckets.
    filter: FilterSpec,
    /// Retransmission rounds attempted (bounded by `client_retries`).
    attempts: u32,
}

/// An LH\*RS client.
///
/// Holds the file image `(n', i')`, never the true file state. Exposes its
/// completion queue to the driver via [`Client::take_results`].
pub struct Client {
    shared: SharedHandle,
    /// The client's LH\* image.
    pub image: ClientImage,
    pending: HashMap<OpId, Pending>,
    scans: HashMap<OpId, ScanState>,
    timer_to_op: HashMap<TimerId, OpId>,
    results: Vec<(OpId, OpResult)>,
    /// IAMs received — the convergence metric of experiment F1.
    pub iams_received: u64,
    /// Requests that needed coordinator assistance (failure path metric).
    pub escalations: u64,
    /// Retransmissions sent (request or scan rounds) — the fault-overhead
    /// metric of the loss-rate experiments.
    pub retries: u64,
}

impl Client {
    /// A fresh client with the worst-case image (one bucket).
    pub fn new(shared: SharedHandle) -> Self {
        Client {
            shared,
            image: ClientImage::new(1),
            pending: HashMap::new(),
            scans: HashMap::new(),
            timer_to_op: HashMap::new(),
            results: Vec::new(),
            iams_received: 0,
            escalations: 0,
            retries: 0,
        }
    }

    /// Drain completed operations.
    pub fn take_results(&mut self) -> Vec<(OpId, OpResult)> {
        std::mem::take(&mut self.results)
    }

    /// Settle optimistic (un-acked) writes as successes. Called by the
    /// driver once the network is quiet: any error reply would have
    /// arrived and resolved the op by then.
    pub fn settle_optimistic(&mut self) {
        // Lookups are never optimistic (they always get replies); a lookup
        // in this set would be a logic bug, and is left pending rather than
        // fabricating a result.
        let settled: Vec<OpId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.optimistic && !matches!(p.kind, ReqKind::Lookup(..)))
            .map(|(id, _)| *id)
            .collect();
        for op_id in settled {
            let Some(p) = self.pending.remove(&op_id) else {
                continue;
            };
            let result = match p.kind {
                ReqKind::Insert(..) => OpResult::Inserted,
                ReqKind::Update(..) => OpResult::Updated,
                ReqKind::Delete(..) => OpResult::Deleted,
                ReqKind::Lookup(..) => continue, // filtered out above
            };
            self.results.push((op_id, result));
        }
    }

    /// Number of operations still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.scans.len()
    }

    /// Main message handler.
    pub fn on_message(&mut self, env: &mut Env<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Do { op_id, op } => self.start_op(env, op_id, op),
            Msg::Reply { op_id, result, iam } => {
                if let Some(iam) = iam {
                    self.image.adjust(iam.level, iam.bucket);
                    self.iams_received += 1;
                }
                if let Some(p) = self.pending.remove(&op_id) {
                    if let Some(t) = p.timer {
                        env.cancel_timer(t);
                        self.timer_to_op.remove(&t);
                    }
                    env.obs()
                        .observe_us("op_latency", env.now().saturating_sub(p.issued_at));
                    self.results.push((op_id, result));
                }
            }
            Msg::ScanReply {
                op_id,
                bucket,
                level,
                hits,
            } => {
                let done = {
                    let Some(scan) = self.scans.get_mut(&op_id) else {
                        return;
                    };
                    scan.replies.insert(bucket, (level, hits));
                    // Deterministic termination: with i = min level received
                    // and n = the smallest bucket at that level, the file
                    // has exactly M = n + 2^i buckets; finish once every
                    // bucket 0..M-1 has replied.
                    // `replies` is nonempty: one was inserted just above.
                    let Some(i) = scan.replies.values().map(|(l, _)| *l).min() else {
                        return;
                    };
                    let Some(n) = scan
                        .replies
                        .iter()
                        .filter(|(_, (l, _))| *l == i)
                        .map(|(b, _)| *b)
                        .min()
                    else {
                        return;
                    };
                    let expected = n + (1u64 << i);
                    scan.replies.len() as u64 == expected
                        && scan.replies.keys().copied().eq(0..expected)
                };
                if done {
                    self.finish_scan(env, op_id);
                }
            }
            other => {
                debug_assert!(false, "client got {:?}", other);
            }
        }
    }

    /// Timer handler: retry a stalled request (bounded exponential
    /// backoff), then escalate it to the coordinator, then give up after
    /// the escalation grace period.
    pub fn on_timer(&mut self, env: &mut Env<'_, Msg>, timer: TimerId) {
        let Some(&op_id) = self.timer_to_op.get(&timer) else {
            return;
        };
        self.timer_to_op.remove(&timer);
        if self.pending.contains_key(&op_id) {
            let (escalated, attempts, key) = {
                let Some(p) = self.pending.get(&op_id) else {
                    return;
                };
                (p.escalated, p.attempts, p.kind.key())
            };
            if !escalated && attempts < self.shared.cfg.client_retries {
                // Retry: the request or its reply may simply have been
                // lost. Re-resolve the address — the bucket may have moved
                // (split, recovery) while we waited.
                let bucket = self.clamped_address(key);
                let node = self.shared.registry.borrow().data_node(bucket);
                let backoff = (self.shared.cfg.client_timeout_us << (attempts + 1))
                    .min(self.shared.cfg.retry_backoff_cap_us);
                let new_timer = env.set_timer(backoff);
                self.timer_to_op.insert(new_timer, op_id);
                self.retries += 1;
                env.obs().incr("client_retries");
                env.trace(ObsEvent::Retry {
                    op: op_id,
                    attempt: u64::from(attempts) + 1,
                });
                let me = env.me();
                let Some(p) = self.pending.get_mut(&op_id) else {
                    return;
                };
                p.attempts += 1;
                p.sent_to = bucket;
                p.timer = Some(new_timer);
                let kind = p.kind.clone();
                env.send(
                    node,
                    Msg::Req {
                        op_id,
                        client: me,
                        intended: bucket,
                        hops: 0,
                        kind,
                    },
                );
            } else if !escalated {
                let Some(p) = self.pending.get_mut(&op_id) else {
                    return;
                };
                p.escalated = true;
                self.escalations += 1;
                env.obs().incr("client_escalations");
                // Grace period for detection + degraded service + recovery.
                let new_timer = env.set_timer(self.shared.cfg.client_timeout_us * 50);
                p.timer = Some(new_timer);
                self.timer_to_op.insert(new_timer, op_id);
                let coord = self.shared.registry.borrow().coordinator();
                let (bucket, kind) = (p.sent_to, p.kind.clone());
                env.send(
                    coord,
                    Msg::Suspect {
                        op_id,
                        client: env.me(),
                        bucket,
                        kind,
                    },
                );
            } else {
                // Even the coordinator could not complete it.
                self.pending.remove(&op_id);
                self.results.push((
                    op_id,
                    OpResult::Failed("request unrecoverable or timed out".into()),
                ));
            }
        } else if let Some(scan) = self.scans.get(&op_id) {
            match scan.termination {
                // The silence window elapsed: the probabilistic scan is
                // complete with whatever replied.
                ScanTermination::Probabilistic { .. } => self.finish_scan(env, op_id),
                ScanTermination::Deterministic => self.retry_or_fail_scan(env, op_id),
            }
        }
    }

    /// A deterministic scan timed out: re-send it to the buckets that have
    /// not replied (messages or replies may have been lost), or fail the
    /// scan once the retry budget is spent.
    fn retry_or_fail_scan(&mut self, env: &mut Env<'_, Msg>, op_id: OpId) {
        let (attempts, replied, min_level) = {
            let Some(scan) = self.scans.get(&op_id) else {
                return;
            };
            (
                scan.attempts,
                scan.replies
                    .iter()
                    .map(|(b, (l, _))| (*b, *l))
                    .collect::<Vec<(u64, u8)>>(),
                scan.replies.values().map(|(l, _)| *l).min(),
            )
        };
        if attempts >= self.shared.cfg.client_retries {
            self.scans.remove(&op_id);
            self.results
                .push((op_id, OpResult::Failed("scan timed out".into())));
            return;
        }
        // Rebuild the target set. With replies in hand the expected bucket
        // range is known exactly (the termination rule); without any, fall
        // back to the image. Buckets that replied are skipped; re-reaching
        // a bucket twice is harmless (replies are keyed by bucket).
        let mut targets: Vec<(u64, u8)> = Vec::new();
        match min_level {
            Some(i) => {
                // Same rule as the termination check: n = smallest bucket at
                // the minimum level ⇒ the file has n + 2^i buckets.
                // `min_level` came from this same reply set, so a bucket at
                // that level exists.
                let Some(n) = replied
                    .iter()
                    .filter(|(_, l)| *l == i)
                    .map(|(b, _)| *b)
                    .min()
                else {
                    return;
                };
                let expected = n + (1u64 << i);
                for b in 0..expected {
                    if !replied.iter().any(|(rb, _)| *rb == b) {
                        targets.push((b, i));
                    }
                }
            }
            None => {
                self.clamped_address(0);
                for b in 0..self.image.bucket_count() {
                    targets.push((b, self.image.level_of(b)));
                }
            }
        }
        let me = env.me();
        let new_timer = env.set_timer(self.shared.cfg.client_timeout_us * 50);
        self.timer_to_op.insert(new_timer, op_id);
        self.retries += 1;
        env.obs().incr("client_retries");
        env.trace(ObsEvent::Retry {
            op: op_id,
            attempt: u64::from(attempts) + 1,
        });
        let Some(scan) = self.scans.get_mut(&op_id) else {
            return;
        };
        scan.attempts += 1;
        scan.timer = new_timer;
        let filter = scan.filter.clone();
        for (b, assumed_level) in targets {
            // A networked host's allocation table can lag the level a reply
            // advertised; skip unmapped buckets — the next retry round sees
            // a fresher table.
            let Some(node) = self.shared.registry.borrow().try_data_node(b) else {
                continue;
            };
            env.send(
                node,
                Msg::Scan {
                    op_id,
                    client: me,
                    filter: filter.clone(),
                    assumed_level,
                    reply_if_empty: true,
                },
            );
        }
    }

    /// Close out a scan: fold levels into the image, sort, deliver.
    fn finish_scan(&mut self, env: &mut Env<'_, Msg>, op_id: OpId) {
        let Some(scan) = self.scans.remove(&op_id) else {
            return;
        };
        env.cancel_timer(scan.timer);
        self.timer_to_op.remove(&scan.timer);
        for (b, (l, _)) in &scan.replies {
            self.image.adjust(*l, *b);
        }
        let mut hits: Vec<(Key, Vec<u8>)> =
            scan.replies.into_values().flat_map(|(_, h)| h).collect();
        hits.sort_by_key(|(k, _)| *k);
        self.results.push((op_id, OpResult::ScanHits(hits)));
    }

    fn start_op(&mut self, env: &mut Env<'_, Msg>, op_id: OpId, op: ClientOp) {
        match op {
            ClientOp::Insert { key, payload } => {
                self.send_req(env, op_id, ReqKind::Insert(key, payload))
            }
            ClientOp::Lookup { key } => self.send_req(env, op_id, ReqKind::Lookup(key)),
            ClientOp::Update { key, payload } => {
                self.send_req(env, op_id, ReqKind::Update(key, payload))
            }
            ClientOp::Delete { key } => self.send_req(env, op_id, ReqKind::Delete(key)),
            ClientOp::Scan { filter } => self.start_scan(env, op_id, filter),
        }
    }

    fn send_req(&mut self, env: &mut Env<'_, Msg>, op_id: OpId, kind: ReqKind) {
        let bucket = self.clamped_address(kind.key());
        let node = self.shared.registry.borrow().data_node(bucket);
        // Lookups always get a reply; writes only in ack mode. Un-acked
        // writes are optimistic: no timer, settled by the driver.
        let needs_reply = matches!(kind, ReqKind::Lookup(_)) || self.shared.cfg.ack_writes;
        let timer = needs_reply.then(|| {
            let t = env.set_timer(self.shared.cfg.client_timeout_us);
            self.timer_to_op.insert(t, op_id);
            t
        });
        self.pending.insert(
            op_id,
            Pending {
                kind: kind.clone(),
                sent_to: bucket,
                timer,
                attempts: 0,
                escalated: false,
                optimistic: !needs_reply,
                issued_at: env.now(),
            },
        );
        env.send(
            node,
            Msg::Req {
                op_id,
                client: env.me(),
                intended: bucket,
                hops: 0,
                kind,
            },
        );
    }

    /// A1 over the image, coarsening the image first if it is *ahead* of a
    /// file that shrank through merges (detected via the allocation table,
    /// exactly as a real client would get "no such bucket" from its local
    /// table and decrement its image).
    fn clamped_address(&mut self, key: Key) -> u64 {
        let m = self.shared.registry.borrow().data_count() as u64;
        while self.image.bucket_count() > m {
            let regressed = self.image.regress();
            debug_assert!(regressed, "image cannot be ahead of a 1-bucket file");
        }
        self.image.address(key)
    }

    fn start_scan(&mut self, env: &mut Env<'_, Msg>, op_id: OpId, filter: FilterSpec) {
        // Unicast one scan message per bucket in the image, each tagged with
        // the level the image assumes — that tag drives exactly-once
        // propagation to buckets the image does not know about.
        let me = env.me();
        let termination = self.shared.cfg.scan_termination;
        let (timer, reply_if_empty) = match termination {
            ScanTermination::Deterministic => {
                (env.set_timer(self.shared.cfg.client_timeout_us * 50), true)
            }
            // The initial silence window also covers the in-flight time of
            // the scan requests themselves.
            ScanTermination::Probabilistic { silence_us } => (env.set_timer(silence_us), false),
        };
        self.timer_to_op.insert(timer, op_id);
        self.scans.insert(
            op_id,
            ScanState {
                replies: BTreeMap::new(),
                timer,
                termination,
                filter: filter.clone(),
                attempts: 0,
            },
        );
        // Coarsen first if the file shrank below the image.
        self.clamped_address(0);
        let count = self.image.bucket_count();
        for b in 0..count {
            let node = self.shared.registry.borrow().data_node(b);
            env.send(
                node,
                Msg::Scan {
                    op_id,
                    client: me,
                    filter: filter.clone(),
                    assumed_level: self.image.level_of(b),
                    reply_if_empty,
                },
            );
        }
    }
}
