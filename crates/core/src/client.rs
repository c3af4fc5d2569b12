//! The client actor: image-based addressing (A1), image adjustment from
//! IAMs (A3), timeout-based failure reporting, and scan orchestration with
//! deterministic termination. Its retried work is rows of an exchange
//! table (DESIGN.md §2.4), keyed by op id.

use std::collections::BTreeMap;

use lhrs_lh::ClientImage;
use lhrs_obs::Event as ObsEvent;
use lhrs_sim::{Env, NodeId};

use crate::exchange::{Exchanges, Owner, Schedule};
use crate::msg::{ClientOp, FilterSpec, Msg, OpId, OpResult, ReqKind};
use crate::registry::SharedHandle;
use crate::{Config, Key, ScanTermination};

/// A request awaiting its reply.
pub(crate) struct Request {
    kind: ReqKind,
    /// Logical bucket the request was (last) sent to.
    sent_to: u64,
    /// Sim time the request was first issued (op-latency histogram).
    issued_at: u64,
}

/// Per-bucket scan reply: the bucket's level and its matching records.
type ScanReply = (u8, Vec<(Key, Vec<u8>)>);

/// An in-progress scan: replies collected so far.
pub(crate) struct ScanState {
    /// bucket → (level, hits)
    replies: BTreeMap<u64, ScanReply>,
    /// The filter, kept for retransmission to unresponsive buckets.
    filter: FilterSpec,
}

impl ScanState {
    /// The termination rule: with i the least level replied and n the
    /// least bucket replying at that level, the file has exactly
    /// M = n + 2^i buckets. Returns `(i, M)`, `None` before any reply.
    fn expected(&self) -> Option<(u8, u64)> {
        let i = self.replies.values().map(|(l, _)| *l).min()?;
        let levels = self.replies.iter().filter(|(_, (l, _))| *l == i);
        let n = levels.map(|(b, _)| *b).min()?;
        Some((i, n + (1u64 << i)))
    }

    /// Whether every bucket 0..M-1 has replied.
    fn complete(&self) -> bool {
        self.expected().is_some_and(|(_, m)| {
            self.replies.len() as u64 == m && self.replies.keys().copied().eq(0..m)
        })
    }
}

/// The client's exchange rows (DESIGN.md §2.4).
pub(crate) enum Row {
    /// A lookup, or a write with `ack_writes`: re-sent with backoff.
    Request(Request),
    /// A request reported to the coordinator, waiting out its grace period.
    Escalated(Request),
    /// A deterministic scan: re-sent to the buckets that have not replied.
    Scan(ScanState),
    /// A probabilistic scan and its silence window, µs.
    Silence(ScanState, u64),
}

impl Schedule for Row {
    fn period(&self, cfg: &Config, round: u32) -> u64 {
        match self {
            // Exponential backoff from the client timeout, capped.
            Row::Request(_) => 1u64
                .checked_shl(round)
                .map_or(u64::MAX, |f| cfg.client_timeout_us.saturating_mul(f))
                .min(cfg.retry_backoff_cap_us),
            // Grace period for detection + degraded service + recovery; a
            // deterministic scan waits as long for its slowest bucket.
            Row::Escalated(_) | Row::Scan(_) => cfg.client_timeout_us.saturating_mul(50),
            // The window also covers the in-flight time of the scan
            // requests themselves.
            Row::Silence(_, silence_us) => *silence_us,
        }
    }

    /// Requests and deterministic scans re-send `client_retries` times;
    /// the escalation and the silence window are watchdogs.
    fn limit(&self, cfg: &Config) -> u32 {
        match self {
            Row::Request(_) | Row::Scan(_) => cfg.client_retries,
            Row::Escalated(_) | Row::Silence(..) => 0,
        }
    }

    /// The client arms a round's timer before re-sending.
    fn arm_first(&self) -> bool {
        true
    }
}

/// An LH\*RS client.
///
/// Holds the file image `(n', i')`, never the true file state. Exposes its
/// completion queue to the driver via [`Client::take_results`].
pub struct Client {
    shared: SharedHandle,
    /// The client's LH\* image.
    pub image: ClientImage,
    exchanges: Exchanges<Row>,
    /// Writes sent without `ack_writes`, with their issue time and the
    /// result they are assumed to have. They are never re-sent, so they
    /// are no rows: an error reply or [`Client::settle_optimistic`]
    /// resolves them — the paper's 1-message insert cost model. Ordered
    /// by op id, so the oldest is at hand for the floor.
    unacked: BTreeMap<OpId, (u64, OpResult)>,
    results: Vec<(OpId, OpResult)>,
    /// IAMs received — the convergence metric of experiment F1.
    pub iams_received: u64,
}

impl Client {
    /// A fresh client with the worst-case image (one bucket).
    pub fn new(shared: SharedHandle) -> Self {
        Client {
            shared,
            image: ClientImage::new(1),
            exchanges: Exchanges::new(),
            unacked: BTreeMap::new(),
            results: Vec::new(),
            iams_received: 0,
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
        let unacked = std::mem::take(&mut self.unacked);
        let settled = unacked.into_iter().map(|(op_id, (_, result))| (op_id, result));
        self.results.extend(settled);
    }

    /// Conclude op `op_id` without an answer, for a caller that gives up
    /// on it: its row or its unacked entry goes, so the floor moves past
    /// it, and a reply that still arrives is dropped like any reply for a
    /// concluded op. The row's armed timer then finds no row and is
    /// stale.
    pub fn abandon(&mut self, op_id: OpId) {
        self.exchanges.forget(op_id);
        self.unacked.remove(&op_id);
        self.results.retain(|(id, _)| *id != op_id);
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
                let issued_at = if let Some(Row::Request(r) | Row::Escalated(r)) =
                    self.exchanges.get(op_id)
                {
                    let at = r.issued_at;
                    let _ = self.exchanges.settle(env, op_id);
                    at
                } else if let Some((at, _)) = self.unacked.remove(&op_id) {
                    at
                } else {
                    return;
                };
                env.obs()
                    .observe_us("op_latency", env.now().saturating_sub(issued_at));
                self.results.push((op_id, result));
            }
            Msg::ScanReply {
                op_id,
                bucket,
                level,
                hits,
            } => {
                let Some(Row::Scan(scan) | Row::Silence(scan, _)) = self.exchanges.get_mut(op_id)
                else {
                    return;
                };
                scan.replies.insert(bucket, (level, hits));
                if !scan.complete() {
                    return;
                }
                if let Some(Row::Scan(scan) | Row::Silence(scan, _)) =
                    self.exchanges.settle(env, op_id)
                {
                    self.finish_scan(op_id, scan);
                }
            }
            other => {
                debug_assert!(false, "client got {:?}", other);
            }
        }
    }

    /// Close out a scan: fold levels into the image, sort, deliver.
    fn finish_scan(&mut self, op_id: OpId, scan: ScanState) {
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
            ClientOp::Scan { filter } => {
                let scan = ScanState {
                    replies: BTreeMap::new(),
                    filter,
                };
                let row = match self.shared.cfg.scan_termination {
                    ScanTermination::Deterministic => Row::Scan(scan),
                    ScanTermination::Probabilistic { silence_us } => {
                        Row::Silence(scan, silence_us)
                    }
                };
                self.start(env, op_id, row);
            }
        }
    }

    fn send_req(&mut self, env: &mut Env<'_, Msg>, op_id: OpId, kind: ReqKind) {
        let issued_at = env.now();
        // Lookups always get a reply; writes only in ack mode.
        let assumed = match kind {
            ReqKind::Lookup(_) => None,
            _ if self.shared.cfg.ack_writes => None,
            ReqKind::Insert(..) => Some(OpResult::Inserted),
            ReqKind::Update(..) => Some(OpResult::Updated),
            ReqKind::Delete(..) => Some(OpResult::Deleted),
        };
        let Some(result) = assumed else {
            let (sent_to, node, req) = self.req(env, op_id, kind.clone());
            let request = Request {
                kind,
                sent_to,
                issued_at,
            };
            let row = Row::Request(request);
            self.exchanges.open(env, &self.shared.cfg, op_id, row);
            return env.send(node, req);
        };
        self.unacked.insert(op_id, (issued_at, result));
        let (_, node, req) = self.req(env, op_id, kind);
        env.send(node, req);
    }

    /// Op `op_id`'s request, addressed by the image: its bucket, that
    /// bucket's node, and the message.
    fn req(&mut self, env: &Env<'_, Msg>, op_id: OpId, kind: ReqKind) -> (u64, NodeId, Msg) {
        let bucket = self.clamped_address(kind.key());
        let node = self.shared.registry.borrow().data_node(bucket);
        let req = Msg::Req {
            op_id,
            floor: self.floor(op_id),
            client: env.me(),
            intended: bucket,
            hops: 0,
            kind,
        };
        (bucket, node, req)
    }

    /// The lowest op id this client has not concluded, sent while op
    /// `op_id` is open: the oldest row, the oldest unacked write, or
    /// `op_id` itself, whose row is out of the table while a round re-sends
    /// it. Op ids only grow, so no later request names a lower one.
    fn floor(&self, op_id: OpId) -> OpId {
        let oldest_row = self.exchanges.front().unwrap_or(op_id);
        let oldest_unacked = self.unacked.keys().next().copied().unwrap_or(op_id);
        op_id.min(oldest_row).min(oldest_unacked)
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
}

/// Count and trace retry `round` of op `op`.
fn count_retry(env: &Env<'_, Msg>, op: OpId, round: u32) {
    env.obs().incr("client_retries");
    env.trace(ObsEvent::Retry {
        op,
        attempt: u64::from(round),
    });
}

impl Owner for Client {
    type Kind = Row;

    fn exchanges(&mut self) -> (&mut Exchanges<Row>, &Config) {
        (&mut self.exchanges, &self.shared.cfg)
    }

    /// A request goes again to its key's bucket, re-resolved: the request
    /// or its reply may simply have been lost, and the bucket may have
    /// moved (split, recovery) while the client waited. A scan goes first
    /// to every bucket of the image, then again to the buckets that have
    /// not replied.
    fn resend(
        &mut self,
        env: &Env<'_, Msg>,
        op_id: u64,
        round: u32,
        row: &mut Row,
    ) -> Vec<(NodeId, Msg)> {
        let (scan, reply_if_empty) = match row {
            Row::Request(r) => {
                count_retry(env, op_id, round);
                let (bucket, node, req) = self.req(env, op_id, r.kind.clone());
                r.sent_to = bucket;
                return vec![(node, req)];
            }
            Row::Escalated(_) => return Vec::new(),
            Row::Scan(scan) => (scan, true),
            Row::Silence(scan, _) => (scan, false),
        };
        // With replies in hand the file's buckets are known exactly (the
        // termination rule); without any, the image's are asked, each
        // tagged with the level the image assumes — that tag drives
        // exactly-once propagation to buckets the image does not know
        // about. Re-reaching a bucket twice is harmless: replies are keyed
        // by bucket.
        let targets: Vec<(u64, u8)> = match scan.expected() {
            Some((i, m)) => (0..m)
                .filter(|b| !scan.replies.contains_key(b))
                .map(|b| (b, i))
                .collect(),
            None => {
                // Coarsen first if the file shrank below the image.
                self.clamped_address(0);
                let image = &self.image;
                (0..image.bucket_count())
                    .map(|b| (b, image.level_of(b)))
                    .collect()
            }
        };
        let reg = self.shared.registry.borrow();
        // A networked host's allocation table can lag the level a reply
        // advertised; skip unmapped buckets — the next round sees a
        // fresher table.
        let sends: Vec<(NodeId, Msg)> = targets
            .into_iter()
            .filter_map(|(b, assumed_level)| {
                let msg = Msg::Scan {
                    op_id,
                    client: env.me(),
                    filter: scan.filter.clone(),
                    assumed_level,
                    reply_if_empty,
                };
                Some((reg.try_data_node(b)?, msg))
            })
            .collect();
        if round > 0 && !sends.is_empty() {
            count_retry(env, op_id, round);
        }
        sends
    }

    fn exhausted(&mut self, env: &mut Env<'_, Msg>, op_id: u64, row: Row) {
        match row {
            // Report the silent bucket to the coordinator, which probes it
            // and recovers it or answers the request itself.
            Row::Request(r) => {
                env.obs().incr("client_escalations");
                let suspect = Msg::Suspect {
                    op_id,
                    client: env.me(),
                    bucket: r.sent_to,
                    kind: r.kind.clone(),
                };
                self.exchanges
                    .open(env, &self.shared.cfg, op_id, Row::Escalated(r));
                let coord = self.shared.registry.borrow().coordinator();
                env.send(coord, suspect);
            }
            // Even the coordinator could not complete it.
            Row::Escalated(_) => {
                let failed = OpResult::Failed("request unrecoverable or timed out".into());
                self.results.push((op_id, failed));
            }
            Row::Scan(_) => {
                let failed = OpResult::Failed("scan timed out".into());
                self.results.push((op_id, failed));
            }
            // The window elapsed: the scan is complete with whatever
            // replied.
            Row::Silence(scan, _) => self.finish_scan(op_id, scan),
        }
    }
}
