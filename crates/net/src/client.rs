//! [`NetClient`]: a key-value façade over a hosted client node, with a
//! multiplexed (pipelined) submission path.
//!
//! Wraps a [`NodeHost`] carrying one `lhrs-core` client actor. The
//! synchronous methods inject one `Msg::Do`, poll the host until the
//! client's retry/IAM machinery produces a result, and return it — the
//! networked analogue of `LhrsFile`'s driver API.
//!
//! The pipelined path ([`NetClient::submit`] / [`NetClient::run_window`],
//! surfaced through [`KvClient::run_batch`]) keeps a bounded window of
//! operations in flight at once. Completion is keyed by request id
//! (`OpId`) and arrives in any order; each in-flight operation carries its
//! own deadline, and an operation abandoned by its deadline is tombstoned
//! so a late reply is dropped and counted (`inflight_stale_drops`) instead
//! of surfacing against a reused slot.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use lhrs_core::api::{KvClient, OpOutcome};
use lhrs_core::msg::{ClientOp, FilterSpec, Msg, OpId, OpResult};
use lhrs_core::node::Node;

use crate::host::NodeHost;
use crate::transport::Transport;

/// Default per-operation deadline for the [`KvClient`] trait methods:
/// generous enough to ride through suspect-escalation, probing, and a full
/// shard recovery. Override with [`NetClient::set_op_timeout`].
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Cap on remembered abandoned-op tombstones. The client actor itself
/// gives up on an operation after its retry budget, so a tombstone older
/// than this window can no longer produce a late reply.
const ABANDONED_CAP: usize = 4096;

/// A client over a node host: synchronous one-op methods plus a windowed
/// pipelined driver.
pub struct NetClient<T: Transport> {
    host: NodeHost<T>,
    client: u32,
    next_op: OpId,
    /// Results that arrived and await collection, keyed by request id.
    results: HashMap<OpId, OpResult>,
    op_timeout: Duration,
    /// In-flight window of the pipelined driver ([`KvClient::run_batch`]).
    window: usize,
    /// Tombstones of operations abandoned by their deadline: a reply that
    /// still arrives is dropped and counted, never delivered.
    abandoned: HashSet<OpId>,
    abandoned_order: VecDeque<OpId>,
}

impl<T: Transport> NetClient<T> {
    /// Wrap `host`, whose node `client` must be a `Node::Client`. The
    /// pipelined window starts at the configured
    /// [`lhrs_core::Config::client_window`].
    pub fn new(host: NodeHost<T>, client: u32, first_op: OpId) -> Self {
        let window = host.shared().cfg.client_window.max(1);
        NetClient {
            host,
            client,
            next_op: first_op.max(1),
            results: HashMap::new(),
            op_timeout: DEFAULT_OP_TIMEOUT,
            window,
            abandoned: HashSet::new(),
            abandoned_order: VecDeque::new(),
        }
    }

    /// Set the per-operation deadline used by the [`KvClient`] methods.
    pub fn set_op_timeout(&mut self, timeout: Duration) {
        self.op_timeout = timeout;
    }

    /// Set the pipelined driver's in-flight window (clamped to ≥ 1).
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// The pipelined driver's in-flight window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The underlying host (to inspect the registry or stats).
    pub fn host(&self) -> &NodeHost<T> {
        &self.host
    }

    /// Mutable access to the underlying host.
    pub fn host_mut(&mut self) -> &mut NodeHost<T> {
        &mut self.host
    }

    /// Pull the allocation table from the authoritative host at node
    /// `coordinator`, re-asking every ~300 ms until a snapshot arrives or
    /// `timeout` elapses. Returns whether a table was received.
    pub fn sync_registry(&mut self, coordinator: u32, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut last_ask = Instant::now() - Duration::from_secs(1);
        while self.host.registry_version().is_none() {
            if Instant::now() >= deadline {
                return false;
            }
            if last_ask.elapsed() >= Duration::from_millis(300) {
                self.host.request_registry(self.client, coordinator);
                last_ask = Instant::now();
            }
            self.host.poll(Duration::from_millis(20));
        }
        true
    }

    /// Launch one operation without waiting for it; returns its request
    /// id. Completion surfaces through [`NetClient::try_take`] after a
    /// [`NetClient::pump`]. The caller bounds its own window.
    pub fn submit(&mut self, op: ClientOp) -> OpId {
        let op_id = self.next_op;
        self.next_op += 1;
        self.host.metrics().incr("inflight_launched");
        self.host.inject(self.client, Msg::Do { op_id, op });
        op_id
    }

    /// Run the host loop once (waiting up to `wait` for inbound traffic)
    /// and collect every newly completed result. Late replies for
    /// abandoned operations are dropped here and counted.
    pub fn pump(&mut self, wait: Duration) {
        self.host.poll(wait);
        let metrics = self.host.metrics().clone();
        let Some(node) = self.host.node_mut(self.client) else {
            return;
        };
        let client = node.as_client_mut();
        for (id, result) in client.take_results() {
            if self.abandoned.remove(&id) {
                metrics.incr("inflight_stale_drops");
                continue;
            }
            metrics.incr("inflight_completed");
            self.results.insert(id, result);
        }
    }

    /// Collect the result of `op_id`, if it has completed.
    pub fn try_take(&mut self, op_id: OpId) -> Option<OpResult> {
        self.results.remove(&op_id)
    }

    /// Drain every completed result collected so far, in request-id order.
    /// The open-loop driver's completion path: one pass instead of probing
    /// each outstanding id with [`NetClient::try_take`].
    pub fn take_completed(&mut self) -> Vec<(OpId, OpResult)> {
        let mut out: Vec<(OpId, OpResult)> = self.results.drain().collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Abandon an in-flight operation: its reply, should one still
    /// arrive, is dropped and counted instead of delivered.
    pub fn abandon(&mut self, op_id: OpId) {
        if self.results.remove(&op_id).is_some() {
            return; // completed just before the deadline: nothing to drop
        }
        if self.abandoned.insert(op_id) {
            self.abandoned_order.push_back(op_id);
            while self.abandoned_order.len() > ABANDONED_CAP {
                if let Some(old) = self.abandoned_order.pop_front() {
                    self.abandoned.remove(&old);
                }
            }
        }
    }

    /// Execute one operation, blocking up to `timeout` for its result.
    /// `None` means the deadline passed with the operation still
    /// unsettled; the operation is then abandoned — if a reply arrives
    /// later it is dropped and counted, never surfaced against a newer
    /// request.
    pub fn exec(&mut self, op: ClientOp, timeout: Duration) -> Option<OpResult> {
        let op_id = self.submit(op);
        let deadline = Instant::now() + timeout;
        loop {
            self.pump(Duration::from_millis(20));
            if let Some(result) = self.results.remove(&op_id) {
                return Some(result);
            }
            if Instant::now() >= deadline {
                self.host.metrics().incr("inflight_timeouts");
                self.abandon(op_id);
                return None;
            }
        }
    }

    /// Pipelined batch execution: keep up to `window` operations in
    /// flight, submitting the next as each completes (out of order), and
    /// return `(outcome, latency)` per op in submission order. Each op
    /// gets the configured per-operation deadline from its submission;
    /// an op abandoned by its deadline reports `OpOutcome::Failed`.
    pub fn run_window(&mut self, ops: Vec<ClientOp>, window: usize) -> Vec<(OpOutcome, Duration)> {
        let window = window.max(1);
        let n = ops.len();
        let mut outcomes: Vec<(OpOutcome, Duration)> = ops
            .iter()
            .map(|_| (OpOutcome::Failed("not completed".into()), Duration::ZERO))
            .collect();
        let mut ops = ops.into_iter();
        // Request id → (submission index, submitted-at, deadline).
        let mut in_flight: HashMap<OpId, (usize, Instant, Instant)> = HashMap::new();
        let mut submitted = 0usize;
        let mut done = 0usize;
        while done < n {
            while in_flight.len() < window && submitted < n {
                let Some(op) = ops.next() else { break };
                let id = self.submit(op);
                let now = Instant::now();
                in_flight.insert(id, (submitted, now, now + self.op_timeout));
                submitted += 1;
            }
            if in_flight.len() >= window && submitted < n {
                // The window is the throughput limiter for this round.
                self.host.metrics().incr("window_full_stalls");
            }
            self.pump(Duration::from_millis(1));
            let completed: Vec<OpId> = in_flight
                .keys()
                .filter(|id| self.results.contains_key(id))
                .copied()
                .collect();
            for id in completed {
                let Some((idx, started, _)) = in_flight.remove(&id) else {
                    continue;
                };
                let Some(result) = self.results.remove(&id) else {
                    continue;
                };
                if let Some(slot) = outcomes.get_mut(idx) {
                    *slot = (OpOutcome::from_result(result), started.elapsed());
                }
                done += 1;
            }
            let now = Instant::now();
            let expired: Vec<OpId> = in_flight
                .iter()
                .filter(|(_, (_, _, deadline))| now >= *deadline)
                .map(|(id, _)| *id)
                .collect();
            for id in expired {
                let Some((idx, started, _)) = in_flight.remove(&id) else {
                    continue;
                };
                self.host.metrics().incr("inflight_timeouts");
                self.abandon(id);
                if let Some(slot) = outcomes.get_mut(idx) {
                    *slot = (
                        OpOutcome::Failed("operation timed out".into()),
                        started.elapsed(),
                    );
                }
                done += 1;
            }
        }
        outcomes
    }

    /// Insert a record; `Some(true)` inserted, `Some(false)` duplicate key.
    pub fn insert(&mut self, key: u64, payload: Vec<u8>, timeout: Duration) -> Option<bool> {
        match self.exec(ClientOp::Insert { key, payload }, timeout)? {
            OpResult::Inserted => Some(true),
            OpResult::DuplicateKey => Some(false),
            _ => None,
        }
    }

    /// Key search; `Some(None)` is a definitive unsuccessful search.
    pub fn lookup(&mut self, key: u64, timeout: Duration) -> Option<Option<Vec<u8>>> {
        match self.exec(ClientOp::Lookup { key }, timeout)? {
            OpResult::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Delete a record; `Some(true)` deleted, `Some(false)` not found.
    pub fn delete(&mut self, key: u64, timeout: Duration) -> Option<bool> {
        match self.exec(ClientOp::Delete { key }, timeout)? {
            OpResult::Deleted => Some(true),
            OpResult::NotFound => Some(false),
            _ => None,
        }
    }

    /// Replace the payload of an existing record; `Some(true)` updated,
    /// `Some(false)` not found.
    pub fn update(&mut self, key: u64, payload: Vec<u8>, timeout: Duration) -> Option<bool> {
        match self.exec(ClientOp::Update { key, payload }, timeout)? {
            OpResult::Updated => Some(true),
            OpResult::NotFound => Some(false),
            _ => None,
        }
    }

    /// Parallel scan with a server-side filter; hits sorted by key.
    pub fn scan(&mut self, filter: FilterSpec, timeout: Duration) -> Option<Vec<(u64, Vec<u8>)>> {
        match self.exec(ClientOp::Scan { filter }, timeout)? {
            OpResult::ScanHits(hits) => Some(hits),
            _ => None,
        }
    }

    /// The bucket `key` addresses under this client's image of the file
    /// (LH\* A1): where its requests go first, not necessarily where the
    /// record lives.
    pub fn image_bucket(&self, key: u64) -> Option<u64> {
        match self.host.node(self.client) {
            Some(Node::Client(c)) => Some(c.image.address(key)),
            _ => None,
        }
    }

    /// Number of data buckets in the local allocation-table snapshot.
    pub fn bucket_count(&self) -> usize {
        self.host.shared().registry.borrow().data_count()
    }

    /// Number of parity groups in the local allocation-table snapshot.
    pub fn group_count(&self) -> usize {
        self.host.shared().registry.borrow().group_count()
    }

    /// Run `op` with the configured deadline, folding a timeout into the
    /// [`OpOutcome`] shape.
    fn outcome_of(&mut self, op: ClientOp) -> OpOutcome {
        match self.exec(op, self.op_timeout) {
            Some(result) => OpOutcome::from_result(result),
            None => OpOutcome::Failed("operation timed out".into()),
        }
    }
}

/// The unified client API over a live cluster: each operation blocks up to
/// the configured per-operation timeout ([`NetClient::set_op_timeout`]);
/// [`KvClient::run_batch`] pipelines through the configured window
/// ([`NetClient::set_window`]).
impl<T: Transport> KvClient for NetClient<T> {
    fn insert(&mut self, key: u64, payload: Vec<u8>) -> OpOutcome {
        self.outcome_of(ClientOp::Insert { key, payload })
    }

    fn lookup(&mut self, key: u64) -> OpOutcome {
        self.outcome_of(ClientOp::Lookup { key })
    }

    fn update(&mut self, key: u64, payload: Vec<u8>) -> OpOutcome {
        self.outcome_of(ClientOp::Update { key, payload })
    }

    fn delete(&mut self, key: u64) -> OpOutcome {
        self.outcome_of(ClientOp::Delete { key })
    }

    fn scan(&mut self, filter: FilterSpec) -> OpOutcome {
        self.outcome_of(ClientOp::Scan { filter })
    }

    fn run_batch(&mut self, ops: Vec<ClientOp>) -> Vec<OpOutcome> {
        let window = self.window;
        self.run_window(ops, window)
            .into_iter()
            .map(|(outcome, _)| outcome)
            .collect()
    }
}
