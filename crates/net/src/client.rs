//! [`NetClient`]: a key-value façade over a hosted client node, with a
//! multiplexed (pipelined) submission path.
//!
//! Wraps a [`NodeHost`] carrying one `lhrs-core` client actor. An
//! operation is one `Msg::Do` injected into the actor; the host is then
//! polled until the actor concludes it. The actor's own rows bound that
//! wait: a request ends in its reply or in its escalation's `Failed`, a
//! scan in its reply set or its give-up (DESIGN.md §2.4), so the façade
//! keeps no deadline of its own — the networked analogue of `LhrsFile`'s
//! driver API.
//!
//! The pipelined path ([`NetClient::submit`] / [`NetClient::run_window`],
//! surfaced through [`KvClient::run_batch`]) keeps a bounded window of
//! operations in flight at once. Completion is keyed by request id
//! (`OpId`) and arrives in any order.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lhrs_core::api::{KvClient, OpOutcome};
use lhrs_core::msg::{ClientOp, FilterSpec, Msg, OpId, OpResult};
use lhrs_core::node::Node;

use crate::host::NodeHost;
use crate::transport::Transport;

/// A client over a node host: one-op [`KvClient`] methods plus a windowed
/// pipelined driver.
pub struct NetClient<T: Transport> {
    host: NodeHost<T>,
    client: u32,
    next_op: OpId,
    /// Results that arrived and await collection, keyed by request id.
    results: HashMap<OpId, OpResult>,
    /// In-flight window of the pipelined driver ([`KvClient::run_batch`]).
    window: usize,
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
            window,
        }
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
    /// id. Completion surfaces through [`NetClient::take_completed`] after
    /// a [`NetClient::pump`]. The caller bounds its own window.
    pub fn submit(&mut self, op: ClientOp) -> OpId {
        let op_id = self.next_op;
        self.next_op += 1;
        self.host.metrics().incr("inflight_launched");
        self.host.inject(self.client, Msg::Do { op_id, op });
        op_id
    }

    /// Run the host loop once (waiting up to `wait` for inbound traffic)
    /// and collect every newly concluded operation.
    pub fn pump(&mut self, wait: Duration) {
        self.host.poll(wait);
        let metrics = self.host.metrics().clone();
        let Some(node) = self.host.node_mut(self.client) else {
            return;
        };
        for (id, result) in node.as_client_mut().take_results() {
            metrics.incr("inflight_completed");
            self.results.insert(id, result);
        }
    }

    /// Drain every completed result collected so far, in request-id order.
    pub fn take_completed(&mut self) -> Vec<(OpId, OpResult)> {
        let mut out: Vec<(OpId, OpResult)> = self.results.drain().collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Give up on an in-flight operation: the actor concludes it at once
    /// (`Client::abandon`), so it no longer holds the client's floor down,
    /// and a reply that still arrives is dropped like any reply for a
    /// concluded op.
    pub fn abandon(&mut self, op_id: OpId) {
        self.results.remove(&op_id);
        if let Some(node) = self.host.node_mut(self.client) {
            node.as_client_mut().abandon(op_id);
        }
    }

    /// Execute one operation and pump until the actor concludes it.
    fn exec(&mut self, op: ClientOp) -> OpOutcome {
        let op_id = self.submit(op);
        loop {
            self.pump(Duration::from_millis(20));
            if let Some(result) = self.results.remove(&op_id) {
                return OpOutcome::from_result(result);
            }
        }
    }

    /// Pipelined batch execution: keep up to `window` operations in
    /// flight, submitting the next as each completes (out of order), and
    /// return `(outcome, latency)` per op in submission order, once the
    /// actor has concluded every op.
    pub fn run_window(&mut self, ops: Vec<ClientOp>, window: usize) -> Vec<(OpOutcome, Duration)> {
        let window = window.max(1);
        let n = ops.len();
        let mut outcomes: Vec<Option<(OpOutcome, Duration)>> = vec![None; n];
        let mut ops = ops.into_iter().enumerate();
        // Request id → (submission index, submitted-at).
        let mut in_flight: HashMap<OpId, (usize, Instant)> = HashMap::new();
        let mut done = 0usize;
        while done < n {
            while in_flight.len() < window {
                let Some((idx, op)) = ops.next() else { break };
                in_flight.insert(self.submit(op), (idx, Instant::now()));
            }
            if in_flight.len() >= window && ops.len() > 0 {
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
                let (Some((idx, started)), Some(result)) =
                    (in_flight.remove(&id), self.results.remove(&id))
                else {
                    continue;
                };
                if let Some(slot) = outcomes.get_mut(idx) {
                    *slot = Some((OpOutcome::from_result(result), started.elapsed()));
                }
                done += 1;
            }
        }
        outcomes.into_iter().flatten().collect()
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
}

/// The unified client API over a live cluster: each operation blocks until
/// the client actor concludes it; [`KvClient::run_batch`] pipelines
/// through the configured window ([`NetClient::set_window`]).
impl<T: Transport> KvClient for NetClient<T> {
    fn insert(&mut self, key: u64, payload: Vec<u8>) -> OpOutcome {
        self.exec(ClientOp::Insert { key, payload })
    }

    fn lookup(&mut self, key: u64) -> OpOutcome {
        self.exec(ClientOp::Lookup { key })
    }

    fn update(&mut self, key: u64, payload: Vec<u8>) -> OpOutcome {
        self.exec(ClientOp::Update { key, payload })
    }

    fn delete(&mut self, key: u64) -> OpOutcome {
        self.exec(ClientOp::Delete { key })
    }

    fn scan(&mut self, filter: FilterSpec) -> OpOutcome {
        self.exec(ClientOp::Scan { filter })
    }

    fn run_batch(&mut self, ops: Vec<ClientOp>) -> Vec<OpOutcome> {
        let window = self.window;
        self.run_window(ops, window)
            .into_iter()
            .map(|(outcome, _)| outcome)
            .collect()
    }
}
