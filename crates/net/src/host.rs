//! [`NodeHost`]: runs `lhrs-core` [`Node`] actors over a real transport
//! with the exact `Env` semantics the simulator provides.
//!
//! The actor contract is: handlers see a stable `now()`, effects (sends,
//! timers) are buffered and applied only after the handler returns, and
//! timer ids are unique per host. The host reproduces all three over wall
//! clocks and sockets — `now()` is microseconds since host start, timers
//! live in a min-heap drained by the poll loop, sends route to the local
//! queue (same process) or the transport (remote). Nothing in `lhrs-core`
//! can tell whether it is running here or inside `lhrs_sim::Sim`.

use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

use lhrs_core::msg::{DeltaEntry, Msg};
use lhrs_core::node::Node;
use lhrs_core::registry::SharedHandle;
use lhrs_core::storage::GroupCommits;
use lhrs_obs::Metrics;
use lhrs_sim::{Actor, Effect, Env, NodeId, Payload, TimerId};

use crate::frame::RegistryUpdate;
use crate::transport::{HostEvent, Transport};

/// How often the authoritative host rebroadcasts the allocation table even
/// without changes, healing peers that missed an update (µs).
const HEARTBEAT_US: u64 = 200_000;

/// A heap entry: fire at `deadline` µs, FIFO within a deadline via `seq`,
/// on node `node`. `std::cmp::Reverse` turns the max-heap into a min-heap.
type TimerEntry = std::cmp::Reverse<(u64, u64, u32, TimerId)>;

/// Entries per coalesced Δ-batch before it is flushed early. Bounds frame
/// size and parity-side admission burstiness; a poll batch rarely reaches
/// it.
const DELTA_COALESCE_CAP: usize = 256;

/// Key of one pending coalesced Δ-batch: destination parity node, emitting
/// data node, group, and ack target — everything [`Msg::ParityBatch`]
/// needs to stay faithful to the individual Δs it replaces.
type DeltaKey = (u32, u32, u64, Option<NodeId>);

/// One process's share of the LH\*RS multicomputer: a set of [`Node`]
/// actors, their timers, and a transport to everyone else.
pub struct NodeHost<T: Transport> {
    transport: T,
    tx: Sender<HostEvent>,
    rx: Receiver<HostEvent>,
    /// One wait's inbound events, handled as a batch. Kept to reuse its
    /// allocation.
    inbox: Vec<HostEvent>,
    shared: SharedHandle,
    nodes: HashMap<u32, Node>,
    /// Same-process deliveries, drained before blocking on the channel.
    local_queue: VecDeque<(NodeId, NodeId, Msg)>,
    timers: BinaryHeap<TimerEntry>,
    cancelled: HashSet<(u32, TimerId)>,
    next_timer: u64,
    timer_seq: u64,
    epoch: Instant,
    /// Whether this host carries the coordinator (and therefore owns the
    /// authoritative allocation table).
    authoritative: bool,
    /// Last broadcast snapshot + version (authoritative side).
    last_snapshot: Option<RegistryUpdate>,
    /// The registry's edit count when `last_snapshot` was taken.
    snapshot_edits: u64,
    reg_version: u64,
    last_broadcast_at: u64,
    /// Version last applied from the authoritative host (receiver side);
    /// `None` until the first snapshot arrives.
    seen_version: Option<u64>,
    shutdown: bool,
    /// Remote-bound Δ-commits buffered within the current poll batch,
    /// coalesced into one [`Msg::ParityBatch`] per (destination, sender,
    /// group, ack target) at the batch boundary. `pending_delta_order`
    /// keeps flush order deterministic (insertion order of first Δ). Each
    /// batch carries the highest durable watermark of the Δs it holds.
    pending_deltas: HashMap<DeltaKey, (Vec<DeltaEntry>, Option<u64>)>,
    pending_delta_order: Vec<DeltaKey>,
    /// Observability handle shared with every [`Env`] this host builds
    /// (and usually with the transport). Disabled unless installed via
    /// [`NodeHost::set_metrics`].
    metrics: Metrics,
}

impl<T: Transport> NodeHost<T> {
    /// A host over `transport`. Inbound traffic comes from the transport's
    /// [`Transport::wait`] when it has one (TCP), and from `rx` otherwise
    /// (the loopback, whose peers send into the matching `tx`); the host
    /// also holds a clone of `tx` (see [`NodeHost::sender`]) so the channel
    /// never disconnects.
    pub fn new(
        shared: SharedHandle,
        transport: T,
        tx: Sender<HostEvent>,
        rx: Receiver<HostEvent>,
    ) -> Self {
        NodeHost {
            transport,
            tx,
            rx,
            inbox: Vec::new(),
            shared,
            nodes: HashMap::new(),
            local_queue: VecDeque::new(),
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_timer: 0,
            timer_seq: 0,
            epoch: Instant::now(),
            authoritative: false,
            last_snapshot: None,
            snapshot_edits: 0,
            reg_version: 0,
            last_broadcast_at: 0,
            seen_version: None,
            shutdown: false,
            pending_deltas: HashMap::new(),
            pending_delta_order: Vec::new(),
            metrics: Metrics::disabled(),
        }
    }

    /// Install an observability handle. Hosted actors see it through
    /// [`Env::obs`] exactly as simulated actors do; the host additionally
    /// tallies `msgs_recv{kind}`, timer fires, and registry traffic into
    /// it. Share the same clone with the transport so one snapshot covers
    /// the whole process.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The installed observability handle (disabled by default).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Host a node. Adding the coordinator makes this host authoritative
    /// for the allocation table.
    pub fn add_node(&mut self, id: u32, node: Node) {
        if matches!(node, Node::Coordinator(_)) {
            self.authoritative = true;
        }
        self.nodes.insert(id, node);
    }

    /// The hosted node `id`, or `None` when this host does not carry it.
    pub fn node(&self, id: u32) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Mutable access to hosted node `id`, or `None` when this host does
    /// not carry it.
    pub fn node_mut(&mut self, id: u32) -> Option<&mut Node> {
        self.nodes.get_mut(&id)
    }

    /// This process's shared registry/config handle.
    pub fn shared(&self) -> &SharedHandle {
        &self.shared
    }

    /// A sender feeding this host's event channel: give clones to loopback
    /// peers, or use it to signal [`HostEvent::Shutdown`]. A host that
    /// waits on its transport drains the channel each time the wait
    /// returns, so a shutdown lands within one `poll` wait.
    pub fn sender(&self) -> Sender<HostEvent> {
        self.tx.clone()
    }

    /// The allocation-table version last applied from the authoritative
    /// host (`None` until one arrived). Authoritative hosts report their
    /// own broadcast version.
    pub fn registry_version(&self) -> Option<u64> {
        if self.authoritative {
            Some(self.reg_version)
        } else {
            self.seen_version
        }
    }

    /// Microseconds since host start — the `Env::now` clock.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Ask the authoritative host (node `to`) for the current allocation
    /// table; the answer arrives as a [`HostEvent::Registry`].
    pub fn request_registry(&mut self, from: u32, to: u32) {
        self.transport.send_registry_pull(NodeId(from), NodeId(to));
        self.transport.flush();
    }

    /// Inject a driver message (e.g. `Msg::Do`) into hosted node `to`, as
    /// if sent by the external world.
    pub fn inject(&mut self, to: u32, msg: Msg) {
        self.local_queue
            .push_back((lhrs_sim::EXTERNAL, NodeId(to), msg));
    }

    /// Dispatch one message into a hosted node and apply its effects.
    fn dispatch(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        let now = self.now_us();
        let mut effects: Vec<Effect<Msg>> = Vec::new();
        match self.nodes.get_mut(&to.0) {
            Some(node) => {
                self.metrics.incr_kind("msgs_recv", msg.kind());
                let mut env =
                    Env::external(to, now, &mut self.next_timer, &mut effects, &self.metrics);
                node.on_message(&mut env, from, msg);
            }
            None => return, // late frame for a node we do not host
        }
        self.apply_effects(to, now, effects);
    }

    /// Fire one timer on a hosted node and apply its effects.
    fn dispatch_timer(&mut self, node_id: u32, timer: TimerId) {
        let now = self.now_us();
        let mut effects: Vec<Effect<Msg>> = Vec::new();
        match self.nodes.get_mut(&node_id) {
            Some(node) => {
                self.metrics.incr("host_timer_fires");
                let mut env = Env::external(
                    NodeId(node_id),
                    now,
                    &mut self.next_timer,
                    &mut effects,
                    &self.metrics,
                );
                node.on_timer(&mut env, timer);
            }
            None => return,
        }
        self.apply_effects(NodeId(node_id), now, effects);
    }

    /// Apply a handler's buffered effects. The allocation-table broadcast
    /// goes out FIRST: any peer that then receives this dispatch's messages
    /// has already seen (per-connection FIFO) the table state those
    /// messages presuppose.
    fn apply_effects(&mut self, origin: NodeId, now: u64, effects: Vec<Effect<Msg>>) {
        self.broadcast_registry_if_changed(now);
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => self.route(origin, to, msg),
                Effect::Multicast { to, msg } => {
                    for t in to {
                        self.route(origin, t, msg.clone());
                    }
                }
                Effect::SetTimer { id, delay } => {
                    self.timer_seq += 1;
                    self.timers.push(std::cmp::Reverse((
                        now.saturating_add(delay),
                        self.timer_seq,
                        origin.0,
                        id,
                    )));
                }
                Effect::CancelTimer { id } => {
                    self.cancelled.insert((origin.0, id));
                }
            }
        }
        // A client arms a timer per op and cancels nearly all of them, so
        // tombstones would otherwise outnumber live timers a hundredfold
        // until their deadlines. Once they outnumber them at all, sweep
        // them out in one pass. Ids are never reused: a cancel whose
        // timer has already fired can go too.
        if self.cancelled.len() * 2 > self.timers.len() {
            let cancelled = std::mem::take(&mut self.cancelled);
            self.timers
                .retain(|std::cmp::Reverse((_, _, node, id))| !cancelled.contains(&(*node, *id)));
        }
        // No per-dispatch transport flush: writes accumulate in the
        // transport's buffers and Δ-commits in the coalescing buffer until
        // the poll-batch boundary (`flush_outbound`), amortising syscalls
        // and frames across every dispatch of the batch.
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        if self.nodes.contains_key(&to.0) {
            self.local_queue.push_back((from, to, msg));
            return;
        }
        // Remote-bound Δ-commits are coalesced per parity destination and
        // shipped as one ParityBatch at the poll-batch boundary. Any other
        // message to the same destination first flushes its pending Δs so
        // per-connection FIFO order is preserved (a Retire or SuffixPull
        // must never overtake the Δs emitted before it).
        if let Msg::ParityDelta {
            group,
            entry,
            durable,
            ack_to,
        } = msg
        {
            let key = (to.0, from.0, group, ack_to);
            let (pending, watermark) = self.pending_deltas.entry(key).or_insert_with(|| {
                self.pending_delta_order.push(key);
                (Vec::new(), None)
            });
            pending.push(entry);
            *watermark = (*watermark).max(durable);
            if pending.len() >= DELTA_COALESCE_CAP {
                self.flush_deltas_to(Some(to.0));
            }
            return;
        }
        self.flush_deltas_to(Some(to.0));
        self.transport.send_msg(from, to, &msg);
    }

    /// Ship buffered Δ-commits as [`Msg::ParityBatch`]es — all of them, or
    /// only those bound for destination `only`. A single buffered Δ is
    /// sent as the plain [`Msg::ParityDelta`] it started as.
    fn flush_deltas_to(&mut self, only: Option<u32>) {
        if self.pending_deltas.is_empty() {
            return;
        }
        let mut kept = Vec::new();
        for key in std::mem::take(&mut self.pending_delta_order) {
            let (to, from, group, ack_to) = key;
            if only.is_some_and(|o| o != to) {
                kept.push(key);
                continue;
            }
            let Some((mut entries, durable)) = self.pending_deltas.remove(&key) else {
                continue;
            };
            if entries.len() == 1 {
                let Some(entry) = entries.pop() else {
                    continue;
                };
                let msg = Msg::ParityDelta {
                    group,
                    entry,
                    durable,
                    ack_to,
                };
                self.transport.send_msg(NodeId(from), NodeId(to), &msg);
                continue;
            }
            self.metrics.incr("net_delta_batches");
            self.metrics
                .add("net_deltas_coalesced", entries.len() as u64);
            let msg = Msg::ParityBatch {
                group,
                entries,
                durable,
                ack_to,
            };
            self.transport.send_msg(NodeId(from), NodeId(to), &msg);
        }
        self.pending_delta_order = kept;
    }

    /// The poll-batch boundary: ship coalesced Δ-batches, then flush the
    /// transport's buffered writes to the wire. Runs before the host
    /// blocks waiting for events and again after the batch's dispatches.
    fn flush_outbound(&mut self) {
        self.flush_deltas_to(None);
        self.transport.flush();
    }

    /// Build the current table snapshot (without a version).
    fn snapshot(&self) -> RegistryUpdate {
        let reg = self.shared.registry.borrow();
        let data: Vec<NodeId> = reg.all_data_nodes();
        let parity: Vec<Vec<NodeId>> = (0..reg.group_count())
            .map(|g| reg.parity_nodes(g as u64).to_vec())
            .collect();
        RegistryUpdate {
            version: 0,
            coordinator: reg.coordinator(),
            data,
            parity,
        }
    }

    /// Authoritative side: broadcast a fresh snapshot if the table was
    /// edited since the last broadcast. Runs on every dispatch, so it
    /// compares edit counts, not tables.
    fn broadcast_registry_if_changed(&mut self, now: u64) {
        if !self.authoritative {
            return;
        }
        let edits = self.shared.registry.borrow().edits();
        if self.last_snapshot.is_some() && edits == self.snapshot_edits {
            return;
        }
        let mut snap = self.snapshot();
        self.snapshot_edits = edits;
        self.reg_version += 1;
        snap.version = self.reg_version;
        self.metrics.incr("registry_broadcasts");
        self.transport.broadcast_registry(snap.coordinator, &snap);
        self.last_broadcast_at = now;
        self.last_snapshot = Some(snap);
    }

    /// Authoritative side: the current versioned snapshot (broadcasting
    /// it first if the table changed; the first call always does).
    fn current_snapshot(&mut self) -> RegistryUpdate {
        self.broadcast_registry_if_changed(self.now_us());
        self.last_snapshot.clone().unwrap_or_else(|| self.snapshot())
    }

    /// Receiver side: apply a strictly newer snapshot to the local table.
    fn apply_registry(&mut self, up: RegistryUpdate) {
        if self.authoritative {
            return; // we are the source of truth
        }
        if let Some(seen) = self.seen_version {
            if up.version <= seen {
                return;
            }
        }
        self.seen_version = Some(up.version);
        self.metrics.incr("registry_updates_applied");
        let mut reg = self.shared.registry.borrow_mut();
        reg.set_coordinator(up.coordinator);
        while reg.data_count() > up.data.len() {
            reg.pop_data();
        }
        for (b, node) in up.data.iter().enumerate() {
            let bucket = b as u64;
            if b < reg.data_count() {
                if reg.data_node(bucket) != *node {
                    reg.move_data(bucket, *node);
                }
            } else {
                reg.push_data(bucket, *node);
            }
        }
        while reg.group_count() > up.parity.len() {
            reg.pop_parity_group();
        }
        for (g, group) in up.parity.iter().enumerate() {
            if reg.parity_nodes(g as u64) != group.as_slice() {
                reg.set_parity(g as u64, group.clone());
            }
        }
    }

    /// Handle one inbound event; returns false on shutdown.
    fn handle_event(&mut self, event: HostEvent) -> bool {
        match event {
            HostEvent::Deliver { from, to, msg } => {
                self.local_queue.push_back((from, to, msg));
            }
            HostEvent::Registry(up) => self.apply_registry(up),
            HostEvent::RegistryPull { from } => {
                if self.authoritative {
                    let snap = self.current_snapshot();
                    self.transport.send_registry(from, &snap);
                    self.transport.flush();
                }
            }
            HostEvent::Shutdown => return false,
        }
        true
    }

    /// Deliver everything in the local queue (dispatches can enqueue more).
    fn drain_local(&mut self) -> bool {
        let mut did = false;
        while let Some((from, to, msg)) = self.local_queue.pop_front() {
            did = true;
            self.dispatch(from, to, msg);
        }
        did
    }

    /// Fire every timer whose deadline has passed.
    fn fire_due_timers(&mut self) -> bool {
        let mut did = false;
        while let Some((node, id)) = self.next_due_timer(self.now_us()) {
            did = true;
            self.dispatch_timer(node, id);
        }
        did
    }

    /// Pop the earliest live timer due at `now` — in deadline order, FIFO
    /// within a deadline — dropping the tombstones in front of it.
    fn next_due_timer(&mut self, now: u64) -> Option<(u32, TimerId)> {
        loop {
            match self.timers.peek() {
                Some(std::cmp::Reverse((deadline, _, _, _))) if *deadline <= now => {}
                _ => return None,
            }
            let std::cmp::Reverse((_, _, node, id)) = self.timers.pop()?;
            if !self.cancelled.remove(&(node, id)) {
                return Some((node, id));
            }
        }
    }

    /// Wait for the earlier of the next timer deadline, the heartbeat, or
    /// `max_wait` — on the transport when it can wait, on the event channel
    /// otherwise — handling inbound events as they arrive. Returns whether
    /// any work was done. Call in a loop (or use [`NodeHost::run`]).
    pub fn poll(&mut self, max_wait: Duration) -> bool {
        let mut did = false;
        did |= self.drain_local();
        did |= self.fire_due_timers();
        did |= self.drain_local();
        self.flush_outbound();
        if self.shutdown {
            return did;
        }

        let now = self.now_us();
        let mut wait = max_wait;
        if let Some(std::cmp::Reverse((deadline, _, _, _))) = self.timers.peek() {
            wait = wait.min(Duration::from_micros(deadline.saturating_sub(now)));
        }
        if self.authoritative {
            let next_hb = self.last_broadcast_at + HEARTBEAT_US;
            wait = wait.min(Duration::from_micros(next_hb.saturating_sub(now)));
        }

        // A transport that cannot wait leaves the wait to the channel,
        // which `self.tx` keeps from ever disconnecting.
        if !self.transport.wait(wait, &mut self.inbox) {
            if let Ok(event) = self.rx.recv_timeout(wait) {
                self.inbox.push(event);
            }
        }
        // Batch whatever else is already queued.
        let mut batch = std::mem::take(&mut self.inbox);
        batch.extend(self.rx.try_iter());
        did |= !batch.is_empty();
        let stay = batch.drain(..).all(|event| self.handle_event(event));
        self.inbox = batch;
        if !stay {
            self.shutdown = true;
            return did;
        }

        did |= self.drain_local();
        did |= self.fire_due_timers();
        did |= self.drain_local();
        self.flush_outbound();
        self.heartbeat();
        self.sync_stores();
        did
    }

    /// Hand every hosted node's dirty durable store to the WAL's disk
    /// thread, after the batch's replies have left: under
    /// [`lhrs_core::FsyncPolicy::Batch`] one fsync covers whatever its
    /// store appended before it started, across as many poll batches as
    /// the disk takes. A no-op for nodes without a store or with nothing
    /// buffered. Runs on every poll, idle ones included, so the fsyncs the
    /// disk thread finished land in `wal_group_commits` (with the appends
    /// they covered in `wal_group_commit_ops`) without waiting for work.
    fn sync_stores(&mut self) {
        let mut done = GroupCommits::default();
        for node in self.nodes.values_mut() {
            match node.sync_store() {
                Ok(c) => {
                    done.fsyncs += c.fsyncs;
                    done.ops += c.ops;
                }
                Err(_) => self.metrics.incr("wal_errors"),
            }
        }
        if done.fsyncs > 0 {
            self.metrics.add("wal_group_commits", done.fsyncs);
            self.metrics.add("wal_group_commit_ops", done.ops);
        }
    }

    /// Authoritative side: periodic table rebroadcast, healing peers that
    /// were unreachable when an update went out.
    fn heartbeat(&mut self) {
        if !self.authoritative {
            return;
        }
        let now = self.now_us();
        self.broadcast_registry_if_changed(now);
        if now.saturating_sub(self.last_broadcast_at) >= HEARTBEAT_US {
            let snap = self.current_snapshot();
            self.transport.broadcast_registry(snap.coordinator, &snap);
            self.transport.flush();
            self.last_broadcast_at = now;
        }
    }

    /// Poll until a [`HostEvent::Shutdown`] arrives.
    pub fn run(&mut self) {
        while !self.shutdown {
            self.poll(Duration::from_millis(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::transport::{LoopbackNet, LoopbackTransport};
    use lhrs_core::msg::ReqKind;
    use lhrs_obs::Clock;
    use std::sync::mpsc::channel;

    /// Coordinator 0, client 1, bucket 0 on node 2, its parity on node 3,
    /// spares 4 and 5.
    const SPEC: &str = "\
config group_size 2
config initial_k 1
config ack_writes true
node 0 127.0.0.1:1 coordinator
node 1 127.0.0.1:1 client
node 2 127.0.0.1:1
node 3 127.0.0.1:1
node 4 127.0.0.1:1
node 5 127.0.0.1:1
";

    type Host = NodeHost<LoopbackTransport>;

    /// A host carrying `nodes` of [`SPEC`] over a loopback net on which
    /// node 1 — the only other node — is the returned channel.
    fn host(nodes: &[u32]) -> (Host, Receiver<HostEvent>) {
        let spec = ClusterSpec::parse(SPEC).expect("spec");
        let shared = spec.build_shared();
        let net = LoopbackNet::new();
        let (peer_tx, peer_rx) = channel();
        net.register(&[1], peer_tx);
        let (tx, rx) = channel();
        net.register(nodes, tx.clone());
        let metrics = Metrics::new(Clock::logical());
        let transport = LoopbackTransport::with_metrics(net, nodes, metrics.clone());
        let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
        host.set_metrics(metrics);
        for id in nodes {
            host.add_node(*id, spec.build_node(&shared, *id));
        }
        (host, peer_rx)
    }

    /// Run `handler` as node 5's handler would at time 0.
    fn with_env(host: &mut Host, handler: impl FnOnce(&mut Env<'_, Msg>)) {
        let (mut out, off) = (Vec::new(), Metrics::disabled());
        handler(&mut Env::external(NodeId(5), 0, &mut host.next_timer, &mut out, &off));
        host.apply_effects(NodeId(5), 0, out);
    }

    #[test]
    fn cancelled_timers_are_swept_and_live_ones_fire_in_order() {
        let (mut host, _peer) = host(&[]);
        let mut live = Vec::new();
        with_env(&mut host, |env| {
            live = [300, 100, 300, 200, 100].map(|delay| env.set_timer(delay)).to_vec();
        });
        // What a client does per op: arm a timeout, cancel it on the reply.
        for _ in 0..100_000 {
            let mut id = None;
            with_env(&mut host, |env| id = Some(env.set_timer(200)));
            with_env(&mut host, |env| env.cancel_timer(id.expect("armed")));
            assert!(host.timers.len() <= 2 * live.len() + 1, "{} heap entries", host.timers.len());
            assert!(host.cancelled.len() <= live.len() + 1);
        }
        assert_eq!(host.next_due_timer(99), None, "nothing due before 100 µs");
        let fired: Vec<TimerId> = std::iter::from_fn(|| host.next_due_timer(u64::MAX))
            .map(|(node, id)| {
                assert_eq!(node, 5);
                id
            })
            .collect();
        let order = [1, 4, 3, 0, 2].map(|i| live[i]);
        assert_eq!(fired, order, "by deadline, FIFO within one");
        assert!(host.timers.is_empty());
    }

    /// The allocation tables `peer` has been sent since the last call.
    fn tables(peer: &Receiver<HostEvent>) -> Vec<RegistryUpdate> {
        let registry = |event| match event {
            HostEvent::Registry(up) => Some(up),
            _ => None,
        };
        peer.try_iter().filter_map(registry).collect()
    }

    /// `n` key searches from client 1, dispatched by bucket 0 (node 2):
    /// each is answered, and none changes the table.
    fn lookups(host: &mut Host, n: u64) {
        for key in 0..n {
            let msg = Msg::Req {
                op_id: key,
                floor: key,
                client: NodeId(1),
                intended: 0,
                hops: 0,
                kind: ReqKind::Lookup(key),
            };
            host.inject(2, msg);
        }
        host.drain_local();
    }

    #[test]
    fn the_table_goes_out_once_per_change_and_on_the_heartbeat() {
        let (mut host, peer) = host(&[0, 2]);
        let broadcasts = |host: &Host| host.metrics.counter("registry_broadcasts");

        // The first dispatch announces the table; then it stays quiet.
        lookups(&mut host, 1);
        assert_eq!(tables(&peer).len(), 1);
        lookups(&mut host, 100);
        assert_eq!(broadcasts(&host), 1);
        assert!(tables(&peer).is_empty());

        type Edit = fn(&mut lhrs_core::registry::Registry);
        let edits: [(&str, Edit); 5] = [
            ("push_data", |r| assert!(r.push_data(1, NodeId(4)))),
            ("move_data", |r| assert!(r.move_data(0, NodeId(5)))),
            ("set_parity", |r| assert!(r.set_parity(0, vec![NodeId(4)]))),
            ("set_parity (new group)", |r| assert!(r.set_parity(1, vec![NodeId(5)]))),
            ("coordinator", |r| r.set_coordinator(NodeId(3))),
        ];
        for (n, (what, edit)) in (2..).zip(edits) {
            edit(&mut host.shared.registry.borrow_mut());
            lookups(&mut host, 10);
            assert_eq!(broadcasts(&host), n, "{what}");
            let sent = tables(&peer);
            assert_eq!(sent.len(), 1, "{what}");
            let mut now = host.snapshot();
            now.version = n;
            assert_eq!(sent[0], now, "{what}");
        }

        // A refused edit, or one that leaves the table as it was, changes
        // nothing and sends nothing.
        let no_ops: [(&str, Edit); 4] = [
            ("sparse push_data", |r| assert!(!r.push_data(9, NodeId(4)))),
            ("move_data to its node", |r| assert!(r.move_data(0, NodeId(5)))),
            ("set_parity to its nodes", |r| assert!(r.set_parity(1, vec![NodeId(5)]))),
            ("coordinator to itself", |r| r.set_coordinator(NodeId(3))),
        ];
        for (what, edit) in no_ops {
            edit(&mut host.shared.registry.borrow_mut());
            lookups(&mut host, 10);
            assert_eq!(broadcasts(&host), 6, "{what}");
            assert!(tables(&peer).is_empty(), "{what}");
        }

        // Unchanged, the table is still rebroadcast every HEARTBEAT_US —
        // and a heartbeat is not a change.
        host.heartbeat();
        assert!(tables(&peer).is_empty(), "not yet due");
        let period = Duration::from_micros(HEARTBEAT_US);
        host.epoch = host.epoch.checked_sub(period).expect("a heartbeat ago");
        host.heartbeat();
        let beat = tables(&peer);
        assert_eq!(beat.iter().map(|t| t.version).collect::<Vec<_>>(), [6]);
        host.heartbeat();
        assert!(tables(&peer).is_empty(), "one per period");
        assert_eq!(broadcasts(&host), 6);
    }
}
