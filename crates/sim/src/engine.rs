//! The discrete-event engine: event queue, node table, crash/restart, and
//! the deterministic run loop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use lhrs_obs::{Clock, Metrics};

use crate::actor::{Actor, Effect, Env, TimerId};
use crate::faults::FaultOutcome;
use crate::{FaultPlan, LatencyModel, Payload};

/// Identifier of a simulated node. Dense indices assigned by
/// [`Sim::add_node`] in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Pseudo-sender for messages injected from outside the simulation (the
/// test harness / application driver).
pub const EXTERNAL: NodeId = NodeId(u32::MAX);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == EXTERNAL {
            write!(f, "ext")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver { from: NodeId, msg: M },
    Timer { id: TimerId },
}

#[derive(Debug)]
struct Event<M> {
    time: u64,
    seq: u64,
    node: NodeId,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The deterministic discrete-event simulator.
///
/// Generic over the message payload `M` and the actor type `A` (typically an
/// enum over the node roles of the scheme under test).
pub struct Sim<M: Payload, A: Actor<M>> {
    actors: Vec<Option<A>>,
    crashed: Vec<bool>,
    queue: BinaryHeap<Reverse<Event<M>>>,
    now: u64,
    seq: u64,
    next_timer: u64,
    cancelled_timers: HashSet<u64>,
    /// Timer ids with an event still in the queue. Cancelling an id not in
    /// this set is a no-op, so `cancelled_timers` can never grow a
    /// permanent entry (the old behaviour leaked one per stale cancel
    /// across long soak runs).
    armed_timers: HashSet<u64>,
    latency: LatencyModel,
    faults: Option<FaultPlan>,
    /// Last scheduled arrival per (src, dst): deliveries between a node
    /// pair are FIFO, like the TCP connections of the paper's testbed.
    channel_clock: std::collections::HashMap<(NodeId, NodeId), u64>,
    /// Per-node "busy until" clock for the serial service-time model.
    node_free_at: Vec<u64>,
    /// The run's one record: message and fault counters, latency
    /// histograms and the trace ring, shared with every [`Env`] this
    /// engine builds.
    metrics: Metrics,
}

impl<M: Payload, A: Actor<M>> Sim<M, A> {
    /// Create an empty simulation with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        Sim {
            actors: Vec::new(),
            crashed: Vec::new(),
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            next_timer: 0,
            cancelled_timers: HashSet::new(),
            armed_timers: HashSet::new(),
            latency,
            faults: None,
            channel_clock: std::collections::HashMap::new(),
            node_free_at: Vec::new(),
            metrics: Metrics::new(Clock::logical()),
        }
    }

    /// The run's metrics, counting from construction on a logical clock
    /// (events are stamped with simulated µs, so every reading is
    /// deterministic). `msgs_sent{kind}` and `msgs_sent_bytes` count each
    /// node-to-node message once, a multicast once per recipient; the
    /// engine adds `msgs_recv{kind}`, `multicasts`, and one counter per
    /// fault outcome: `fault_dropped`, `partition_dropped`,
    /// `fault_duplicated`, `fault_reordered`, and `crash_dropped` for a
    /// delivery that found its node crashed. Diff two
    /// [`snapshot`](Metrics::snapshot)s to cost an operation.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Add a node running `actor`; returns its id (dense, in creation
    /// order).
    pub fn add_node(&mut self, actor: A) -> NodeId {
        let id = NodeId(self.actors.len() as u32);
        self.actors.push(Some(actor));
        self.crashed.push(false);
        self.node_free_at.push(0);
        id
    }

    /// Inject a message from the external driver into the simulation.
    ///
    /// Driver injections model the application handing work to its local
    /// client, not network traffic, so they are **not** counted in
    /// `msgs_sent` (the SDDS cost model counts messages between nodes
    /// only).
    pub fn send_external(&mut self, to: NodeId, msg: M) {
        self.enqueue_delivery(EXTERNAL, to, msg);
    }

    /// Inject a message with an arbitrary (spoofed) sender — used by test
    /// harnesses that play the role of a specific node. Counted as that
    /// node's send.
    pub fn send_as(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.metrics.incr_kind("msgs_sent", msg.kind());
        self.metrics.add("msgs_sent_bytes", msg.size_bytes() as u64);
        self.enqueue_delivery(from, to, msg);
    }

    /// Validate a node id and return its dense index. `EXTERNAL` and ids
    /// beyond the node table panic with a message naming the operation —
    /// the raw `node.0 as usize` indexing this replaces produced either an
    /// opaque out-of-bounds panic or (for `EXTERNAL` on a 4-billion-entry
    /// table) a capacity blowup.
    #[track_caller]
    fn checked_index(&self, node: NodeId, op: &str) -> usize {
        assert!(
            node != EXTERNAL,
            "Sim::{op}: EXTERNAL is the driver pseudo-node, not a simulated node"
        );
        let idx = node.0 as usize;
        assert!(
            idx < self.actors.len(),
            "Sim::{op}: unknown node {node} (only {} nodes exist)",
            self.actors.len()
        );
        idx
    }

    /// Crash a node: its pending and future deliveries and timers are
    /// silently dropped (and counted in `crash_dropped`) until
    /// [`Sim::restart`]. Actor state is retained, modelling a transient
    /// outage; use [`Sim::replace`] to model state loss onto a hot spare.
    pub fn crash(&mut self, node: NodeId) {
        let idx = self.checked_index(node, "crash");
        self.crashed[idx] = true;
    }

    /// Bring a crashed node back with its state intact (the paper's
    /// "restarted with correct data" self-detection case).
    pub fn restart(&mut self, node: NodeId) {
        let idx = self.checked_index(node, "restart");
        self.crashed[idx] = false;
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[self.checked_index(node, "is_crashed")]
    }

    /// Replace the actor on `node` (e.g. re-provisioning a hot spare) and
    /// un-crash it.
    pub fn replace(&mut self, node: NodeId, actor: A) {
        let idx = self.checked_index(node, "replace");
        self.actors[idx] = Some(actor);
        self.crashed[idx] = false;
    }

    /// Immutable access to a node's actor (panics on unknown node).
    pub fn actor(&self, node: NodeId) -> &A {
        let idx = self.checked_index(node, "actor");
        self.actors[idx].as_ref().expect("actor present")
    }

    /// Mutable access to a node's actor (panics on unknown node).
    pub fn actor_mut(&mut self, node: NodeId) -> &mut A {
        let idx = self.checked_index(node, "actor_mut");
        self.actors[idx].as_mut().expect("actor present")
    }

    /// Install a deterministic network [`FaultPlan`]; replaces any existing
    /// plan. Faults apply to node-to-node traffic only — external driver
    /// injections model the app→local-client handoff and stay reliable.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Remove the fault plan, returning the network to perfect reliability.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Current simulated time in microseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time must be monotone");
        self.now = ev.time;
        let idx = ev.node.0 as usize;
        match ev.kind {
            EventKind::Deliver { from, msg } => {
                if self.crashed[idx] {
                    self.metrics.incr("crash_dropped");
                    return true;
                }
                // Serial service: a message reaching a busy node waits for
                // the node to free up. The event keeps its ORIGINAL
                // sequence number — a fresh one would let a later
                // same-channel message arriving exactly at `node_free_at`
                // overtake it (same event time, smaller seq), breaking the
                // per-channel FIFO guarantee.
                if self.latency.service_us > 0 && self.node_free_at[idx] > ev.time {
                    self.queue.push(Reverse(Event {
                        time: self.node_free_at[idx],
                        seq: ev.seq,
                        node: ev.node,
                        kind: EventKind::Deliver { from, msg },
                    }));
                    return true;
                }
                self.node_free_at[idx] = ev.time + self.latency.service_us;
                self.metrics.incr_kind("msgs_recv", msg.kind());
                self.dispatch(ev.node, |actor, env| actor.on_message(env, from, msg));
            }
            EventKind::Timer { id } => {
                // The event is consumed whatever happens next, so both
                // tracking sets drain here — including entries for timers
                // whose owner crashed, which previously could linger in
                // `cancelled_timers` forever.
                self.armed_timers.remove(&id.0);
                if self.cancelled_timers.remove(&id.0) {
                    return true;
                }
                if self.crashed[idx] {
                    return true;
                }
                self.dispatch(ev.node, |actor, env| actor.on_timer(env, id));
            }
        }
        true
    }

    /// Run until no events remain. Returns the number of events processed.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }

    /// Run until simulated time would exceed `t_us` (events at exactly
    /// `t_us` are processed). Returns the number of events processed.
    pub fn run_until(&mut self, t_us: u64) -> u64 {
        let mut n = 0;
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.time > t_us {
                break;
            }
            self.step();
            n += 1;
        }
        self.now = self.now.max(t_us);
        n
    }

    /// Take the actor out, run the handler with a fresh [`Env`], put it
    /// back, then apply the buffered effects. The take/put dance is what
    /// lets handlers send messages without aliasing the engine.
    fn dispatch(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Env<'_, M>)) {
        let idx = node.0 as usize;
        let mut actor = self.actors[idx].take().expect("actor present");
        let mut effects = Vec::new();
        {
            let mut env = Env {
                me: node,
                now: self.now,
                next_timer: &mut self.next_timer,
                effects: &mut effects,
                obs: &self.metrics,
            };
            f(&mut actor, &mut env);
        }
        self.actors[idx] = Some(actor);
        for eff in effects {
            match eff {
                Effect::Send { to, msg } => self.enqueue_delivery(node, to, msg),
                Effect::Multicast { to, msg } => {
                    self.metrics.incr("multicasts");
                    for dest in to {
                        self.enqueue_delivery(node, dest, msg.clone());
                    }
                }
                Effect::SetTimer { id, delay } => {
                    let seq = self.next_seq();
                    self.armed_timers.insert(id.0);
                    self.queue.push(Reverse(Event {
                        time: self.now.saturating_add(delay),
                        seq,
                        node,
                        kind: EventKind::Timer { id },
                    }));
                }
                Effect::CancelTimer { id } => {
                    // Only a timer whose event is still queued needs a
                    // tombstone; cancelling an already-fired (or never
                    // armed) id must not leak a permanent entry.
                    if self.armed_timers.contains(&id.0) {
                        self.cancelled_timers.insert(id.0);
                    }
                }
            }
        }
    }

    fn enqueue_delivery(&mut self, from: NodeId, to: NodeId, msg: M) {
        // Fault injection applies to node-to-node traffic only; driver
        // injections model the app handing work to its local client.
        if from != EXTERNAL {
            if let Some(plan) = &self.faults {
                match plan.decide(self.seq, self.now, from, to) {
                    FaultOutcome::Dropped => {
                        self.next_seq(); // keep the decision stream advancing
                        self.metrics.incr("fault_dropped");
                        return;
                    }
                    FaultOutcome::Partitioned => {
                        self.next_seq();
                        self.metrics.incr("partition_dropped");
                        return;
                    }
                    FaultOutcome::Deliver {
                        copies,
                        reorder_extra_us,
                    } => {
                        if copies > 1 {
                            self.metrics.incr("fault_duplicated");
                        }
                        if reorder_extra_us.is_some() {
                            self.metrics.incr("fault_reordered");
                        }
                        for _ in 0..copies {
                            self.enqueue_copy(from, to, msg.clone(), reorder_extra_us);
                        }
                        return;
                    }
                }
            }
        }
        self.enqueue_copy(from, to, msg, None);
    }

    /// Schedule one physical delivery. `reorder_extra_us = Some(x)` delays
    /// the message by `x` extra microseconds and **bypasses the per-channel
    /// FIFO clamp**, so later sends on the same channel can overtake it —
    /// that is what makes it a reordering rather than a slowdown.
    fn enqueue_copy(&mut self, from: NodeId, to: NodeId, msg: M, reorder_extra_us: Option<u64>) {
        let seq = self.next_seq();
        let delay = self.latency.delay_us(msg.size_bytes(), seq);
        let time = match reorder_extra_us {
            None => {
                // FIFO per channel: never schedule an arrival before an
                // earlier send on the same (src, dst) pair.
                let clock = self.channel_clock.entry((from, to)).or_insert(0);
                let time = self.now.saturating_add(delay).max(*clock);
                *clock = time;
                time
            }
            Some(extra) => self.now.saturating_add(delay).saturating_add(extra),
        };
        self.queue.push(Reverse(Event {
            time,
            seq,
            node: to,
            kind: EventKind::Deliver { from, msg },
        }));
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Hello(u32),
        Fanout,
    }
    impl Payload for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Hello(_) => "hello",
                Msg::Fanout => "fanout",
            }
        }
        fn size_bytes(&self) -> usize {
            4
        }
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(NodeId, Msg)>,
        timer_fired: Vec<TimerId>,
        relay_to: Vec<NodeId>,
    }

    impl Actor<Msg> for Recorder {
        fn on_message(&mut self, env: &mut Env<'_, Msg>, from: NodeId, msg: Msg) {
            self.seen.push((from, msg.clone()));
            if msg == Msg::Fanout {
                let to = self.relay_to.clone();
                env.multicast(to, Msg::Hello(99));
            }
        }
        fn on_timer(&mut self, _env: &mut Env<'_, Msg>, timer: TimerId) {
            self.timer_fired.push(timer);
        }
    }

    #[test]
    fn external_message_is_delivered() {
        let mut sim: Sim<Msg, Recorder> = Sim::new(LatencyModel::instant());
        let a = sim.add_node(Recorder::default());
        sim.send_external(a, Msg::Hello(1));
        sim.run_until_idle();
        assert_eq!(sim.actor(a).seen, vec![(EXTERNAL, Msg::Hello(1))]);
        // Driver injections are not network traffic and are not counted.
        let stats = sim.metrics().snapshot();
        assert_eq!(stats.count("hello"), 0);
        assert_eq!(stats.total_bytes(), 0);
        // A node-to-node send is counted.
        sim.send_as(a, a, Msg::Hello(2));
        sim.run_until_idle();
        let stats = sim.metrics().snapshot();
        assert_eq!(stats.count("hello"), 1);
        assert_eq!(stats.total_bytes(), 4);
    }

    #[test]
    fn crashed_node_drops_messages_then_restart_delivers_again() {
        let mut sim: Sim<Msg, Recorder> = Sim::new(LatencyModel::instant());
        let a = sim.add_node(Recorder::default());
        sim.crash(a);
        sim.send_external(a, Msg::Hello(1));
        sim.run_until_idle();
        assert!(sim.actor(a).seen.is_empty());
        assert_eq!(sim.metrics().counter("crash_dropped"), 1);
        sim.restart(a);
        sim.send_external(a, Msg::Hello(2));
        sim.run_until_idle();
        assert_eq!(sim.actor(a).seen, vec![(EXTERNAL, Msg::Hello(2))]);
    }

    #[test]
    fn multicast_reaches_all_and_counts_once() {
        let mut sim: Sim<Msg, Recorder> = Sim::new(LatencyModel::instant());
        let hub = sim.add_node(Recorder::default());
        let b = sim.add_node(Recorder::default());
        let c = sim.add_node(Recorder::default());
        sim.actor_mut(hub).relay_to = vec![b, c];
        sim.send_external(hub, Msg::Fanout);
        sim.run_until_idle();
        assert_eq!(sim.actor(b).seen.len(), 1);
        assert_eq!(sim.actor(c).seen.len(), 1);
        // One multicast, counted once per recipient on both sides.
        let stats = sim.metrics().snapshot();
        assert_eq!(stats.counter("multicasts", ""), 1);
        assert_eq!((stats.count("hello"), stats.total_messages()), (2, 2));
        assert_eq!(stats.total_bytes(), 8);
        assert_eq!(stats.counter("msgs_recv", "hello"), 2);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        fn run() -> Vec<(NodeId, Msg)> {
            let mut sim: Sim<Msg, Recorder> = Sim::new(LatencyModel::default());
            let a = sim.add_node(Recorder::default());
            for i in 0..50 {
                sim.send_external(a, Msg::Hello(i));
            }
            sim.run_until_idle();
            sim.actor(a).seen.clone()
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_orders_deliveries_by_time() {
        // With a fixed latency, two messages sent at t=0 arrive in send
        // order; a later external send arrives after.
        let mut sim: Sim<Msg, Recorder> = Sim::new(LatencyModel::fixed(100));
        let a = sim.add_node(Recorder::default());
        sim.send_external(a, Msg::Hello(1));
        sim.send_external(a, Msg::Hello(2));
        sim.run_until_idle();
        let vals: Vec<u32> = sim
            .actor(a)
            .seen
            .iter()
            .map(|(_, m)| match m {
                Msg::Hello(x) => *x,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vals, vec![1, 2]);
        assert_eq!(sim.now(), 100);
    }

    #[derive(Default)]
    struct TimerNode {
        fired: Vec<(u64, TimerId)>,
        arm: Vec<u64>,
        cancel_first: bool,
    }
    impl Actor<Msg> for TimerNode {
        fn on_message(&mut self, env: &mut Env<'_, Msg>, _from: NodeId, _msg: Msg) {
            let mut ids = Vec::new();
            for &d in &self.arm {
                ids.push(env.set_timer(d));
            }
            if self.cancel_first {
                env.cancel_timer(ids[0]);
            }
        }
        fn on_timer(&mut self, env: &mut Env<'_, Msg>, timer: TimerId) {
            self.fired.push((env.now(), timer));
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancellation_works() {
        let mut sim: Sim<Msg, TimerNode> = Sim::new(LatencyModel::instant());
        let a = sim.add_node(TimerNode {
            arm: vec![300, 100, 200],
            cancel_first: true,
            ..Default::default()
        });
        sim.send_external(a, Msg::Hello(0));
        sim.run_until_idle();
        let times: Vec<u64> = sim.actor(a).fired.iter().map(|(t, _)| *t).collect();
        // The 300 µs timer was cancelled; 100 then 200 fire.
        assert_eq!(times, vec![100, 200]);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim: Sim<Msg, TimerNode> = Sim::new(LatencyModel::instant());
        let a = sim.add_node(TimerNode {
            arm: vec![100, 900],
            ..Default::default()
        });
        sim.send_external(a, Msg::Hello(0));
        sim.run_until(500);
        assert_eq!(sim.actor(a).fired.len(), 1);
        assert_eq!(sim.now(), 500);
        sim.run_until_idle();
        assert_eq!(sim.actor(a).fired.len(), 2);
    }

    #[test]
    fn serial_service_time_queues_concurrent_deliveries() {
        // Ten messages arrive at once; with 100 µs service the node
        // finishes the batch at t = 1000 µs, not 100.
        let model = LatencyModel {
            base_us: 0,
            per_byte_ns: 0,
            jitter_us: 0,
            service_us: 100,
        };
        let mut sim: Sim<Msg, Recorder> = Sim::new(model);
        let a = sim.add_node(Recorder::default());
        for i in 0..10 {
            sim.send_external(a, Msg::Hello(i));
        }
        sim.run_until_idle();
        assert_eq!(sim.actor(a).seen.len(), 10);
        assert_eq!(sim.now(), 900, "10th message starts service at 900 µs");
        // Arrival order preserved despite re-queuing.
        let vals: Vec<u32> = sim
            .actor(a)
            .seen
            .iter()
            .map(|(_, m)| match m {
                Msg::Hello(x) => *x,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vals, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "EXTERNAL is the driver pseudo-node")]
    fn crash_external_panics_with_clear_message() {
        let mut sim: Sim<Msg, Recorder> = Sim::new(LatencyModel::instant());
        sim.add_node(Recorder::default());
        sim.crash(EXTERNAL);
    }

    #[test]
    #[should_panic(expected = "unknown node n7 (only 1 nodes exist)")]
    fn crash_out_of_range_panics_with_clear_message() {
        let mut sim: Sim<Msg, Recorder> = Sim::new(LatencyModel::instant());
        sim.add_node(Recorder::default());
        sim.crash(NodeId(7));
    }

    #[test]
    #[should_panic(expected = "Sim::is_crashed")]
    fn is_crashed_validates_too() {
        let sim: Sim<Msg, Recorder> = Sim::new(LatencyModel::instant());
        sim.is_crashed(NodeId(0));
    }

    /// An actor that arms one timer on the first message and cancels that
    /// (by then long-fired) id on the second — the stale-cancel pattern
    /// that used to leak a permanent `cancelled_timers` entry.
    #[derive(Default)]
    struct StaleCanceller {
        armed: Option<TimerId>,
        fired: usize,
    }
    impl Actor<Msg> for StaleCanceller {
        fn on_message(&mut self, env: &mut Env<'_, Msg>, _from: NodeId, _msg: Msg) {
            match self.armed {
                None => self.armed = Some(env.set_timer(50)),
                Some(id) => env.cancel_timer(id),
            }
        }
        fn on_timer(&mut self, _env: &mut Env<'_, Msg>, _timer: TimerId) {
            self.fired += 1;
        }
    }

    #[test]
    fn stale_cancel_does_not_leak_tombstones() {
        let mut sim: Sim<Msg, StaleCanceller> = Sim::new(LatencyModel::instant());
        let a = sim.add_node(StaleCanceller::default());
        for _ in 0..100 {
            sim.send_external(a, Msg::Hello(0)); // arm
            sim.run_until_idle(); // timer fires
            sim.send_external(a, Msg::Hello(1)); // cancel the fired id
            sim.run_until_idle();
            sim.actor_mut(a).armed = None;
        }
        assert_eq!(sim.actor(a).fired, 100);
        assert!(
            sim.cancelled_timers.is_empty(),
            "stale cancels must not accumulate: {} entries",
            sim.cancelled_timers.len()
        );
        assert!(sim.armed_timers.is_empty());
    }

    #[test]
    fn crash_dropped_timer_drains_tracking_sets() {
        let mut sim: Sim<Msg, TimerNode> = Sim::new(LatencyModel::instant());
        let a = sim.add_node(TimerNode {
            arm: vec![100, 200],
            cancel_first: true, // tombstone for the 100 µs timer
            ..Default::default()
        });
        sim.send_external(a, Msg::Hello(0));
        sim.run_until(50);
        sim.crash(a); // both timer events now pop against a crashed node
        sim.run_until_idle();
        assert!(sim.actor(a).fired.is_empty());
        assert!(
            sim.cancelled_timers.is_empty(),
            "crash-dropped timers must drain their tombstones"
        );
        assert!(sim.armed_timers.is_empty());
    }

    #[test]
    fn replace_installs_fresh_state() {
        let mut sim: Sim<Msg, Recorder> = Sim::new(LatencyModel::instant());
        let a = sim.add_node(Recorder::default());
        sim.send_external(a, Msg::Hello(7));
        sim.run_until_idle();
        assert_eq!(sim.actor(a).seen.len(), 1);
        sim.crash(a);
        sim.replace(a, Recorder::default());
        assert!(!sim.is_crashed(a));
        assert!(sim.actor(a).seen.is_empty());
    }
}
