//! The [`Actor`] trait and the [`Env`] handle actors use to talk to the
//! simulated network.

use lhrs_obs::{Event, Metrics};

use crate::engine::NodeId;
use crate::Payload;

/// Identifier of a pending timer, returned by [`Env::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

/// A node of the simulated multicomputer.
///
/// Actors own private state and react to delivered messages and to their own
/// timers. All effects (sends, new timers) go through the [`Env`]; they are
/// buffered by the engine and applied after the handler returns, keeping the
/// simulation deterministic.
pub trait Actor<M: Payload> {
    /// Handle a message delivered from `from`.
    fn on_message(&mut self, env: &mut Env<'_, M>, from: NodeId, msg: M);

    /// Handle an expired timer set earlier via [`Env::set_timer`].
    fn on_timer(&mut self, env: &mut Env<'_, M>, timer: TimerId) {
        let _ = (env, timer);
    }
}

/// Buffered effect produced by an actor during one handler invocation.
///
/// Effects are the complete vocabulary an actor can use against the outside
/// world, which is what makes actors host-agnostic: the [`crate::Sim`]
/// engine applies them to the discrete-event queue, while an external host
/// (e.g. a socket transport) can drain the same effects from an
/// [`Env::external`] environment and apply them to real connections and
/// wall-clock timers.
#[derive(Debug)]
pub enum Effect<M> {
    /// Unicast `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// One multicast of `msg` delivered to every node in `to`.
    Multicast {
        /// Destination nodes.
        to: Vec<NodeId>,
        /// The message.
        msg: M,
    },
    /// Arm timer `id` to fire on this node after `delay` microseconds.
    SetTimer {
        /// The timer handle returned to the actor.
        id: TimerId,
        /// Delay before firing, µs.
        delay: u64,
    },
    /// Cancel a previously armed timer (no-op if already fired).
    CancelTimer {
        /// The timer to cancel.
        id: TimerId,
    },
}

/// The interface through which an actor interacts with the simulated world:
/// sending messages, multicasting, and managing timers.
pub struct Env<'a, M: Payload> {
    pub(crate) me: NodeId,
    pub(crate) now: u64,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) obs: &'a Metrics,
}

impl<'a, M: Payload> Env<'a, M> {
    /// Build an environment for driving an actor **outside** the [`crate::Sim`]
    /// engine — the hook a real-network host runtime uses to run the very
    /// same actor code over sockets and wall-clock timers.
    ///
    /// `me` is the hosted node's identity, `now` the host's current time in
    /// microseconds, `next_timer` a host-owned counter allocating fresh
    /// [`TimerId`]s, and `effects` the buffer the handler's sends and timer
    /// operations are written into. After the handler returns, the host
    /// drains `effects` and applies each [`Effect`] to its own transport and
    /// timer wheel. The semantics an actor observes are identical to the
    /// simulator's: effects are buffered (never applied re-entrantly), timer
    /// ids are unique per host, and `now()` is stable for the whole handler
    /// invocation.
    ///
    /// `obs` is the host's observability handle; the environment records
    /// `msgs_sent` counters into it exactly as the simulator does, so
    /// instrumentation emitted by actor code behaves identically under both
    /// runtimes. Pass a reference to [`Metrics::disabled`] to opt out.
    pub fn external(
        me: NodeId,
        now: u64,
        next_timer: &'a mut u64,
        effects: &'a mut Vec<Effect<M>>,
        obs: &'a Metrics,
    ) -> Self {
        Env {
            me,
            now,
            next_timer,
            effects,
            obs,
        }
    }

    /// The node this actor runs on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current simulated time (microseconds since simulation start).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The observability handle shared by every node of this runtime.
    /// Counters and trace events recorded through it are visible from the
    /// driver's [`Metrics`] clone (a disabled handle makes this a no-op).
    pub fn obs(&self) -> &Metrics {
        self.obs
    }

    /// Record a structured trace event stamped with this handler's `now()`
    /// — the single call actors use in both the simulator (logical µs) and
    /// the TCP runtime (wall µs since host start).
    pub fn trace(&self, event: Event) {
        self.obs.trace(self.now, event);
    }

    /// Send a unicast message to `to` (counted once in the
    /// `msgs_sent{kind}` and `msgs_sent_bytes` counters).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.obs.incr_kind("msgs_sent", msg.kind());
        self.obs.add("msgs_sent_bytes", msg.size_bytes() as u64);
        self.effects.push(Effect::Send { to, msg });
    }

    /// Send one multicast message to all `to` nodes. The `msgs_sent`
    /// counter tallies one send per recipient, matching how the LH\*
    /// papers cost scan replies; the simulator also counts the multicast
    /// itself once (`multicasts`).
    pub fn multicast(&mut self, to: impl IntoIterator<Item = NodeId>, msg: M) {
        let to: Vec<NodeId> = to.into_iter().collect();
        self.obs.add_kind("msgs_sent", msg.kind(), to.len() as u64);
        self.obs
            .add("msgs_sent_bytes", (msg.size_bytes() * to.len()) as u64);
        self.effects.push(Effect::Multicast { to, msg });
    }

    /// Arm a timer that fires on this node after `delay` simulated
    /// microseconds (unless cancelled or the node crashes).
    pub fn set_timer(&mut self, delay: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer { id, delay });
        id
    }

    /// Cancel a previously armed timer. Cancelling an already-fired or
    /// foreign timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
    }
}
