//! Deterministic discrete-event multicomputer simulator for SDDS
//! experiments.
//!
//! The LH\* papers evaluate on a physical multicomputer (autonomous servers
//! on a LAN). This crate substitutes a **deterministic, single-threaded
//! discrete-event simulation** of that multicomputer: nodes are [`Actor`]s
//! with private state, they communicate *only* by messages, message delivery
//! is delayed by a configurable [`LatencyModel`], and whole nodes can be
//! crashed and restarted. Two properties make this the right substrate for
//! reproducing the paper:
//!
//! 1. The SDDS literature's primary metric is the **number of messages** per
//!    operation, chosen exactly because it is network-speed invariant. The
//!    simulator counts every message by kind (`msgs_sent{kind}` in the
//!    run's [`Sim::metrics`]), so the paper's tables are regenerated
//!    exactly rather than approximated.
//! 2. Events are totally ordered by `(time, sequence-number)`, so every
//!    experiment — including failure drills — is **reproducible bit for
//!    bit**, something the original testbed could not offer.
//!
//! # Example: ping-pong between two actors
//!
//! ```
//! use lhrs_sim::{Actor, Env, NodeId, Payload, Sim};
//!
//! #[derive(Clone, Debug)]
//! enum Msg { Ping(u32), Pong(u32) }
//! impl Payload for Msg {
//!     fn kind(&self) -> &'static str {
//!         match self { Msg::Ping(_) => "ping", Msg::Pong(_) => "pong" }
//!     }
//! }
//!
//! struct Node { got: Option<u32> }
//! impl Actor<Msg> for Node {
//!     fn on_message(&mut self, env: &mut Env<'_, Msg>, from: NodeId, msg: Msg) {
//!         match msg {
//!             Msg::Ping(x) => env.send(from, Msg::Pong(x + 1)),
//!             Msg::Pong(x) => self.got = Some(x),
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(Default::default());
//! let a = sim.add_node(Node { got: None });
//! let b = sim.add_node(Node { got: None });
//! sim.send_as(a, b, Msg::Ping(41));
//! sim.run_until_idle();
//! assert_eq!(sim.actor(a).got, Some(42));
//! assert_eq!(sim.metrics().snapshot().count("ping"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod engine;
mod faults;
mod latency;

pub use actor::{Actor, Effect, Env, TimerId};
pub use engine::{NodeId, Sim, EXTERNAL};
pub use faults::{FaultPlan, Partition, PERMILLE};
pub use latency::LatencyModel;

/// Message payloads carried by the simulator.
///
/// `kind` labels the message for per-kind accounting (`msgs_sent{kind}`);
/// `size_bytes` feeds the latency model's per-byte term and the byte
/// tallies.
pub trait Payload: Clone + std::fmt::Debug {
    /// Accounting label, e.g. `"key-search"` or `"parity-delta"`.
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// Approximate wire size; 0 is fine when only message counts matter.
    fn size_bytes(&self) -> usize {
        0
    }
}
