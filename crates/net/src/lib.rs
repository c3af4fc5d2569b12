//! **lhrs-net** — the real-network backend for the LH\*RS reproduction.
//!
//! The deterministic simulator (`lhrs-sim`) moves `Msg` values in memory;
//! this crate runs the *unchanged* `lhrs-core` node logic as actual
//! distributed processes over TCP. The seam is the actor abstraction:
//! nodes only ever talk to the world through buffered
//! [`Effect`](lhrs_sim::Effect)s, so a host runtime that drains the same
//! effects into sockets and wall-clock timers executes bit-for-bit the
//! same protocol code the simulator does.
//!
//! | module | role |
//! |--------|------|
//! | [`frame`] | length-prefixed frames over the `lhrs_core::wire` codec, plus allocation-table snapshots |
//! | [`transport`] | the [`Transport`](transport::Transport) trait, [`TcpTransport`](transport::TcpTransport) (lazy connect, reconnect, write buffering, inbound read on the host thread through one `poll(2)` wait), and the in-process [`LoopbackNet`](transport::LoopbackNet) |
//! | [`host`] | [`NodeHost`](host::NodeHost): sim-identical `Env` semantics (send, min-heap timers, `now()`) over a transport |
//! | [`cluster`] | the cluster spec: node ids, addresses, roles, config — shared by every process |
//! | [`client`] | [`NetClient`](client::NetClient): synchronous client ops over a hosted client node |
//! | [`demo`] | the multi-process kill-a-bucket-and-recover demo driver (used by the smoke test and `examples/net_cluster.rs`) |
//!
//! # Allocation-table sync
//!
//! The simulator shares one registry between all nodes; real processes
//! can't. The process hosting the coordinator is **authoritative**: after
//! every dispatch that changed the table it broadcasts a versioned
//! full-snapshot [`frame::RegistryUpdate`] to every peer *before* that
//! dispatch's protocol messages are written, so per-connection TCP FIFO
//! guarantees dependent messages arrive after the table state they
//! presuppose. A periodic heartbeat rebroadcast heals lost updates, a
//! `RegistryPull` frame lets a fresh client sync at startup, and receivers
//! apply only strictly newer versions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

lhrs_core::audited! {
    pub mod durable;
    pub mod frame;
    pub mod host;
    pub mod transport;
}
pub mod client;
pub mod cluster;
pub mod demo;
