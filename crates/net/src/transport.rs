//! Message transports: real TCP and an in-process loopback.
//!
//! A [`Transport`] is the outbound half a [`crate::host::NodeHost`] writes
//! to; the inbound half is a shared mpsc channel of [`HostEvent`]s fed by
//! reader threads (TCP) or directly by peer hosts (loopback). Delivery is
//! deliberately best-effort — a send to an unreachable peer is dropped and
//! counted, because the protocol stack above (client retries, replay
//! caches, Δ retransmission, coordinator timeouts) is already built to
//! heal message loss.

use std::collections::{HashMap, HashSet};
use std::io::{BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lhrs_core::msg::Msg;
use lhrs_core::wire::{decode_msg, encode_msg};
use lhrs_obs::{Event as ObsEvent, Metrics};
use lhrs_sim::NodeId;

use crate::frame::{encode_frame, write_frame, Frame, FrameAccumulator, FrameType, RegistryUpdate};

/// An inbound event delivered to a node host.
#[derive(Debug)]
pub enum HostEvent {
    /// A protocol message for a locally hosted node.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// Destination node (hosted here).
        to: NodeId,
        /// The message.
        msg: Msg,
    },
    /// An allocation-table snapshot from the authoritative host.
    Registry(RegistryUpdate),
    /// A peer asks for the current allocation table (authoritative hosts
    /// answer, everyone else ignores).
    RegistryPull {
        /// The node to send the table to.
        from: NodeId,
    },
    /// Stop the host loop.
    Shutdown,
}

/// The outbound interface a node host writes protocol traffic to. Sends
/// are best-effort; every dropped frame, registry traffic included, counts
/// in the `net_send_drops` obs counter.
pub trait Transport {
    /// Send one protocol message.
    fn send_msg(&mut self, from: NodeId, to: NodeId, msg: &Msg);
    /// Send an allocation-table snapshot to one peer.
    fn send_registry(&mut self, to: NodeId, update: &RegistryUpdate);
    /// Ask `to` (the authoritative host) for the current table.
    fn send_registry_pull(&mut self, from: NodeId, to: NodeId);
    /// Send an allocation-table snapshot to every known remote peer.
    /// Written before any queued protocol frames are flushed, so FIFO
    /// per-connection delivery orders the table ahead of messages that
    /// presuppose it.
    fn broadcast_registry(&mut self, from: NodeId, update: &RegistryUpdate);
    /// Flush buffered writes to the wire.
    fn flush(&mut self);
}

// ----- TCP -----

/// Reader shards per process: accepted connections are spread round-robin
/// over this many event-driven reader threads, each polling its
/// connections with nonblocking reads. Inbound capacity no longer costs a
/// thread per client, so one node sustains thousands of concurrent
/// pipelined connections on a fixed thread budget.
const READER_SHARDS: usize = 4;

/// TCP transport: one lazily connected, write-buffered outbound connection
/// per peer address; inbound via one listener per hosted node feeding a
/// fixed pool of [`READER_SHARDS`] nonblocking reader shards, all feeding
/// the host's event channel.
pub struct TcpTransport {
    /// Peer node → address (includes local nodes; those are skipped).
    peers: HashMap<u32, String>,
    /// Locally hosted nodes (never connected to).
    local: HashSet<u32>,
    /// Open outbound connections by address.
    conns: HashMap<String, BufWriter<TcpStream>>,
    /// Addresses with unflushed writes.
    dirty: HashSet<String>,
    /// Observability handle; clones live in every reader thread, which is
    /// also what lets those threads answer `STATS` pulls in place.
    obs: Metrics,
}

/// How long an outbound connect may take before the send is dropped.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

impl TcpTransport {
    /// Bind a listener for every `(node, addr)` in `local`, spawn the
    /// accept/reader threads feeding `tx`, and return the outbound half.
    /// `peers` maps every node of the cluster to its address.
    pub fn start(
        local: &[(u32, String)],
        peers: HashMap<u32, String>,
        tx: Sender<HostEvent>,
    ) -> std::io::Result<TcpTransport> {
        TcpTransport::start_with_metrics(local, peers, tx, Metrics::disabled())
    }

    /// Like [`TcpTransport::start`], with an observability handle. The
    /// transport tallies frame/byte/drop/reconnect counters into it, and
    /// every reader thread answers inbound [`FrameType::StatsPull`] frames
    /// with a Prometheus snapshot of it — the `STATS` command.
    pub fn start_with_metrics(
        local: &[(u32, String)],
        peers: HashMap<u32, String>,
        tx: Sender<HostEvent>,
        obs: Metrics,
    ) -> std::io::Result<TcpTransport> {
        // One shared shard pool per process, however many listeners the
        // process binds; spawned only when there is something to listen on.
        let mut shard_txs: Vec<Sender<TcpStream>> = Vec::new();
        if !local.is_empty() {
            for _ in 0..READER_SHARDS {
                let (stx, srx) = std::sync::mpsc::channel();
                let tx = tx.clone();
                let obs = obs.clone();
                std::thread::spawn(move || shard_loop(srx, tx, obs));
                shard_txs.push(stx);
            }
        }
        for (_, addr) in local {
            let listener = TcpListener::bind(addr)?;
            let shard_txs = shard_txs.clone();
            std::thread::spawn(move || accept_loop(listener, shard_txs));
        }
        Ok(TcpTransport {
            peers,
            local: local.iter().map(|(id, _)| *id).collect(),
            conns: HashMap::new(),
            dirty: HashSet::new(),
            obs,
        })
    }

    /// Write `bytes` to the connection for `addr`, connecting lazily and
    /// retrying once through a reconnect. Returns false when the peer is
    /// unreachable (the frame is dropped).
    fn write_to(&mut self, addr: &str, bytes: &[u8]) -> bool {
        let mut was_connected = false;
        for _attempt in 0..2 {
            if let Some(w) = self.conns.get(addr) {
                // Outbound connections are write-only in this protocol —
                // the peer replies over its own connection to our listener
                // — so any readability here is a FIN or RST: the peer
                // process went away (or restarted) since our last write.
                // Writes into such a half-dead socket "succeed" at the OS
                // level and vanish; detect it now and reconnect instead.
                match conn_staleness(w.get_ref()) {
                    Staleness::Healthy => {}
                    Staleness::Closed => {
                        self.conns.remove(addr);
                        was_connected = true;
                    }
                    Staleness::StrayData => {
                        // Bytes arrived on a write-only connection — e.g.
                        // a reply to an *older* request whose reader is
                        // long gone. They die with the closed socket:
                        // drop-and-count, never deliver them to whoever
                        // reads the replacement connection.
                        self.obs.incr("net_stale_replies_dropped");
                        self.conns.remove(addr);
                        was_connected = true;
                    }
                }
            }
            if !self.conns.contains_key(addr) {
                match TcpStream::connect_timeout(
                    &match addr.parse() {
                        Ok(a) => a,
                        Err(_) => return false,
                    },
                    CONNECT_TIMEOUT,
                ) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        if was_connected {
                            self.obs.incr("net_reconnects");
                        }
                        self.conns.insert(addr.to_string(), BufWriter::new(stream));
                    }
                    Err(_) => return false,
                }
            }
            let ok = self
                .conns
                .get_mut(addr)
                .map(|w| w.write_all(bytes).is_ok())
                .unwrap_or(false);
            if ok {
                self.dirty.insert(addr.to_string());
                self.obs.add("net_sent_bytes", bytes.len() as u64);
                return true;
            }
            // Broken pipe: drop the connection and retry once fresh.
            self.conns.remove(addr);
            was_connected = true;
        }
        false
    }

    fn send_frame(&mut self, ftype: FrameType, from: NodeId, to: NodeId, payload: &[u8]) {
        let Some(addr) = self.peers.get(&to.0).cloned() else {
            self.obs.incr("net_send_drops");
            return;
        };
        let bytes = encode_frame(ftype, from, to, payload);
        self.obs.incr("net_frames_sent");
        if !self.write_to(&addr, &bytes) {
            self.obs.incr("net_send_drops");
        }
    }
}

/// What a nonblocking 1-byte peek on an idle outbound connection reveals.
enum Staleness {
    /// `WouldBlock`: nothing to read on a write-only connection — healthy.
    Healthy,
    /// EOF or a socket error: the peer closed or reset since our last
    /// write.
    Closed,
    /// Readable bytes: protocol-violating data on a write-only connection
    /// (typically a late reply to an older request). The connection is
    /// dead to us, and the bytes must be dropped and counted — never
    /// delivered.
    StrayData,
}

fn conn_staleness(stream: &TcpStream) -> Staleness {
    if stream.set_nonblocking(true).is_err() {
        return Staleness::Closed;
    }
    let mut probe = [0u8; 1];
    let staleness = match stream.peek(&mut probe) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Staleness::Healthy,
        Ok(0) | Err(_) => Staleness::Closed,
        Ok(_) => Staleness::StrayData,
    };
    let _ = stream.set_nonblocking(false);
    staleness
}

fn accept_loop(listener: TcpListener, shard_txs: Vec<Sender<TcpStream>>) {
    let mut next = 0usize;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let Some(shard) = shard_txs.get(next % shard_txs.len().max(1)) else {
            return;
        };
        if shard.send(stream).is_err() {
            return; // shard pool gone: process shutting down
        }
        next = next.wrapping_add(1);
    }
}

/// One connection owned by a reader shard.
struct ShardConn {
    stream: TcpStream,
    acc: FrameAccumulator,
}

/// Ceiling of a shard's idle backoff between poll sweeps.
const SHARD_IDLE_MAX: Duration = Duration::from_millis(2);

/// One event-driven reader shard: adopt connections from `rx`, sweep them
/// with nonblocking reads, decode frames incrementally, and feed the host
/// channel. An idle shard backs off (up to [`SHARD_IDLE_MAX`]) inside
/// `recv_timeout`, so waiting costs no CPU yet newly accepted connections
/// are adopted immediately.
fn shard_loop(rx: Receiver<TcpStream>, tx: Sender<HostEvent>, obs: Metrics) {
    let mut conns: Vec<ShardConn> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut accepting = true;
    let mut idle_wait = Duration::from_micros(100);
    loop {
        while accepting {
            match rx.try_recv() {
                Ok(stream) => conns.push(ShardConn {
                    stream,
                    acc: FrameAccumulator::new(),
                }),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => accepting = false,
            }
        }
        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            let Some(conn) = conns.get_mut(i) else { break };
            match service_conn(conn, &mut scratch, &tx, &obs) {
                ConnState::Idle => i += 1,
                ConnState::Progressed => {
                    progress = true;
                    i += 1;
                }
                ConnState::Dead => {
                    conns.swap_remove(i);
                }
            }
        }
        if progress {
            idle_wait = Duration::from_micros(100);
            continue;
        }
        if conns.is_empty() && !accepting {
            return;
        }
        // Nothing readable: sleep with exponential backoff, waking early
        // for a newly accepted connection.
        idle_wait = (idle_wait * 2).min(SHARD_IDLE_MAX);
        if accepting {
            match rx.recv_timeout(idle_wait) {
                Ok(stream) => conns.push(ShardConn {
                    stream,
                    acc: FrameAccumulator::new(),
                }),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => accepting = false,
            }
        } else {
            std::thread::sleep(idle_wait);
        }
    }
}

/// Outcome of one nonblocking service pass over a connection.
enum ConnState {
    /// Nothing to read.
    Idle,
    /// At least one byte was consumed.
    Progressed,
    /// EOF, a socket error, a corrupt stream, or the host went away.
    Dead,
}

/// Drain whatever the socket has ready, decoding and dispatching every
/// complete frame.
fn service_conn(
    conn: &mut ShardConn,
    scratch: &mut [u8],
    tx: &Sender<HostEvent>,
    obs: &Metrics,
) -> ConnState {
    let mut progressed = false;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => return ConnState::Dead, // clean EOF
            Ok(n) => {
                progressed = true;
                conn.acc.extend(scratch.get(..n).unwrap_or(&[]));
                loop {
                    match conn.acc.next_frame() {
                        Ok(Some(frame)) => {
                            if !handle_frame(frame, &mut conn.stream, tx, obs) {
                                return ConnState::Dead;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // A desynced stream has no recovery point.
                            obs.incr("net_decode_errors");
                            obs.trace_now(ObsEvent::DecodeError {
                                context: "inbound frame".to_string(),
                            });
                            return ConnState::Dead;
                        }
                    }
                }
                if n < scratch.len() {
                    // Socket drained (short read): yield to the next conn.
                    return ConnState::Progressed;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return if progressed {
                    ConnState::Progressed
                } else {
                    ConnState::Idle
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ConnState::Dead,
        }
    }
}

/// Dispatch one decoded frame; returns whether the connection stays up.
fn handle_frame(
    frame: Frame,
    stream: &mut TcpStream,
    tx: &Sender<HostEvent>,
    obs: &Metrics,
) -> bool {
    obs.incr("net_frames_recv");
    let event = match frame.ftype {
        FrameType::Msg => match decode_msg(&frame.payload) {
            Ok(msg) => HostEvent::Deliver {
                from: frame.from,
                to: frame.to,
                msg,
            },
            Err(_) => {
                // Defensive: skip undecodable frames.
                obs.incr("net_decode_errors");
                obs.trace_now(ObsEvent::DecodeError {
                    context: "message payload".to_string(),
                });
                return true;
            }
        },
        FrameType::Registry => match RegistryUpdate::decode(&frame.payload) {
            Ok(up) => HostEvent::Registry(up),
            Err(_) => {
                obs.incr("net_decode_errors");
                obs.trace_now(ObsEvent::DecodeError {
                    context: "registry payload".to_string(),
                });
                return true;
            }
        },
        FrameType::RegistryPull => HostEvent::RegistryPull { from: frame.from },
        FrameType::StatsPull => {
            // The `STATS` command: answered right here on the same
            // connection so operator tooling (`lhrs-netcli stats`) needs
            // no listener and gets a reply even while the host loop is
            // busy. The socket flips to blocking for the write — a reply
            // is small and the puller is actively reading.
            obs.incr("net_stats_pulls");
            let snapshot = obs.render_prometheus();
            if stream.set_nonblocking(false).is_err() {
                return false;
            }
            let ok = write_frame(
                stream,
                FrameType::StatsReply,
                frame.to,
                frame.from,
                snapshot.as_bytes(),
            )
            .and_then(|_| stream.flush())
            .is_ok();
            if stream.set_nonblocking(true).is_err() {
                return false;
            }
            return ok;
        }
        // A reply frame is only meaningful to the puller, which reads its
        // connection directly; a host receiving one ignores it.
        FrameType::StatsReply => return true,
    };
    tx.send(event).is_ok()
}

impl Transport for TcpTransport {
    fn send_msg(&mut self, from: NodeId, to: NodeId, msg: &Msg) {
        let payload = encode_msg(msg);
        self.send_frame(FrameType::Msg, from, to, &payload);
    }

    fn send_registry(&mut self, to: NodeId, update: &RegistryUpdate) {
        let payload = update.encode();
        self.send_frame(FrameType::Registry, update.coordinator, to, &payload);
    }

    fn send_registry_pull(&mut self, from: NodeId, to: NodeId) {
        self.send_frame(FrameType::RegistryPull, from, to, &[]);
    }

    fn broadcast_registry(&mut self, from: NodeId, update: &RegistryUpdate) {
        let payload = update.encode();
        // One frame per distinct remote address (a process applies the
        // snapshot once regardless of how many nodes it hosts).
        let mut sent: HashSet<String> = HashSet::new();
        let targets: Vec<(u32, String)> = self
            .peers
            .iter()
            .filter(|(id, _)| !self.local.contains(id))
            .map(|(id, addr)| (*id, addr.clone()))
            .collect();
        for (id, addr) in targets {
            if sent.insert(addr.clone()) {
                let bytes = encode_frame(FrameType::Registry, from, NodeId(id), &payload);
                if !self.write_to(&addr, &bytes) {
                    self.obs.incr("net_send_drops");
                }
            }
        }
    }

    fn flush(&mut self) {
        let dirty: Vec<String> = self.dirty.drain().collect();
        for addr in dirty {
            let ok = self
                .conns
                .get_mut(&addr)
                .map(|w| w.flush().is_ok())
                .unwrap_or(true);
            if !ok {
                self.conns.remove(&addr);
            }
        }
    }
}

// ----- in-process loopback -----

type RouteTable = Arc<Mutex<HashMap<u32, Sender<HostEvent>>>>;

/// The in-process "network": node → host event channel. Clone freely; all
/// clones share the same routing table. Used for multi-threaded
/// benchmarking and tests without the kernel in the way.
#[derive(Clone, Default)]
pub struct LoopbackNet {
    routes: RouteTable,
    /// Bumped (under the routes lock) on every register/unregister, so
    /// transports can cache the table between topology changes instead of
    /// taking the shared lock on every message.
    version: Arc<AtomicU64>,
}

impl LoopbackNet {
    /// An empty network.
    pub fn new() -> Self {
        LoopbackNet::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u32, Sender<HostEvent>>> {
        // A panicked host thread must not take the whole network down.
        self.routes.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a host's event channel as the destination for `ids`.
    pub fn register(&self, ids: &[u32], tx: Sender<HostEvent>) {
        let mut map = self.lock();
        for id in ids {
            map.insert(*id, tx.clone());
        }
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Remove nodes from the routing table (simulates a dead host: sends
    /// to it are dropped from then on).
    pub fn unregister(&self, ids: &[u32]) {
        let mut map = self.lock();
        for id in ids {
            map.remove(id);
        }
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// The current topology version (see `version` field).
    fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// A copy of the current routing table.
    fn snapshot_routes(&self) -> HashMap<u32, Sender<HostEvent>> {
        self.lock().clone()
    }

    fn all_ids(&self) -> Vec<u32> {
        self.lock().keys().copied().collect()
    }
}

/// One host's outbound handle onto a [`LoopbackNet`]. Every message still
/// round-trips through the wire codec (encode then decode), so the
/// loopback path exercises exactly the bytes TCP would carry.
pub struct LoopbackTransport {
    net: LoopbackNet,
    local: HashSet<u32>,
    obs: Metrics,
    /// Routing-table cache, refreshed when the net's version moves: sends
    /// between topology changes take no shared lock.
    cached_routes: HashMap<u32, Sender<HostEvent>>,
    cached_version: u64,
}

impl LoopbackTransport {
    /// A transport for the host carrying `local` nodes.
    pub fn new(net: LoopbackNet, local: &[u32]) -> Self {
        LoopbackTransport::with_metrics(net, local, Metrics::disabled())
    }

    /// Like [`LoopbackTransport::new`], tallying the same frame counters a
    /// [`TcpTransport`] would into `obs`.
    pub fn with_metrics(net: LoopbackNet, local: &[u32], obs: Metrics) -> Self {
        LoopbackTransport {
            net,
            local: local.iter().copied().collect(),
            obs,
            cached_routes: HashMap::new(),
            cached_version: u64::MAX, // miss on first send
        }
    }

    /// Deliver through the cached routing table, refreshing it when the
    /// topology version moved. A victim of a concurrent kill disappears
    /// either via the refresh or via its dropped receiver — both count as
    /// a send drop, like a packet in flight when a host dies.
    fn send_cached(&mut self, to: u32, event: HostEvent) -> bool {
        let version = self.net.version();
        if version != self.cached_version {
            self.cached_routes = self.net.snapshot_routes();
            self.cached_version = version;
        }
        match self.cached_routes.get(&to) {
            Some(tx) => tx.send(event).is_ok(),
            None => false,
        }
    }
}

impl Transport for LoopbackTransport {
    fn send_msg(&mut self, from: NodeId, to: NodeId, msg: &Msg) {
        // Codec honesty: ship the decoded re-materialization, not the
        // original value.
        let bytes = encode_msg(msg);
        self.obs.incr("net_frames_sent");
        self.obs.add("net_sent_bytes", bytes.len() as u64);
        // A message our own codec cannot re-decode would also be
        // undeliverable over TCP: count it as a drop (the sender's retry
        // machinery handles it) instead of aborting the host.
        let Ok(msg) = decode_msg(&bytes) else {
            self.obs.incr("net_decode_errors");
            return;
        };
        if !self.send_cached(to.0, HostEvent::Deliver { from, to, msg }) {
            self.obs.incr("net_send_drops");
        }
    }

    fn send_registry(&mut self, to: NodeId, update: &RegistryUpdate) {
        let Ok(up) = RegistryUpdate::decode(&update.encode()) else {
            self.obs.incr("net_decode_errors");
            return;
        };
        if !self.send_cached(to.0, HostEvent::Registry(up)) {
            self.obs.incr("net_send_drops");
        }
    }

    fn send_registry_pull(&mut self, from: NodeId, to: NodeId) {
        if !self.send_cached(to.0, HostEvent::RegistryPull { from }) {
            self.obs.incr("net_send_drops");
        }
    }

    fn broadcast_registry(&mut self, _from: NodeId, update: &RegistryUpdate) {
        for id in self.net.all_ids() {
            if !self.local.contains(&id) {
                self.send_registry(NodeId(id), update);
            }
        }
    }

    fn flush(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhrs_obs::Clock;

    fn update() -> RegistryUpdate {
        RegistryUpdate {
            version: 1,
            coordinator: NodeId(1),
            data: vec![NodeId(7)],
            parity: Vec::new(),
        }
    }

    /// A registry frame to a peer whose host is gone is a send drop the
    /// operator can see in `STATS`, like a dropped protocol message.
    #[test]
    fn registry_frames_to_a_dead_host_count_as_send_drops() {
        let net = LoopbackNet::new();
        let (tx, rx) = std::sync::mpsc::channel();
        net.register(&[7], tx);
        let obs = Metrics::new(Clock::logical());
        let mut t = LoopbackTransport::with_metrics(net.clone(), &[1], obs.clone());
        let update = update();

        t.send_registry(NodeId(7), &update);
        assert!(matches!(rx.try_recv(), Ok(HostEvent::Registry(up)) if up == update));
        assert_eq!(obs.counter("net_send_drops"), 0);

        // The host dies with its receiver; then it leaves the table too.
        drop(rx);
        t.broadcast_registry(NodeId(1), &update);
        assert_eq!(obs.counter("net_send_drops"), 1);
        net.unregister(&[7]);
        t.send_registry(NodeId(7), &update);
        t.send_registry_pull(NodeId(1), NodeId(7));
        assert_eq!(obs.counter("net_send_drops"), 3);
    }

    #[test]
    fn tcp_registry_broadcast_to_an_unreachable_peer_counts_as_a_send_drop() {
        // An address that cannot even be parsed: unreachable without
        // touching a socket (a closed port could be re-bound by a test
        // running in parallel).
        let peers = HashMap::from([(7, "nowhere".to_string())]);
        let (tx, _rx) = std::sync::mpsc::channel();
        let obs = Metrics::new(Clock::logical());
        let mut t = TcpTransport::start_with_metrics(&[], peers, tx, obs.clone()).expect("start");
        t.broadcast_registry(NodeId(1), &update());
        assert_eq!(obs.counter("net_send_drops"), 1);
    }
}
