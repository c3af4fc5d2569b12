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
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use lhrs_core::msg::Msg;
use lhrs_core::wire::{decode_msg, encode_msg, encode_msg_into};
use lhrs_obs::{Event as ObsEvent, Metrics};
use lhrs_sim::NodeId;

use crate::frame::{
    decode_hosted, encode_frame_into, hosted_payload, read_frame, write_frame, Frame,
    FrameAccumulator, FrameType, RegistryUpdate,
};

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
/// are best-effort; every frame dropped for want of a connection, registry
/// traffic included, counts in the `net_send_drops` obs counter (as does,
/// once, a connection lost with a batch in it).
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

/// How long an outbound connect, and the hello exchange after it, may
/// each take before the send is dropped.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// How much write buffer a connection keeps between batches: one huge
/// frame (a shard transfer) must not pin its size on every connection.
const BUF_KEEP: usize = 64 * 1024;

/// The longest a silent peer is left alone between dials: the wait doubles
/// from [`CONNECT_TIMEOUT`] up to this, one timeout in seventeen.
const BACKOFF_MAX: Duration = Duration::from_secs(4);

/// How long [`TcpTransport::shutdown`] waits for its threads to exit
/// before leaving them behind.
const JOIN_TIMEOUT: Duration = Duration::from_secs(1);

/// TCP transport. Outbound: one lazily dialed connection per peer
/// *process* — the dialer's [`FrameType::Hello`] is answered with the
/// nodes that process hosts, and every frame for any of them shares the
/// socket — written once per poll batch. Inbound: one listener per hosted
/// node, and per accepted connection one reader thread that sleeps in
/// `read` until bytes arrive and feeds the host's event channel.
pub struct TcpTransport {
    /// Node → address: where to dial a node no open connection reaches.
    peers: HashMap<u32, String>,
    /// Open outbound connections, keyed by the node whose address was
    /// dialed.
    conns: HashMap<u32, Conn>,
    /// Node → key of the connection that last reached it: the dialed node
    /// plus every node the `HelloReply` named. Nothing is sent by a route
    /// whose connection is gone, but it still says who shares a process:
    /// a redial is known to be one, and silence covers all of its nodes.
    routes: HashMap<u32, u32>,
    /// Peer processes (by the route key of a node, or the node itself if
    /// never reached) that accepted nothing or answered no hello: when to
    /// touch a socket for them again, and how long that wait was. A silent
    /// peer costs the host thread one timeout per period, not per frame.
    down: HashMap<u32, (Instant, Duration)>,
    inbound: Arc<Inbound>,
    /// Per hosted node, in `start` order: the listener's bound address. A
    /// connection to it wakes the accept thread.
    listeners: Vec<SocketAddr>,
    /// Disconnects once every accept and reader thread has let go of its
    /// socket and returned.
    exited: Receiver<()>,
}

/// One outbound connection. Write-only after the hello exchange: the peer
/// replies over its own connection to our listener.
struct Conn {
    stream: TcpStream,
    /// Frames encoded since the last flush: a poll batch is one `write`.
    buf: Vec<u8>,
}

/// What a transport shares with its accept and reader threads.
struct Inbound {
    tx: Sender<HostEvent>,
    /// Observability handle; reader threads answer `STATS` pulls from it.
    obs: Metrics,
    /// The nodes this process hosts: the `HelloReply` payload.
    hosted: Vec<NodeId>,
    /// Per live reader thread, a second handle onto its socket: shutting
    /// that down is what wakes a reader blocked in `read`. `None` once the
    /// transport has shut down.
    readers: Mutex<Option<Readers>>,
}

type Readers = HashMap<ThreadId, TcpStream>;

impl Inbound {
    fn readers(&self) -> MutexGuard<'_, Option<Readers>> {
        // The map is only inserted into and removed from: valid at every
        // step, so a panicked reader must not wedge shutdown.
        self.readers.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn decode_error(&self, context: &str) {
        self.obs.incr("net_decode_errors");
        self.obs.trace_now(ObsEvent::DecodeError {
            context: context.to_string(),
        });
    }
}

impl TcpTransport {
    /// Bind a listener for every `(node, addr)` in `local`, spawn the
    /// accept threads feeding `tx`, and return the outbound half.
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
        let (exited_tx, exited) = std::sync::mpsc::channel();
        let mut transport = TcpTransport {
            peers,
            conns: HashMap::new(),
            routes: HashMap::new(),
            down: HashMap::new(),
            inbound: Arc::new(Inbound {
                tx,
                obs,
                hosted: local.iter().map(|(id, _)| NodeId(*id)).collect(),
                readers: Mutex::new(Some(HashMap::new())),
            }),
            listeners: Vec::new(),
            exited,
        };
        // A failed bind drops `transport`, which stops the threads spawned
        // for the listeners before it.
        for (node, addr) in local {
            let listener = TcpListener::bind(addr)?;
            let bound = listener.local_addr()?;
            let (inbound, exited_tx) = (Arc::clone(&transport.inbound), exited_tx.clone());
            // `accept_loop` closes the listener before the latch lets go.
            std::thread::Builder::new()
                .name(format!("lhrs-accept-{node}"))
                .spawn(move || accept_loop(listener, inbound, &exited_tx))?;
            transport.listeners.push(bound);
        }
        Ok(transport)
    }

    /// Stop every accept and reader thread and close the listeners; also
    /// runs on drop. Never blocks exit: each thread is woken — an accept
    /// thread by a connection to its own listener, a reader by shutting
    /// its socket down — and all together are awaited at most one second.
    pub fn shutdown(&mut self) {
        // An accept thread spawns a reader only into a map it finds under
        // this lock, so every reader is either in `readers` now or never
        // started.
        let Some(readers) = self.inbound.readers().take() else {
            return; // already shut down
        };
        for addr in &self.listeners {
            let _ = TcpStream::connect_timeout(addr, CONNECT_TIMEOUT);
        }
        for wake in readers.values() {
            let _ = wake.shutdown(Shutdown::Both);
        }
        let _ = self.exited.recv_timeout(JOIN_TIMEOUT);
    }

    /// The key of the open connection that reaches `to`.
    fn route(&self, to: u32) -> Option<u32> {
        let key = *self.routes.get(&to)?;
        self.conns.contains_key(&key).then_some(key)
    }

    /// Dial `to`'s address and exchange hellos. On success the connection
    /// is open under key `to` and routes every node the peer hosts.
    fn dial(&mut self, from: NodeId, to: u32) -> bool {
        let process = self.routes.get(&to).copied().unwrap_or(to);
        let down = self.down.get(&process).copied();
        if down.is_some_and(|(retry_at, _)| Instant::now() < retry_at) {
            return false;
        }
        let Some(addr) = self.peers.get(&to).and_then(|a| a.parse().ok()) else {
            return false;
        };
        match hello(&addr, from, NodeId(to)) {
            Ok((conn, hosted)) => {
                // A node reached before, over a connection since closed.
                if self.routes.contains_key(&to) {
                    self.inbound.obs.incr("net_reconnects");
                }
                for node in hosted.iter().map(|n| n.0).chain([to]) {
                    self.routes.insert(node, to);
                }
                self.conns.insert(to, conn);
                self.down.remove(&process);
                true
            }
            // Nobody listening: found out in microseconds, and the peer may
            // bind at any moment (a coordinator's first broadcast reaches
            // for clients that have not started), so ask again next frame.
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => false,
            Err(e) => {
                if matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof) {
                    self.inbound.decode_error("hello reply");
                }
                // No node that shared `to`'s last connection is dialed
                // meanwhile: they are behind the same silence.
                let twice = |(_, waited): (_, Duration)| waited.saturating_mul(2);
                let wait = down.map_or(CONNECT_TIMEOUT, twice).min(BACKOFF_MAX);
                if let Some(retry_at) = Instant::now().checked_add(wait) {
                    self.down.insert(process, (retry_at, wait));
                }
                false
            }
        }
    }

    /// The connection that reaches `to`, dialed if there is none, ready
    /// for one more frame. Staleness is checked once per batch, before the
    /// first frame goes into an idle connection.
    fn conn_for(&mut self, from: NodeId, to: u32) -> Option<&mut Conn> {
        let mut key = self.route(to);
        let stale = key
            .and_then(|k| self.conns.get(&k))
            .is_some_and(|c| c.buf.is_empty() && conn_is_stale(&c.stream, &self.inbound.obs));
        if let Some(k) = key.take_if(|_| stale) {
            self.conns.remove(&k);
        }
        if key.is_none() && !self.dial(from, to) {
            return None;
        }
        self.conns.get_mut(&key.unwrap_or(to))
    }

    /// Encode one frame into the write buffer of the connection to `to`;
    /// it reaches the wire at the next [`Transport::flush`].
    fn send_frame(
        &mut self,
        ftype: FrameType,
        from: NodeId,
        to: NodeId,
        payload: impl FnOnce(&mut Vec<u8>),
    ) {
        let Some(conn) = self.conn_for(from, to.0) else {
            self.inbound.obs.incr("net_send_drops");
            return;
        };
        let before = conn.buf.len();
        encode_frame_into(&mut conn.buf, ftype, from, to, payload);
        let sent = conn.buf.len().saturating_sub(before);
        self.inbound.obs.incr("net_frames_sent");
        self.inbound.obs.add("net_sent_bytes", sent as u64);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Connect to `addr` and learn which nodes the process behind it hosts.
fn hello(addr: &SocketAddr, from: NodeId, to: NodeId) -> std::io::Result<(Conn, Vec<NodeId>)> {
    let mut stream = TcpStream::connect_timeout(addr, CONNECT_TIMEOUT)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(CONNECT_TIMEOUT))?;
    write_frame(&mut stream, FrameType::Hello, from, to, &[])?;
    let reply = read_frame(&mut stream)?.ok_or(ErrorKind::UnexpectedEof)?;
    let hosted = decode_hosted(&reply.payload).ok();
    let hosted = hosted.filter(|_| reply.ftype == FrameType::HelloReply);
    let buf = Vec::new();
    Ok((Conn { stream, buf }, hosted.ok_or(ErrorKind::InvalidData)?))
}

/// Whether an idle outbound connection is dead. It is write-only — the
/// peer replies over its own connection to our listener — so a nonblocking
/// peek that finds anything but `WouldBlock` means the peer process went
/// away (or restarted) since our last write: EOF, a reset, or bytes nobody
/// may send here (a late reply to an older request; counted, and closed
/// with the socket so they never reach whoever reads the replacement).
/// Writes into such a half-dead socket "succeed" at the OS level and
/// vanish, which is why this runs before them.
fn conn_is_stale(stream: &TcpStream, obs: &Metrics) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let stale = match stream.peek(&mut [0u8; 1]) {
        Err(e) if e.kind() == ErrorKind::WouldBlock => false,
        Ok(0) | Err(_) => true,
        Ok(_) => {
            obs.incr("net_stale_replies_dropped");
            true
        }
    };
    let _ = stream.set_nonblocking(false);
    stale
}

/// Give every accepted connection a reader thread, until the listener
/// fails or the transport stops.
fn accept_loop(listener: TcpListener, inbound: Arc<Inbound>, exited: &Sender<()>) {
    while let Ok((stream, _)) = listener.accept() {
        let _ = stream.set_nodelay(true);
        let Ok(wake) = stream.try_clone() else {
            continue;
        };
        // Spawn and register under one lock: a reader that exits at once
        // (a connect-and-close probe) finds its entry to remove, and
        // `shutdown` sees every reader that was ever started.
        let mut readers = inbound.readers();
        let Some(readers) = readers.as_mut() else {
            return;
        };
        let (shared, exited) = (Arc::clone(&inbound), exited.clone());
        let reader = std::thread::Builder::new()
            .name("lhrs-rx".to_string())
            .spawn(move || {
                read_loop(stream, &shared);
                if let Some(readers) = shared.readers().as_mut() {
                    readers.remove(&std::thread::current().id());
                }
                drop(exited);
            });
        if let Ok(thread) = reader {
            readers.insert(thread.thread().id(), wake);
        }
    }
}

/// One connection's reader: sleep in `read` until bytes arrive, decode
/// every complete frame and hand it to the host; return on EOF, a socket
/// error, a corrupt stream, or when the host is gone.
fn read_loop(mut stream: TcpStream, inbound: &Inbound) {
    let mut acc = FrameAccumulator::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = match stream.read(&mut chunk) {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        acc.extend(chunk.get(..n).unwrap_or(&[]));
        loop {
            match acc.next_frame() {
                Ok(Some(frame)) => {
                    if !handle_frame(frame, &mut stream, inbound) {
                        return;
                    }
                }
                Ok(None) => break,
                // A desynced stream has no recovery point.
                Err(_) => return inbound.decode_error("inbound frame"),
            }
        }
    }
}

/// Dispatch one decoded frame; returns whether the connection stays up.
fn handle_frame(frame: Frame, stream: &mut TcpStream, inbound: &Inbound) -> bool {
    let (obs, ftype, from, to) = (&inbound.obs, frame.ftype, frame.from, frame.to);
    obs.incr("net_frames_recv");
    let decoded = match ftype {
        FrameType::Msg => decode_msg(&frame.payload)
            .map(|msg| HostEvent::Deliver { from, to, msg })
            .map_err(|_| "message payload"),
        FrameType::Registry => RegistryUpdate::decode(&frame.payload)
            .map(HostEvent::Registry)
            .map_err(|_| "registry payload"),
        FrameType::RegistryPull => Ok(HostEvent::RegistryPull { from }),
        // A reply frame is only meaningful to whoever asked, which reads
        // its connection directly; a host receiving one ignores it.
        FrameType::StatsReply | FrameType::HelloReply => return true,
        // A dialer's hello and the `STATS` command are answered right
        // here on the same connection, whatever the host loop is busy
        // with — so `lhrs-netcli stats` needs no listener.
        FrameType::Hello | FrameType::StatsPull => {
            let (rtype, answer) = if ftype == FrameType::Hello {
                (FrameType::HelloReply, hosted_payload(&inbound.hosted))
            } else {
                obs.incr("net_stats_pulls");
                (FrameType::StatsReply, obs.render_prometheus().into_bytes())
            };
            return write_frame(stream, rtype, to, from, &answer).is_ok();
        }
    };
    match decoded {
        Ok(event) => inbound.tx.send(event).is_ok(),
        Err(context) => {
            // Defensive: skip the undecodable frame, keep the stream.
            inbound.decode_error(context);
            true
        }
    }
}

impl Transport for TcpTransport {
    fn send_msg(&mut self, from: NodeId, to: NodeId, msg: &Msg) {
        self.send_frame(FrameType::Msg, from, to, |out| encode_msg_into(msg, out));
    }

    fn send_registry(&mut self, to: NodeId, update: &RegistryUpdate) {
        let payload = update.encode();
        self.send_frame(FrameType::Registry, update.coordinator, to, |out| {
            out.extend_from_slice(&payload)
        });
    }

    fn send_registry_pull(&mut self, from: NodeId, to: NodeId) {
        self.send_frame(FrameType::RegistryPull, from, to, |_| {});
    }

    fn broadcast_registry(&mut self, from: NodeId, update: &RegistryUpdate) {
        let payload = update.encode();
        let hosted = &self.inbound.hosted;
        let remote = |to: &u32| !hosted.contains(&NodeId(*to));
        let targets: Vec<u32> = self.peers.keys().copied().filter(remote).collect();
        // One frame per peer process, which applies the snapshot once
        // however many nodes it hosts: skip a node whose connection
        // already carries this one.
        let mut sent: HashSet<u32> = HashSet::new();
        for to in targets {
            if !self.route(to).is_some_and(|key| sent.contains(&key)) {
                self.send_frame(FrameType::Registry, from, NodeId(to), |out| {
                    out.extend_from_slice(&payload)
                });
                sent.extend(self.route(to));
            }
        }
    }

    /// One `write` per peer process that the poll batch had frames for.
    fn flush(&mut self) {
        let obs = &self.inbound.obs;
        self.conns.retain(|_, conn| {
            if conn.buf.is_empty() {
                return true;
            }
            let written = conn.stream.write_all(&conn.buf).is_ok();
            conn.buf.clear();
            conn.buf.shrink_to(BUF_KEEP);
            if !written {
                // The peer went away mid-batch. How much of this batch —
                // and of the writes before it — it had read is unknowable,
                // so the loss counts once.
                obs.incr("net_send_drops");
            }
            written
        });
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
    use crate::frame::encode_frame;
    use lhrs_obs::Clock;
    use std::sync::mpsc::channel;
    use std::thread::JoinHandle;

    /// Only a hung test reaches this.
    const DEADLINE: Duration = Duration::from_secs(30);

    /// A transport hosting `nodes` on ports the kernel picks.
    fn tcp(nodes: &[u32]) -> (TcpTransport, Receiver<HostEvent>, Metrics) {
        let local: Vec<(u32, String)> = nodes
            .iter()
            .map(|n| (*n, "127.0.0.1:0".to_string()))
            .collect();
        let (tx, rx) = channel();
        let obs = Metrics::new(Clock::logical());
        let t = TcpTransport::start_with_metrics(&local, HashMap::new(), tx, obs.clone())
            .expect("bind");
        (t, rx, obs)
    }

    /// Where `t`'s nodes listen, in the shape `start` takes.
    fn addrs_of(t: &TcpTransport) -> Vec<(u32, String)> {
        let bound = t.listeners.iter().map(|addr| addr.to_string());
        t.inbound.hosted.iter().map(|n| n.0).zip(bound).collect()
    }

    /// Teach `t` where `other`'s nodes listen.
    fn introduce(t: &mut TcpTransport, other: &TcpTransport) {
        t.peers.extend(addrs_of(other));
    }

    /// A numbered message.
    fn ack(upto: u64) -> Msg {
        Msg::ParityAck { col: 0, upto }
    }

    /// The next `n` events of `rx`, each as `from>to:upto` or `registry`.
    fn take(rx: &Receiver<HostEvent>, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| match rx.recv_timeout(DEADLINE).expect("an event") {
                HostEvent::Deliver {
                    from,
                    to,
                    msg: Msg::ParityAck { upto, .. },
                } => format!("{}>{}:{upto}", from.0, to.0),
                HostEvent::Registry(up) if up == update() => "registry".to_string(),
                other => format!("{other:?}"),
            })
            .collect()
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + DEADLINE;
        while !cond() {
            assert!(Instant::now() < deadline, "never happened: {what}");
            std::thread::yield_now();
        }
    }

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

    #[test]
    fn one_connection_per_peer_process_carries_everything_in_order() {
        let (mut a, rx_a, _) = tcp(&[1, 2, 3]);
        let (mut b, rx_b, _) = tcp(&[11, 12, 13]);
        introduce(&mut a, &b);
        introduce(&mut b, &a);

        // Different senders, different destination nodes, a table
        // broadcast in the middle: one socket, so one order — and one
        // snapshot for the three nodes the peer hosts.
        a.send_msg(NodeId(1), NodeId(12), &ack(0));
        a.send_msg(NodeId(2), NodeId(11), &ack(1));
        a.broadcast_registry(NodeId(1), &update());
        a.send_msg(NodeId(3), NodeId(13), &ack(2));
        a.send_msg(NodeId(1), NodeId(11), &ack(3));
        a.flush();
        assert_eq!(
            take(&rx_b, 5),
            ["1>12:0", "2>11:1", "registry", "3>13:2", "1>11:3"]
        );
        b.send_msg(NodeId(13), NodeId(2), &ack(4));
        b.send_msg(NodeId(11), NodeId(3), &ack(5));
        b.flush();
        assert_eq!(take(&rx_a, 2), ["13>2:4", "11>3:5"]);

        for t in [&a, &b] {
            assert_eq!(t.conns.len(), 1, "one outbound connection");
            assert_eq!(t.routes.len(), 3, "reaching all three peer nodes");
            assert_eq!(
                t.inbound.readers().as_ref().map(|r| r.len()),
                Some(1),
                "one inbound connection"
            );
        }
    }

    #[test]
    fn a_restarted_peer_is_redialed_once_and_its_routes_relearned() {
        let (mut a, _rx_a, obs) = tcp(&[1]);
        let (b, rx_b, _) = tcp(&[11, 12, 13]);
        introduce(&mut a, &b);
        a.send_msg(NodeId(1), NodeId(11), &ack(0));
        a.flush();
        assert_eq!(take(&rx_b, 1), ["1>11:0"]);

        // The peer goes away and comes back on the same addresses.
        let addrs = addrs_of(&b);
        drop(b);
        wait_until("the FIN of the dead peer", || {
            conn_is_stale(&a.conns[&11].stream, &Metrics::disabled())
        });
        let (tx, rx_b2) = channel();
        let _b2 = TcpTransport::start(&addrs, HashMap::new(), tx).expect("rebind");

        // The peek before the batch's first frame finds the old socket
        // dead: nothing is written into it, and one dial serves all three
        // nodes again.
        a.send_msg(NodeId(1), NodeId(12), &ack(1));
        a.send_msg(NodeId(1), NodeId(13), &ack(2));
        a.send_msg(NodeId(1), NodeId(11), &ack(3));
        a.flush();
        assert_eq!(take(&rx_b2, 3), ["1>12:1", "1>13:2", "1>11:3"]);
        assert_eq!(obs.counter("net_reconnects"), 1);
        assert_eq!(obs.counter("net_send_drops"), 0);
        assert_eq!((a.conns.len(), a.routes.len()), (1, 3));
        assert!(rx_b.try_recv().is_err(), "the dead peer was sent nothing");

        // A connection lost to a failed write instead (this is what `flush`
        // does about one) is redialed by the next send and counts as well.
        a.conns.clear();
        a.send_msg(NodeId(1), NodeId(13), &ack(4));
        a.flush();
        assert_eq!(take(&rx_b2, 1), ["1>13:4"]);
        assert_eq!(obs.counter("net_reconnects"), 2);
    }

    /// A bare listener that accepts one connection, reads the dialer's
    /// hello, answers `reply` byte for byte and closes the connection.
    /// Joining hands the listener back: still bound, accepting no more.
    fn fake_peer(reply: Vec<u8>) -> (String, JoinHandle<TcpListener>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound").to_string();
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("a dialer");
            let hello = read_frame(&mut stream).expect("a frame").expect("a hello");
            assert_eq!(hello.ftype, FrameType::Hello);
            stream.write_all(&reply).expect("reply");
            listener
        });
        (addr, thread)
    }

    #[test]
    fn a_garbage_or_truncated_hello_reply_is_a_counted_drop() {
        // A node list whose count never ends; a good reply cut one byte short.
        let garbage = encode_frame(FrameType::HelloReply, NodeId(21), NodeId(1), &[0xFF; 3]);
        let mut truncated = encode_frame(
            FrameType::HelloReply,
            NodeId(22),
            NodeId(1),
            &hosted_payload(&[NodeId(22)]),
        );
        truncated.pop();
        let (addr21, peer21) = fake_peer(garbage);
        let (addr22, peer22) = fake_peer(truncated);

        let (mut a, _rx, obs) = tcp(&[1]);
        a.peers.extend([(21, addr21), (22, addr22)]);
        a.send_msg(NodeId(1), NodeId(21), &ack(0));
        a.send_msg(NodeId(1), NodeId(22), &ack(1));
        a.flush();
        peer21.join().expect("fake peer 21");
        peer22.join().expect("fake peer 22");
        assert_eq!(obs.counter("net_send_drops"), 2);
        assert_eq!(obs.counter("net_decode_errors"), 2);
        assert!(a.conns.is_empty() && a.routes.is_empty());
    }

    #[test]
    fn a_stats_pull_needs_no_hello_and_a_closed_probe_leaves_no_thread() {
        let (a, _rx, _) = tcp(&[1]);
        let addr = a.listeners[0];
        // What a launcher does to see whether the listener is up.
        drop(TcpStream::connect(addr).expect("probe"));
        let mut puller = TcpStream::connect(addr).expect("connect");
        write_frame(
            &mut puller,
            FrameType::StatsPull,
            lhrs_sim::EXTERNAL,
            NodeId(1),
            &[],
        )
        .expect("pull");
        let reply = read_frame(&mut puller).expect("a frame").expect("a reply");
        assert_eq!(reply.ftype, FrameType::StatsReply);
        assert!(String::from_utf8_lossy(&reply.payload).contains("net_stats_pulls"));
        // Connections are accepted in order, so the probe's reader was
        // started before the one that answered; both end at EOF.
        drop(puller);
        wait_until("both readers gone", || {
            a.inbound.readers().as_ref().is_some_and(|r| r.is_empty())
        });
    }

    #[test]
    fn a_batch_larger_than_the_socket_buffers_waits_for_a_slow_reader() {
        // 16 MiB in one batch: past what the kernel buffers for a peer
        // that is not reading, so `flush` has to wait for it.
        const FRAMES: u64 = 256;
        let value = vec![0xA5; 64 * 1024];
        // A peer that answers the hello, then reads nothing until told to.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound").to_string();
        let (go_tx, go) = channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("a dialer");
            read_frame(&mut stream).expect("a frame").expect("a hello");
            let hosted = hosted_payload(&[NodeId(41)]);
            write_frame(&mut stream, FrameType::HelloReply, NodeId(41), NodeId(1), &hosted)
                .expect("reply");
            go.recv().expect("told to read");
            (0..FRAMES)
                .map(|_| {
                    let frame = read_frame(&mut stream).expect("a frame").expect("not EOF");
                    match decode_msg(&frame.payload).expect("a message") {
                        Msg::Reply { op_id, .. } => op_id,
                        other => panic!("unexpected {other:?}"),
                    }
                })
                .collect::<Vec<_>>()
        });

        let (mut a, _rx, obs) = tcp(&[1]);
        a.peers.insert(41, addr);
        for op_id in 0..FRAMES {
            let result = lhrs_core::msg::OpResult::Value(Some(value.clone()));
            let iam = None;
            a.send_msg(NodeId(1), NodeId(41), &Msg::Reply { op_id, result, iam });
        }
        let (done_tx, done) = channel();
        let flusher = std::thread::spawn(move || {
            a.flush();
            let _ = done_tx.send(());
            a
        });
        assert!(
            done.recv_timeout(Duration::from_millis(200)).is_err(),
            "the batch fit in the socket buffers: nothing here waited"
        );
        go_tx.send(()).expect("the peer is waiting");
        let got = peer.join().expect("peer");
        let a = flusher.join().expect("flusher");
        assert_eq!(got, (0..FRAMES).collect::<Vec<_>>(), "every frame, in order");
        assert_eq!(obs.counter("net_send_drops"), 0);
        assert_eq!(a.conns.len(), 1, "the connection survives the wait");
    }

    /// How many connections sit unaccepted in `listener`'s backlog.
    fn backlog(listener: &TcpListener) -> usize {
        listener.set_nonblocking(true).expect("nonblocking");
        std::iter::from_fn(|| listener.accept().ok()).count()
    }

    #[test]
    fn a_mute_peer_costs_one_timeout_per_period_not_one_per_frame() {
        // A process hosting nodes 31 and 32, each on its own address, that
        // says so once and then stops: the kernel keeps completing
        // handshakes out of both backlogs, and nothing is ever answered.
        let reply = hosted_payload(&[NodeId(31), NodeId(32)]);
        let reply = encode_frame(FrameType::HelloReply, NodeId(31), NodeId(1), &reply);
        let (addr31, peer31) = fake_peer(reply);
        let mute32 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr32 = mute32.local_addr().expect("bound").to_string();
        let (mut a, _rx_a, obs) = tcp(&[1]);
        let (b, rx_b, _) = tcp(&[11]);
        introduce(&mut a, &b);
        a.peers.extend([(31, addr31.clone()), (32, addr32.clone())]);
        a.send_msg(NodeId(1), NodeId(31), &ack(0));
        a.flush();
        let mute31 = peer31.join().expect("fake peer 31");
        wait_until("the FIN of the stopped peer", || {
            conn_is_stale(&a.conns[&31].stream, &Metrics::disabled())
        });

        let started = Instant::now();
        for i in 0..20 {
            a.send_msg(NodeId(1), NodeId(31), &ack(i));
            a.send_msg(NodeId(1), NodeId(32), &ack(i));
            a.send_msg(NodeId(1), NodeId(11), &ack(i));
            a.flush();
        }
        let elapsed = started.elapsed();
        assert_eq!(obs.counter("net_send_drops"), 40);
        assert!(
            elapsed < CONNECT_TIMEOUT * 8,
            "40 frames to a mute peer took {elapsed:?}; a timeout each is {:?}",
            CONNECT_TIMEOUT * 40
        );
        // One hello went unanswered, and that silenced both nodes. (Were
        // this thread stalled past a back-off there could be one more.)
        let dials = backlog(&mute31) + backlog(&mute32);
        assert!((1..=3).contains(&dials), "{dials} dials for 40 frames");
        assert_eq!(take(&rx_b, 20).len(), 20, "the healthy peer missed nothing");

        // The peer turns responsive: the first send after the back-off
        // connects.
        drop((mute31, mute32));
        let (tx, rx_c) = channel();
        let _c =
            TcpTransport::start(&[(31, addr31), (32, addr32)], HashMap::new(), tx).expect("rebind");
        let deadline = Instant::now() + DEADLINE;
        loop {
            a.send_msg(NodeId(1), NodeId(32), &ack(99));
            a.flush();
            if rx_c.recv_timeout(Duration::from_millis(50)).is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "never reconnected");
        }
        assert!(a.down.is_empty(), "a reachable peer is not backed off from");
    }
}
