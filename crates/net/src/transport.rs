//! Message transports: real TCP and an in-process loopback.
//!
//! A [`Transport`] is what a [`crate::host::NodeHost`] writes protocol
//! traffic to and, for TCP, what it waits on for inbound traffic: the host
//! thread itself sleeps in one `poll(2)` over every inbound connection and
//! a wake socket ([`Transport::wait`]), reads the connections that are
//! ready and decodes their frames straight into its batch — one wake-up
//! per inbound hop. Accept threads greet new connections (answering a
//! dialer's hello and `STATS` pulls whatever the host is doing) and hand
//! them over. The loopback delivers into the host's mpsc channel instead.
//! Delivery is deliberately best-effort — a send to an unreachable peer is
//! dropped and counted, because the protocol stack above (client retries,
//! completion records, Δ retransmission, coordinator timeouts) is already built
//! to heal message loss.

use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lhrs_core::msg::Msg;
use lhrs_core::wire::{decode_msg, encode_msg, encode_msg_into};
use lhrs_obs::{Event as ObsEvent, Metrics};
use lhrs_poll::PollFd;
use lhrs_sim::NodeId;

use crate::frame::{
    decode_hosted, encode_frame, encode_frame_into, hosted_payload, read_frame, write_frame, Frame,
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

/// The interface a node host writes protocol traffic to and waits on.
/// Sends are best-effort; every frame dropped for want of a connection,
/// registry traffic included, counts in the `net_send_drops` obs counter
/// (as does, once, a connection lost with a batch in it).
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
    /// Sleep until inbound traffic arrives or `timeout` passes, and append
    /// every event that arrived to `events`. Returns `false`, at once and
    /// without waiting, when inbound traffic reaches the host through its
    /// event channel instead — the default, and the loopback's case.
    fn wait(&mut self, timeout: Duration, events: &mut Vec<HostEvent>) -> bool {
        let _ = (timeout, events);
        false
    }
}

// ----- TCP -----

/// How long an outbound connect, and the hello exchange after it, may
/// each take before the send is dropped. An accept thread gives a new
/// connection as long to send its first frame.
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

/// The most one [`Transport::wait`] reads from one connection. A peer
/// writing a huge batch holds back the other connections, and the host's
/// timers, by at most this much; polling is level-triggered, so the rest
/// is simply ready at the next wait.
const READ_SLICE: usize = 256 * 1024;

/// The size of one `read` into the host's buffer.
const READ_CHUNK: usize = 64 * 1024;

/// TCP transport. Outbound: one lazily dialed connection per peer
/// *process* — the dialer's [`FrameType::Hello`] is answered with the
/// nodes that process hosts, and every frame for any of them shares the
/// socket — written once per poll batch. Inbound: one listener per hosted
/// node, each with an accept thread that greets a new connection and hands
/// it to the host thread, which reads every inbound connection itself in
/// [`Transport::wait`].
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
    /// Disconnects once every accept thread has let go of its listener
    /// and returned.
    exited: Receiver<()>,
    /// The inbound connections, read on the host thread.
    readers: Readers,
}

/// One outbound connection, nonblocking. Write-only after the hello
/// exchange: the peer replies over its own connection to our listener.
struct Conn {
    stream: TcpStream,
    /// Frames encoded since the last flush: a poll batch is one `write`.
    buf: Vec<u8>,
}

/// The inbound side, read on the host thread: the connections the accept
/// threads handed over, and the socket they signal a handover on.
struct Readers {
    conns: Vec<Reader>,
    /// The host's end of the wake socket: a byte on it means an accept
    /// thread has handed over a connection.
    wake: UnixStream,
    /// The `poll` entries of one wait: the wake socket, then `conns` in
    /// order, then an outbound connection a flush waits on. Kept to reuse
    /// its allocation.
    fds: Vec<PollFd>,
    /// What one `read` fills.
    chunk: Box<[u8]>,
    /// Events read while a flush waited for room on a peer's socket, for
    /// the next [`Transport::wait`] to deliver.
    backlog: Vec<HostEvent>,
}

/// One inbound connection, read by the host thread.
struct Reader {
    stream: TcpStream,
    acc: FrameAccumulator,
    /// The nodes that spoke over this connection: its hello's sender, then
    /// every other sender of a protocol frame, in first-seen order. Empty
    /// for a connection that only pulled stats, whose close is no peer's.
    nodes: Vec<u32>,
}

impl Reader {
    fn spoke(&mut self, from: NodeId) {
        if self.nodes.last() != Some(&from.0) && !self.nodes.contains(&from.0) {
            self.nodes.push(from.0);
        }
    }
}

/// What a transport shares with its accept threads.
struct Inbound {
    /// Observability handle; accept threads answer `STATS` pulls from it.
    obs: Metrics,
    /// The nodes this process hosts: the `HelloReply` payload.
    hosted: Vec<NodeId>,
    /// Connections greeted and not yet taken by the host thread. `None`
    /// once the transport has shut down.
    handoff: Mutex<Option<Vec<Reader>>>,
    /// The accept threads' end of the wake socket (nonblocking).
    wake: UnixStream,
}

impl Inbound {
    fn handoff(&self) -> MutexGuard<'_, Option<Vec<Reader>>> {
        // The list is only pushed to and taken: valid at every step, so a
        // panicked accept thread must not wedge the host.
        self.handoff.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn decode_error(&self, context: &str) {
        self.obs.incr("net_decode_errors");
        self.obs.trace_now(ObsEvent::DecodeError {
            context: context.to_string(),
        });
    }
}

impl TcpTransport {
    /// Bind a listener for every `(node, addr)` in `local`, spawn their
    /// accept threads, and return the transport. `peers` maps every node
    /// of the cluster to its address. Inbound traffic is read by
    /// [`Transport::wait`] on the host thread, so nothing is sent on `tx`;
    /// it is taken so that a TCP host is wired exactly like a loopback one.
    pub fn start(
        local: &[(u32, String)],
        peers: HashMap<u32, String>,
        tx: Sender<HostEvent>,
    ) -> std::io::Result<TcpTransport> {
        TcpTransport::start_with_metrics(local, peers, tx, Metrics::disabled())
    }

    /// Like [`TcpTransport::start`], with an observability handle. The
    /// transport tallies frame/byte/drop/reconnect counters into it, and
    /// answers inbound [`FrameType::StatsPull`] frames with a Prometheus
    /// snapshot of it — the `STATS` command.
    pub fn start_with_metrics(
        local: &[(u32, String)],
        peers: HashMap<u32, String>,
        tx: Sender<HostEvent>,
        obs: Metrics,
    ) -> std::io::Result<TcpTransport> {
        drop(tx);
        let (exited_tx, exited) = std::sync::mpsc::channel();
        let (wake, wake_tx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let mut transport = TcpTransport {
            peers,
            conns: HashMap::new(),
            routes: HashMap::new(),
            down: HashMap::new(),
            inbound: Arc::new(Inbound {
                obs,
                hosted: local.iter().map(|(id, _)| NodeId(*id)).collect(),
                handoff: Mutex::new(Some(Vec::new())),
                wake: wake_tx,
            }),
            listeners: Vec::new(),
            exited,
            readers: Readers {
                conns: Vec::new(),
                wake,
                fds: Vec::new(),
                chunk: vec![0; READ_CHUNK].into_boxed_slice(),
                backlog: Vec::new(),
            },
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
                .spawn(move || {
                    accept_loop(listener, &inbound);
                    drop(exited_tx);
                })?;
            transport.listeners.push(bound);
        }
        Ok(transport)
    }

    /// Stop every accept thread and close the listeners and the inbound
    /// connections; also runs on drop. Never blocks exit: each accept
    /// thread is woken by a connection to its own listener, and all of
    /// them are awaited at most one second.
    pub fn shutdown(&mut self) {
        // An accept thread hands a connection over only into a list it
        // finds under this lock, so none arrives after this.
        if self.inbound.handoff().take().is_none() {
            return; // already shut down
        }
        self.readers.conns.clear();
        for addr in &self.listeners {
            let _ = TcpStream::connect_timeout(addr, CONNECT_TIMEOUT);
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

impl Readers {
    /// One `poll(2)` over the wake socket, every inbound connection and,
    /// if given, an outbound connection waiting for room; then a bounded
    /// read of each ready inbound connection into `events`.
    fn poll(
        &mut self,
        out: Option<&TcpStream>,
        timeout: Duration,
        inbound: &Inbound,
        events: &mut Vec<HostEvent>,
    ) {
        self.fds.clear();
        self.fds.push(PollFd::readable(&self.wake));
        let conns = self.conns.iter().map(|r| PollFd::readable(&r.stream));
        self.fds.extend(conns);
        self.fds.extend(out.map(PollFd::writable));
        // An error (the kernel out of memory) reads as nothing ready: the
        // host fires its timers and waits again.
        if lhrs_poll::wait(&mut self.fds, timeout).unwrap_or(0) == 0 {
            return;
        }
        let (fds, chunk) = (&self.fds, &mut self.chunk);
        let mut ready = fds.iter().skip(1).map(PollFd::ready);
        let mut closed = Vec::new();
        self.conns.retain_mut(|reader| {
            let open = !ready.next().unwrap_or(false) || read_ready(reader, chunk, inbound, events);
            if !open {
                closed.push(std::mem::take(&mut reader.nodes));
            }
            open
        });
        for nodes in closed {
            peer_closed(nodes, &inbound.obs);
        }
        if fds.first().is_some_and(PollFd::ready) {
            // Empty the wake socket, then take what it announced.
            while matches!((&self.wake).read(&mut [0u8; 64]), Ok(n) if n > 0) {}
            if let Some(handed) = inbound.handoff().as_mut() {
                self.conns.append(handed);
            }
        }
    }

    /// Write all of `buf` to the nonblocking `stream`, reading every
    /// inbound connection while the peer's socket is full: two hosts
    /// flushing big batches at each other both make progress. Returns
    /// whether the connection survived.
    fn write_all(&mut self, stream: &mut TcpStream, mut buf: &[u8], inbound: &Inbound) -> bool {
        while !buf.is_empty() {
            match stream.write(buf) {
                Ok(0) => return false,
                Ok(n) => buf = buf.get(n..).unwrap_or(&[]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let mut backlog = std::mem::take(&mut self.backlog);
                    self.poll(Some(stream), Duration::MAX, inbound, &mut backlog);
                    self.backlog = backlog;
                }
                Err(_) => return false,
            }
        }
        true
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
    stream.set_nonblocking(true)?;
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
    match stream.peek(&mut [0u8; 1]) {
        Err(e) if e.kind() == ErrorKind::WouldBlock => false,
        Ok(0) | Err(_) => true,
        Ok(_) => {
            obs.incr("net_stale_replies_dropped");
            true
        }
    }
}

/// Greet every accepted connection and hand it to the host thread, until
/// the listener fails or the transport stops.
fn accept_loop(listener: TcpListener, inbound: &Inbound) {
    while let Ok((stream, _)) = listener.accept() {
        if inbound.handoff().is_none() {
            break; // shut down: this was the wake-up connection
        }
        let Some(reader) = greet(stream, inbound) else {
            continue;
        };
        match inbound.handoff().as_mut() {
            Some(handed) => handed.push(reader),
            None => break,
        }
        // Nonblocking: a full wake socket already holds a wake-up.
        let _ = (&inbound.wake).write(&[1]);
    }
}

/// Answer a new connection's opening frame here, on the accept thread, so
/// that neither a dialer's hello nor a `STATS` pull waits for the host
/// loop: two hosts dialing each other at once are each answered while
/// they block on the other's reply. Returns the connection, nonblocking,
/// for the host to read — or `None` if it closed or sent nothing within
/// [`CONNECT_TIMEOUT`] (a launcher's connect-and-close probe).
fn greet(mut stream: TcpStream, inbound: &Inbound) -> Option<Reader> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(CONNECT_TIMEOUT)).ok()?;
    stream.set_write_timeout(Some(CONNECT_TIMEOUT)).ok()?;
    let first = match read_frame(&mut stream) {
        Ok(first) => first?,
        Err(e) => {
            if matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof) {
                inbound.decode_error("opening frame");
            }
            return None;
        }
    };
    let mut reader = Reader {
        stream,
        acc: FrameAccumulator::new(),
        nodes: Vec::new(),
    };
    match first.ftype {
        FrameType::Hello => {
            reader.spoke(first.from);
            answer(&mut reader.stream, &first, inbound).ok()?;
        }
        FrameType::StatsPull => answer(&mut reader.stream, &first, inbound).ok()?,
        // Anything else is the host's to dispatch, ahead of what follows.
        _ => reader.acc.extend(&encode_frame(
            first.ftype,
            first.from,
            first.to,
            &first.payload,
        )),
    }
    reader.stream.set_nonblocking(true).ok()?;
    Some(reader)
}

/// Answer a `Hello` with the hosted nodes, or a `StatsPull` with a
/// Prometheus snapshot, on the connection it came in on — so
/// `lhrs-netcli stats` needs no listener.
fn answer(stream: &mut TcpStream, frame: &Frame, inbound: &Inbound) -> std::io::Result<()> {
    let (rtype, payload) = if frame.ftype == FrameType::Hello {
        (FrameType::HelloReply, hosted_payload(&inbound.hosted))
    } else {
        inbound.obs.incr("net_stats_pulls");
        let text = inbound.obs.render_prometheus();
        (FrameType::StatsReply, text.into_bytes())
    };
    write_frame(stream, rtype, frame.to, frame.from, &payload)
}

/// Read what one connection has buffered — at most [`READ_SLICE`] — and
/// decode every complete frame into `events`. Returns whether the
/// connection stays open: `false` on EOF, a socket error or a corrupt
/// stream.
fn read_ready(
    reader: &mut Reader,
    chunk: &mut [u8],
    inbound: &Inbound,
    events: &mut Vec<HostEvent>,
) -> bool {
    let mut taken = 0;
    while taken < READ_SLICE {
        let n = match reader.stream.read(chunk) {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Ok(0) | Err(_) => return false,
            Ok(n) => n,
        };
        reader.acc.extend(chunk.get(..n).unwrap_or(&[]));
        loop {
            match reader.acc.next_frame() {
                Ok(Some(frame)) => {
                    if !handle_frame(frame, reader, inbound, events) {
                        return false;
                    }
                }
                Ok(None) => break,
                // A desynced stream has no recovery point.
                Err(_) => {
                    inbound.decode_error("inbound frame");
                    return false;
                }
            }
        }
        // A short read emptied the socket: skip the `read` that would
        // only say so. Anything arriving meanwhile makes it ready again.
        if n < chunk.len() {
            return true;
        }
        taken += n;
    }
    true
}

/// Dispatch one decoded frame; returns whether the connection stays up.
fn handle_frame(
    frame: Frame,
    reader: &mut Reader,
    inbound: &Inbound,
    events: &mut Vec<HostEvent>,
) -> bool {
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
        // A later hello or pull on a connection the accept thread handed
        // over: answered here, blocking for as long as the write takes.
        FrameType::Hello | FrameType::StatsPull => {
            if ftype == FrameType::Hello {
                reader.spoke(from);
            }
            let stream = &mut reader.stream;
            return stream.set_nonblocking(false).is_ok()
                && answer(stream, &frame, inbound).is_ok()
                && stream.set_nonblocking(true).is_ok();
        }
    };
    reader.spoke(from);
    match decoded {
        Ok(event) => events.push(event),
        // Defensive: skip the undecodable frame, keep the stream.
        Err(context) => inbound.decode_error(context),
    }
    true
}

/// A peer's connection ended: record which nodes spoke over it. What to
/// make of the hint is the protocol's business; the transport only says.
fn peer_closed(nodes: Vec<u32>, obs: &Metrics) {
    if nodes.is_empty() {
        return; // a `STATS` puller, not a peer
    }
    obs.incr("net_peer_closed");
    obs.trace_now(ObsEvent::PeerClosed { nodes });
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

    /// One `poll(2)` over the wake socket and every inbound connection,
    /// then a bounded read of each ready one.
    fn wait(&mut self, timeout: Duration, events: &mut Vec<HostEvent>) -> bool {
        let readers = &mut self.readers;
        // What a blocked flush read is older than anything still queued.
        let timeout = if readers.backlog.is_empty() {
            timeout
        } else {
            events.append(&mut readers.backlog);
            Duration::ZERO
        };
        readers.poll(None, timeout, &self.inbound, events);
        true
    }

    /// One `write` per peer process that the poll batch had frames for.
    fn flush(&mut self) {
        let (readers, inbound) = (&mut self.readers, &*self.inbound);
        self.conns.retain(|_, conn| {
            if conn.buf.is_empty() {
                return true;
            }
            let written = readers.write_all(&mut conn.stream, &conn.buf, inbound);
            conn.buf.clear();
            conn.buf.shrink_to(BUF_KEEP);
            if !written {
                // The peer went away mid-batch. How much of this batch —
                // and of the writes before it — it had read is unknowable,
                // so the loss counts once.
                inbound.obs.incr("net_send_drops");
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
    fn tcp(nodes: &[u32]) -> (TcpTransport, Metrics) {
        let local: Vec<(u32, String)> = nodes
            .iter()
            .map(|n| (*n, "127.0.0.1:0".to_string()))
            .collect();
        let obs = Metrics::new(Clock::logical());
        let t = TcpTransport::start_with_metrics(&local, HashMap::new(), channel().0, obs.clone())
            .expect("bind");
        (t, obs)
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

    /// Wait on `t` until at least `n` events arrived; every event that did,
    /// each as `from>to:upto` or `registry`.
    fn take(t: &mut TcpTransport, n: usize) -> Vec<String> {
        let deadline = Instant::now() + DEADLINE;
        let mut events = Vec::new();
        while events.len() < n {
            assert!(Instant::now() < deadline, "{} of {n} events", events.len());
            assert!(t.wait(Duration::from_millis(100), &mut events), "TCP waits");
        }
        events.into_iter().map(label).collect()
    }

    fn label(event: HostEvent) -> String {
        match event {
            HostEvent::Deliver {
                from,
                to,
                msg: Msg::ParityAck { upto, .. },
            } => format!("{}>{}:{upto}", from.0, to.0),
            HostEvent::Registry(up) if up == update() => "registry".to_string(),
            other => format!("{other:?}"),
        }
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
        let (mut a, _) = tcp(&[1, 2, 3]);
        let (mut b, _) = tcp(&[11, 12, 13]);
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
            take(&mut b, 5),
            ["1>12:0", "2>11:1", "registry", "3>13:2", "1>11:3"]
        );
        b.send_msg(NodeId(13), NodeId(2), &ack(4));
        b.send_msg(NodeId(11), NodeId(3), &ack(5));
        b.flush();
        assert_eq!(take(&mut a, 2), ["13>2:4", "11>3:5"]);

        for t in [&a, &b] {
            assert_eq!(t.conns.len(), 1, "one outbound connection");
            assert_eq!(t.routes.len(), 3, "reaching all three peer nodes");
            assert_eq!(t.readers.conns.len(), 1, "one inbound connection");
        }
    }

    #[test]
    fn a_restarted_peer_is_redialed_once_and_its_routes_relearned() {
        let (mut a, obs) = tcp(&[1]);
        let (mut b, _) = tcp(&[11, 12, 13]);
        introduce(&mut a, &b);
        a.send_msg(NodeId(1), NodeId(11), &ack(0));
        a.flush();
        assert_eq!(take(&mut b, 1), ["1>11:0"]);

        // The peer goes away and comes back on the same addresses.
        let addrs = addrs_of(&b);
        drop(b);
        wait_until("the FIN of the dead peer", || {
            conn_is_stale(&a.conns[&11].stream, &Metrics::disabled())
        });
        let mut b2 = TcpTransport::start(&addrs, HashMap::new(), channel().0).expect("rebind");

        // The peek before the batch's first frame finds the old socket
        // dead: nothing is written into it, and one dial serves all three
        // nodes again.
        a.send_msg(NodeId(1), NodeId(12), &ack(1));
        a.send_msg(NodeId(1), NodeId(13), &ack(2));
        a.send_msg(NodeId(1), NodeId(11), &ack(3));
        a.flush();
        assert_eq!(take(&mut b2, 3), ["1>12:1", "1>13:2", "1>11:3"]);
        assert_eq!(obs.counter("net_reconnects"), 1);
        assert_eq!(obs.counter("net_send_drops"), 0);
        assert_eq!((a.conns.len(), a.routes.len()), (1, 3));

        // A connection lost to a failed write instead (this is what `flush`
        // does about one) is redialed by the next send and counts as well.
        a.conns.clear();
        a.send_msg(NodeId(1), NodeId(13), &ack(4));
        a.flush();
        assert_eq!(take(&mut b2, 1), ["1>13:4"]);
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

        let (mut a, obs) = tcp(&[1]);
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

    /// One `STATS` exchange on a fresh connection to `addr`.
    fn pull_stats(addr: SocketAddr) -> (TcpStream, String) {
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
        (puller, String::from_utf8_lossy(&reply.payload).into_owned())
    }

    #[test]
    fn a_stats_pull_needs_no_hello_and_a_closed_probe_leaves_no_thread() {
        let (mut a, obs) = tcp(&[1]);
        let addr = a.listeners[0];
        // What a launcher does to see whether the listener is up.
        drop(TcpStream::connect(addr).expect("probe"));
        let (puller, stats) = pull_stats(addr);
        assert!(stats.contains("net_stats_pulls"));
        // Connections are greeted in order: the probe ended at EOF on the
        // accept thread, and the puller's connection went to the host,
        // which drops it at EOF without calling it a peer.
        drop(puller);
        let mut events = Vec::new();
        wait_until("the puller's connection handed over", || {
            a.wait(Duration::from_millis(10), &mut events);
            !a.readers.conns.is_empty()
        });
        wait_until("the puller's connection gone", || {
            a.wait(Duration::from_millis(10), &mut events);
            a.readers.conns.is_empty()
        });
        assert!(events.is_empty());
        assert_eq!(obs.counter("net_peer_closed"), 0);
    }

    #[test]
    fn a_stats_pull_is_answered_while_the_host_thread_is_blocked() {
        let (a, obs) = tcp(&[1]);
        let addr = a.listeners[0];
        // A host thread stuck in a long handler: it never waits on `a`.
        let (release, blocked) = channel::<()>();
        let host = std::thread::spawn(move || {
            blocked.recv().expect("released");
            a
        });
        for pulls in 1..=2 {
            let (_puller, stats) = pull_stats(addr);
            let line = format!("lhrs_net_stats_pulls_total {pulls}");
            assert!(stats.contains(&line), "{stats}");
        }
        release.send(()).expect("the host thread is blocked");
        host.join().expect("host thread");
        assert_eq!(obs.counter("net_stats_pulls"), 2);
    }

    #[test]
    fn two_transports_dialing_each_other_at_once_both_finish_their_hellos() {
        let (mut a, obs_a) = tcp(&[1]);
        let (mut b, obs_b) = tcp(&[11]);
        introduce(&mut a, &b);
        introduce(&mut b, &a);
        // Each host thread blocks in its dial until the other process
        // answers the hello, and neither is waiting on its transport.
        let start = Arc::new(std::sync::Barrier::new(2));
        let dial = |mut t: TcpTransport, from: u32, to: u32| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let started = Instant::now();
                t.send_msg(NodeId(from), NodeId(to), &ack(u64::from(from)));
                t.flush();
                (t, started.elapsed())
            })
        };
        let (dial_a, dial_b) = (dial(a, 1, 11), dial(b, 11, 1));
        let (mut a, took_a) = dial_a.join().expect("a dials");
        let (mut b, took_b) = dial_b.join().expect("b dials");
        for took in [took_a, took_b] {
            assert!(took < CONNECT_TIMEOUT / 2, "a hello took {took:?}");
        }
        assert_eq!(take(&mut a, 1), ["11>1:11"]);
        assert_eq!(take(&mut b, 1), ["1>11:1"]);
        for obs in [obs_a, obs_b] {
            assert_eq!(obs.counter("net_send_drops"), 0);
        }
    }

    #[test]
    fn a_huge_batch_holds_back_another_peer_by_at_most_one_read_slice() {
        const FRAMES: usize = 256;
        let value = vec![0x5A; 64 * 1024];
        let per_slice = READ_SLICE / value.len() + 1;
        let (mut a, _) = tcp(&[1]);
        let (mut big, _) = tcp(&[11]);
        let (mut small, _) = tcp(&[21]);
        introduce(&mut big, &a);
        introduce(&mut small, &a);
        // Both connections open and handed to `a` before the flood.
        big.send_msg(NodeId(11), NodeId(1), &ack(0));
        big.flush();
        small.send_msg(NodeId(21), NodeId(1), &ack(0));
        small.flush();
        let mut first = take(&mut a, 2);
        first.sort();
        assert_eq!(first, ["11>1:0", "21>1:0"]);

        // 16 MiB in one batch, written by a thread of its own.
        for op_id in 0..FRAMES as u64 {
            let result = lhrs_core::msg::OpResult::Value(Some(value.clone()));
            let iam = None;
            big.send_msg(NodeId(11), NodeId(1), &Msg::Reply { op_id, result, iam });
        }
        let flood = std::thread::spawn(move || {
            big.flush();
            big
        });
        let is_big = |e: &HostEvent| matches!(e, HostEvent::Deliver { from, .. } if from.0 == 11);
        let deadline = Instant::now() + DEADLINE;
        let mut events = Vec::new();
        // One wait: how many frames of the flood came, and what else.
        let mut wait = |a: &mut TcpTransport| {
            assert!(Instant::now() < deadline, "the flood stalled");
            events.clear();
            a.wait(Duration::from_millis(100), &mut events);
            let big_here = events.iter().filter(|e| is_big(e)).count();
            // The host gets its loop back — and fires its timers — after
            // at most one slice of the flood per wait.
            assert!(big_here <= per_slice, "{big_here} frames in one wait");
            let other = events.iter().find(|e| !is_big(e));
            (big_here, other.map(|e| format!("{e:?}")))
        };
        // A quarter of the flood is read; then, with the rest still
        // coming, the other peer has one frame to say.
        let mut got = 0;
        while got < FRAMES / 4 {
            let (big_here, other) = wait(&mut a);
            assert_eq!(other, None);
            got += big_here;
        }
        small.send_msg(NodeId(21), NodeId(1), &ack(1));
        small.flush();
        let from_small = a.readers.conns.iter().find(|r| r.nodes == [21]);
        let from_small = from_small.expect("the small peer's connection");
        wait_until("the small frame buffered", || {
            from_small.stream.peek(&mut [0]).is_ok_and(|n| n == 1)
        });
        let (big_here, other) = wait(&mut a);
        let small_frame = other.expect("the small frame, in the first wait");
        assert!(small_frame.contains("upto: 1"), "{small_frame}");
        got += big_here;
        while got < FRAMES {
            let (big_here, other) = wait(&mut a);
            assert_eq!(other, None);
            got += big_here;
        }
        assert_eq!(got, FRAMES);
        flood.join().expect("flood");
    }

    #[test]
    fn two_hosts_flushing_huge_batches_at_each_other_both_finish() {
        // 16 MiB each way: more than the kernel buffers, so each flush
        // needs the other host to read while it is itself flushing.
        const FRAMES: usize = 256;
        let value = vec![0xC3; 64 * 1024];
        let (mut a, obs_a) = tcp(&[1]);
        let (mut b, obs_b) = tcp(&[11]);
        introduce(&mut a, &b);
        introduce(&mut b, &a);
        let (done_tx, done) = channel();
        for (mut t, from, to) in [(a, 1, 11), (b, 11, 1)] {
            for op_id in 0..FRAMES as u64 {
                let result = lhrs_core::msg::OpResult::Value(Some(value.clone()));
                let iam = None;
                t.send_msg(NodeId(from), NodeId(to), &Msg::Reply { op_id, result, iam });
            }
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                t.flush();
                let _ = done_tx.send(t);
            });
        }
        for _ in 0..2 {
            let mut t = done.recv_timeout(DEADLINE).expect("both flushes finish");
            assert_eq!(take(&mut t, FRAMES).len(), FRAMES, "every frame arrived");
        }
        for obs in [obs_a, obs_b] {
            assert_eq!(obs.counter("net_send_drops"), 0);
        }
    }

    #[test]
    fn a_dropped_peer_is_counted_and_traced_with_the_nodes_that_spoke() {
        let (mut a, obs) = tcp(&[1]);
        let (mut b, _) = tcp(&[11, 12]);
        introduce(&mut b, &a);
        b.send_msg(NodeId(12), NodeId(1), &ack(0));
        b.send_msg(NodeId(11), NodeId(1), &ack(1));
        b.flush();
        assert_eq!(take(&mut a, 2), ["12>1:0", "11>1:1"]);
        assert_eq!(obs.counter("net_peer_closed"), 0);

        drop(b);
        let mut events = Vec::new();
        wait_until("the peer's EOF", || {
            a.wait(Duration::from_millis(10), &mut events);
            a.readers.conns.is_empty()
        });
        assert!(events.is_empty());
        assert_eq!(obs.counter("net_peer_closed"), 1);
        let closed: Vec<_> = obs
            .events()
            .into_iter()
            .filter_map(|t| match t.event {
                ObsEvent::PeerClosed { nodes } => Some(nodes),
                _ => None,
            })
            .collect();
        assert_eq!(closed, [vec![12, 11]], "the hello's sender first");
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

        let (mut a, obs) = tcp(&[1]);
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
        let (mut a, obs) = tcp(&[1]);
        let (mut b, _) = tcp(&[11]);
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
        assert_eq!(take(&mut b, 20).len(), 20, "the healthy peer missed nothing");

        // The peer turns responsive: the first send after the back-off
        // connects.
        drop((mute31, mute32));
        let mut c = TcpTransport::start(&[(31, addr31), (32, addr32)], HashMap::new(), channel().0)
            .expect("rebind");
        let deadline = Instant::now() + DEADLINE;
        let mut events = Vec::new();
        loop {
            a.send_msg(NodeId(1), NodeId(32), &ack(99));
            a.flush();
            c.wait(Duration::from_millis(50), &mut events);
            if !events.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "never reconnected");
        }
        assert!(a.down.is_empty(), "a reachable peer is not backed off from");
    }
}
