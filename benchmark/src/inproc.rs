//! The per-layer rows that are timed inside the driver's own process, by
//! calling each layer's public functions from outside the program:
//!
//! * the **layer walk** replays a sample of the workload's op stream,
//!   single-threaded, through actors held in this process, timing every
//!   call into a layer and recording a span for it;
//! * the **kernels** time `gf` / `rs` / `wal` calls at this workload's
//!   cell size;
//! * the **loopback run** drives the same stream through an in-process
//!   cluster of the same shape over `LoopbackNet`, whose CPU per
//!   operation is the cost of everything but the TCP transport.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lhrs_core::msg::{Msg, ReqKind};
use lhrs_core::node::Node;
use lhrs_core::storage::{encode_op, BucketStore, WalOp};
use lhrs_core::wire::{decode_msg, encode_msg};
use lhrs_core::FsyncPolicy;
use lhrs_gf::{GaloisField, Gf8};
use lhrs_net::client::NetClient;
use lhrs_net::cluster::ClusterSpec;
use lhrs_net::frame::{encode_frame, FrameAccumulator, FrameType};
use lhrs_net::host::NodeHost;
use lhrs_net::transport::{HostEvent, LoopbackNet, LoopbackTransport};
use lhrs_obs::Metrics;
use lhrs_rs::RsCode;
use lhrs_sim::{Actor, Effect, Env, NodeId, EXTERNAL};
use lhrs_wal::FileWal;

use crate::closedloop::{ClosedLoop, Oracle, Outcome, Scheduler, PUMP_WAIT};
use crate::cluster::{spec_of, CLIENT_NODE};
use crate::opstream::{key_of, payload, OpKind, OpStream};
use crate::procfs;
use crate::run::{RunReport, Span};
use crate::signal::interrupted;
use crate::workload::{Extent, Workload};

/// Operations of the stream the layer walk replays.
pub const WALK_OPS: u64 = 20_000;

/// How long the loopback run of a time-bounded workload measures.
const LOOPBACK_WINDOW: Duration = Duration::from_secs(2);

/// How long each kernel is timed.
const KERNEL_WINDOW: Duration = Duration::from_millis(30);

/// The per-layer rows of one workload, and the spans behind them.
pub struct Layers {
    pub rows: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

/// The workload's spec with in-process addresses.
fn loopback_spec(w: &Workload) -> Result<ClusterSpec, String> {
    spec_of(w.config(), (0..w.nodes).map(|id| format!("loopback:{id}")))
}

/// A host over `net` carrying `ids`, its client handle ready.
fn client_host(
    spec: &ClusterSpec,
    net: &LoopbackNet,
    ids: &[u32],
) -> Result<NetClient<LoopbackTransport>, String> {
    let (tx, rx) = mpsc::channel();
    net.register(ids, tx.clone());
    let shared = spec.build_shared();
    let transport = LoopbackTransport::new(net.clone(), ids);
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    for &id in ids {
        host.add_node(id, spec.build_node(&shared, id));
    }
    let mut client = NetClient::new(host, CLIENT_NODE, 1);
    if !client.sync_registry(0, Duration::from_secs(10)) {
        return Err("in-process cluster: no allocation table".into());
    }
    Ok(client)
}

// ----- the layer walk -----

/// Times calls and keeps their spans and per-row sums.
struct Timer {
    epoch: Instant,
    /// What reading the clock twice costs; taken off every span.
    clock_ns: u64,
    spans: Vec<Span>,
    sums: HashMap<&'static str, (u64, u64)>,
}

impl Timer {
    fn new() -> Timer {
        let mut costs: Vec<u64> = (0..10_001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as u64
            })
            .collect();
        costs.sort_unstable();
        Timer {
            epoch: Instant::now(),
            clock_ns: costs[costs.len() / 2],
            spans: Vec::new(),
            sums: HashMap::new(),
        }
    }

    fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let entry = self.sums.entry(name).or_insert((0, 0));
        entry.0 += ((end - start).as_nanos() as u64).saturating_sub(self.clock_ns);
        entry.1 += 1;
        self.spans.push(Span {
            name,
            op,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        out
    }

    /// Total ns of row `name`.
    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |(ns, _)| *ns as f64)
    }

    /// Mean ns per call of row `name`.
    fn mean(&self, name: &str) -> f64 {
        match self.sums.get(name) {
            Some((ns, calls)) if *calls > 0 => *ns as f64 / *calls as f64,
            _ => 0.0,
        }
    }
}

/// The row a message handled by `node` is booked under.
fn handler_row(node: &Node, msg: &Msg) -> &'static str {
    match (node, msg) {
        (Node::Client(_), _) => "client.handle",
        (
            Node::Data(_),
            Msg::Req {
                kind: ReqKind::Lookup(_),
                ..
            },
        ) => "data_bucket.read",
        (Node::Data(_), Msg::Req { .. }) => "data_bucket.write",
        (Node::Data(_), _) => "data_bucket.other",
        (Node::Parity(_), _) => "parity_bucket.handle",
        // A blank node executes the coordinator's init orders.
        (Node::Coordinator(_) | Node::Blank { .. }, _) => "coordinator.handle",
    }
}

struct WalkTotals {
    timer: Timer,
    ops: u64,
    writes: u64,
    wire_bytes: u64,
    address_ns: f64,
}

/// Replay [`WALK_OPS`] operations one at a time through every layer an
/// operation of this workload passes, as the TCP deployment places them:
/// a hop between nodes of different processes goes through `encode_msg`,
/// `encode_frame`, `FrameAccumulator` and `decode_msg`; a hop inside one
/// process does not.
fn walk(w: &Workload, seed: u64) -> Result<WalkTotals, String> {
    let spec = loopback_spec(w)?;
    let all: Vec<u32> = (0..w.nodes).collect();
    let mut client = client_host(&spec, &LoopbackNet::new(), &all)?;
    let mut oracle = Oracle::new(seed, w.payload_len);
    ClosedLoop::preload(&mut client, &mut oracle, seed, w.preload, Duration::ZERO)?;

    // Which process a node lives in; the client is a process of its own.
    let process: Vec<Option<&'static str>> = all.iter().map(|&id| w.proc_of(id)).collect();
    let crosses = |from: NodeId, to: NodeId| {
        from != EXTERNAL && process.get(from.0 as usize) != process.get(to.0 as usize)
    };

    let off = Metrics::disabled();
    let mut timer = Timer::new();
    let mut sched = Scheduler::new(OpStream::new(seed, w.mix), w.preload);
    let mut acc = FrameAccumulator::new();
    let mut next_timer = 1u64 << 32;
    let mut queue: VecDeque<(NodeId, NodeId, Msg)> = VecDeque::new();
    let (mut writes, mut wire_bytes) = (0u64, 0u64);
    let mut keys = Vec::with_capacity(WALK_OPS as usize);

    // Above every id the preload's client used: a bucket's replay cache
    // answers a repeated (client, id) pair with the first result.
    let first_id = 1u64 << 40;
    for op_id in first_id..first_id + WALK_OPS {
        let Some((kind, idx)) = sched.next(oracle.stored()) else {
            return Err("the walk's stream stalled with nothing in flight".into());
        };
        keys.push(key_of(idx));
        writes += u64::from(kind != OpKind::Lookup);
        let op = oracle.client_op(kind, idx);
        queue.push_back((EXTERNAL, NodeId(CLIENT_NODE), Msg::Do { op_id, op: op.1 }));
        while let Some((from, to, mut msg)) = queue.pop_front() {
            if crosses(from, to) {
                let bytes = timer.time("wire.encode", op_id, || encode_msg(&msg));
                wire_bytes += bytes.len() as u64;
                let frame = timer.time("frame.encode", op_id, || {
                    encode_frame(FrameType::Msg, from, to, &bytes)
                });
                let decoded = timer
                    .time("frame.decode", op_id, || {
                        acc.extend(&frame);
                        acc.next_frame()
                    })
                    .map_err(|e| format!("walk: frame decode: {e}"))?
                    .ok_or("walk: a whole frame did not decode")?;
                msg = timer
                    .time("wire.decode", op_id, || decode_msg(&decoded.payload))
                    .map_err(|e| format!("walk: message decode: {e:?}"))?;
            }
            let host = client.host_mut();
            let now = timer.epoch.elapsed().as_micros() as u64;
            let Some(node) = host.node_mut(to.0) else {
                continue;
            };
            let row = handler_row(node, &msg);
            let mut effects: Vec<Effect<Msg>> = Vec::new();
            timer.time(row, op_id, || {
                let mut env = Env::external(to, now, &mut next_timer, &mut effects, &off);
                node.on_message(&mut env, from, msg);
            });
            for effect in effects {
                match effect {
                    Effect::Send { to: dest, msg } => queue.push_back((to, dest, msg)),
                    Effect::Multicast { to: dests, msg } => {
                        queue.extend(dests.into_iter().map(|dest| (to, dest, msg.clone())));
                    }
                    // A fault-free walk never needs a retransmission, so
                    // timers are neither armed nor fired.
                    Effect::SetTimer { .. } | Effect::CancelTimer { .. } => {}
                }
            }
        }
        let results = client
            .host_mut()
            .node_mut(CLIENT_NODE)
            .map(|node| node.as_client_mut().take_results())
            .unwrap_or_default();
        let [(_, result)] = results.as_slice() else {
            return Err(format!(
                "walk: op {op_id} ended with {} results",
                results.len()
            ));
        };
        if oracle.settle(kind, idx, op.0, result.clone()) != Outcome::Verified {
            return Err(format!("walk: op {op_id} returned {result:?}"));
        }
        sched.complete(idx);
    }

    // `ClientImage::address` takes a few ns, below what one clock reading
    // resolves: time it over all the sample's keys at once.
    let image = client
        .host_mut()
        .node_mut(CLIENT_NODE)
        .map(|node| node.as_client().image)
        .ok_or("walk: no client node")?;
    let start = Instant::now();
    for _ in 0..10 {
        for &key in &keys {
            black_box(image.address(black_box(key)));
        }
    }
    let address_ns = start.elapsed().as_nanos() as f64 / (10 * keys.len()) as f64;

    Ok(WalkTotals {
        timer,
        ops: WALK_OPS,
        writes,
        wire_bytes,
        address_ns,
    })
}

// ----- kernels -----

/// Run `f` repeatedly for [`KERNEL_WINDOW`]; ns per call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < KERNEL_WINDOW {
        for _ in 0..64 {
            f();
        }
        calls += 64;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// MB/s of a kernel that processes `bytes` per call in `ns`.
fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

struct Kernels {
    /// `RsCode::apply_delta` over the workload's k parity columns, ns.
    delta_ns: f64,
    xor_mb_per_s: f64,
    mul_add_mb_per_s: f64,
    reconstruct_mb_per_s: f64,
}

fn kernels(w: &Workload, seed: u64, bucket_records: usize) -> Result<Kernels, String> {
    let cell = w.payload_len + 4;
    let delta = payload(seed, 1, 1, cell);
    let mut parity = payload(seed, 2, 1, cell);
    let code: RsCode<Gf8> = RsCode::new(4, w.k).map_err(|e| format!("rs code: {e:?}"))?;
    let delta_ns = (0..w.k)
        .map(|q| ns_per_call(|| code.apply_delta(1, q, black_box(&delta), black_box(&mut parity))))
        .sum();
    let xor = ns_per_call(|| lhrs_gf::add_slice(black_box(&delta), black_box(&mut parity)));
    let mul_add =
        ns_per_call(|| Gf8::mul_add_slice(0x57, black_box(&delta), black_box(&mut parity)));
    // The decode a kill of bucket 0 and the XOR column asks for: two
    // erasures, one of them data, over bucket-sized shards.
    let reconstruct_mb_per_s = if w.kill {
        let len = bucket_records.max(1) * cell;
        let data: Vec<Vec<u8>> = (0..4).map(|i| payload(seed, 10 + i, 1, len)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let coded = code
            .encode(&refs)
            .map_err(|e| format!("rs encode: {e:?}"))?;
        let mut best = f64::MAX;
        for _ in 0..5 {
            let mut shards: Vec<Option<Vec<u8>>> =
                data.iter().chain(&coded).cloned().map(Some).collect();
            shards[0] = None;
            shards[4] = None;
            let start = Instant::now();
            code.reconstruct(&mut shards)
                .map_err(|e| format!("rs reconstruct: {e:?}"))?;
            best = best.min(start.elapsed().as_nanos() as f64);
            if shards[0].as_deref() != Some(&data[0][..]) {
                return Err("rs reconstruct returned the wrong shard".into());
            }
        }
        mb_per_s(4 * len, best)
    } else {
        0.0
    };
    Ok(Kernels {
        delta_ns,
        xor_mb_per_s: mb_per_s(cell, xor),
        mul_add_mb_per_s: mb_per_s(cell, mul_add),
        reconstruct_mb_per_s,
    })
}

/// Mean ns of a WAL append and of a group-commit sync (one per 64
/// appends), on the filesystem the durable run's data dir sat on.
fn wal_kernels(w: &Workload, seed: u64, work_root: &Path) -> Result<(f64, f64), String> {
    let dir = work_root.join(format!("walk-wal-{}", std::process::id()));
    let result = (|| {
        let mut wal = FileWal::open(dir.clone(), FsyncPolicy::Batch)
            .map_err(|e| format!("open a WAL in {dir:?}: {e:?}"))?;
        let (mut append_ns, mut sync_ns, mut syncs) = (0u128, 0u128, 0u32);
        const APPENDS: u64 = 2048;
        for i in 0..APPENDS {
            let op = encode_op(&WalOp::Set {
                rank: i,
                key: i,
                payload: payload(seed, i, 1, w.payload_len),
                delta_seq: i,
            });
            let start = Instant::now();
            wal.append(&op).map_err(|e| format!("WAL append: {e:?}"))?;
            append_ns += start.elapsed().as_nanos();
            if i % 64 == 63 {
                let start = Instant::now();
                wal.sync().map_err(|e| format!("WAL sync: {e:?}"))?;
                sync_ns += start.elapsed().as_nanos();
                syncs += 1;
            }
        }
        Ok((
            append_ns as f64 / APPENDS as f64,
            sync_ns as f64 / f64::from(syncs),
        ))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

// ----- the loopback run -----

struct HostThread {
    tx: Sender<HostEvent>,
    thread: JoinHandle<()>,
}

fn spawn_host(spec: &ClusterSpec, net: &LoopbackNet, ids: Vec<u32>) -> HostThread {
    let (tx, rx) = mpsc::channel();
    net.register(&ids, tx.clone());
    let (spec, net, host_tx) = (spec.clone(), net.clone(), tx.clone());
    let thread = std::thread::spawn(move || {
        let shared = spec.build_shared();
        let transport = LoopbackTransport::new(net, &ids);
        let mut host = NodeHost::new(shared.clone(), transport, host_tx, rx);
        for &id in &ids {
            host.add_node(id, spec.build_node(&shared, id));
        }
        host.run();
    });
    HostThread { tx, thread }
}

/// CPU ns per operation of the workload's stream over an in-process
/// cluster of the TCP run's shape: one host thread per daemon, the client
/// on this thread, every cross-host message through the wire codec but
/// none through a socket.
fn loopback_cpu_ns_per_op(w: &Workload, seed: u64, seconds: u64) -> Result<f64, String> {
    let spec = loopback_spec(w)?;
    let net = LoopbackNet::new();
    let hosts: Vec<HostThread> = w
        .procs()
        .into_iter()
        .map(|plan| spawn_host(&spec, &net, plan.nodes))
        .collect();
    let measured = (|| {
        let mut client = client_host(&spec, &net, &[CLIENT_NODE])?;
        let mut oracle = Oracle::new(seed, w.payload_len);
        ClosedLoop::preload(&mut client, &mut oracle, seed, w.preload, PUMP_WAIT)?;
        let mut sched = Scheduler::new(OpStream::new(seed, w.mix), w.preload);
        let mut lp = ClosedLoop::new(&mut client, &mut oracle, w.window);
        let me = std::process::id();
        let ticks_before = procfs::cpu_ticks(me).ok_or("cannot read own CPU time")?;
        let attempted_before = lp.totals.attempted;
        match w.extent {
            Extent::Time => {
                let until = Instant::now() + LOOPBACK_WINDOW;
                while Instant::now() < until && !interrupted() {
                    lp.step(&mut sched, u64::MAX);
                }
                lp.run_ops(&mut sched, 0, |_| {});
            }
            Extent::Ops { ops_per_second } => {
                lp.run_ops(&mut sched, ops_per_second * seconds, |_| {});
            }
        }
        let ticks = procfs::cpu_ticks(me).ok_or("cannot read own CPU time")? - ticks_before;
        let ops = lp.totals.attempted - attempted_before;
        if lp.totals.failed + lp.totals.rejected > 0 || ops == 0 {
            return Err(format!(
                "loopback run: {} of {ops} operations failed",
                lp.totals.failed + lp.totals.rejected
            ));
        }
        Ok(ticks as f64 / procfs::ticks_per_second() * 1e9 / ops as f64)
    })();
    for host in &hosts {
        let _ = host.tx.send(HostEvent::Shutdown);
    }
    for host in hosts {
        host.thread
            .join()
            .map_err(|_| "a loopback host thread panicked")?;
    }
    measured
}

// ----- putting the rows together -----

/// Every per-layer row of `w`: what the traced TCP run counted, what the
/// walk, the kernels and the loopback run timed, and the budget that sets
/// their sum against the whole.
pub fn layers(
    w: &Workload,
    seed: u64,
    seconds: u64,
    work_root: &Path,
    untraced: &RunReport,
    traced: &RunReport,
) -> Result<Layers, String> {
    let walked = walk(w, seed)?;
    let ops = walked.ops as f64;
    let t = &walked.timer;
    let per_op = |name: &str| t.sum(name) / ops;
    let counted = |name: &str| {
        traced
            .per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };

    let buckets = traced
        .info
        .iter()
        .find(|(n, _)| *n == "buckets")
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or(1.0);
    let k = kernels(w, seed, (f64::from(w.preload) / buckets.max(1.0)) as usize)?;
    let (wal_append_ns, wal_sync_ns) = if w.durable {
        wal_kernels(w, seed, work_root)?
    } else {
        (0.0, 0.0)
    };
    let loopback_ns = loopback_cpu_ns_per_op(w, seed, seconds)?;

    let write_share = walked.writes as f64 / ops;
    let rs_delta = k.delta_ns * write_share;
    let parity = per_op("parity_bucket.handle");
    let data =
        per_op("data_bucket.read") + per_op("data_bucket.write") + per_op("data_bucket.other");
    let frames = per_op("frame.encode") + per_op("frame.decode");
    // An append is CPU (a buffered write); a sync is time spent waiting for
    // the disk, so it is reported but stays out of the CPU budget.
    let wal_per_op = wal_append_ns * counted("wal.appends_per_op");
    let in_memory = walked.address_ns
        + per_op("client.handle")
        + per_op("wire.encode")
        + per_op("wire.decode")
        + data
        + parity
        + per_op("coordinator.handle");
    let walk_ns = in_memory + frames + wal_per_op;
    let cpu_ns = traced.end_to_end("cpu_us_per_op") * 1e3;

    let mut rows = traced.per_layer.clone();
    rows.extend([
        ("lh.address_ns", walked.address_ns),
        ("wire.encode_ns_per_op", per_op("wire.encode")),
        ("wire.decode_ns_per_op", per_op("wire.decode")),
        ("wire.bytes_per_op", walked.wire_bytes as f64 / ops),
        ("frame.encode_ns_per_op", per_op("frame.encode")),
        ("frame.decode_ns_per_op", per_op("frame.decode")),
        ("client.handle_ns_per_op", per_op("client.handle")),
        ("data_bucket.read_ns", t.mean("data_bucket.read")),
        ("data_bucket.write_ns", t.mean("data_bucket.write")),
        ("data_bucket.handle_ns_per_op", data),
        ("parity_bucket.handle_ns_per_op", parity),
        ("parity_bucket.self_ns_per_op", (parity - rs_delta).max(0.0)),
        ("rs.delta_ns_per_op", rs_delta),
        ("rs.reconstruct_mb_per_s", k.reconstruct_mb_per_s),
        ("gf.xor_mb_per_s", k.xor_mb_per_s),
        ("gf.mul_add_mb_per_s", k.mul_add_mb_per_s),
        ("wal.append_ns", wal_append_ns),
        ("wal.sync_ns", wal_sync_ns),
        ("coordinator.handle_ns_per_op", per_op("coordinator.handle")),
        ("host.loopback_ns_per_op", loopback_ns),
        // The loopback cluster neither frames nor logs: what its CPU per
        // op exceeds the in-memory walk rows by is queueing and dispatch.
        ("host.dispatch_ns_per_op", loopback_ns - in_memory),
        ("transport.cpu_ns_per_op", cpu_ns - loopback_ns - wal_per_op),
        ("budget.walk_ns_per_op", walk_ns),
        ("budget.explained_share", walk_ns / cpu_ns),
        ("trace.ops_per_s", traced.end_to_end("ops_per_s")),
        ("trace.cpu_us_per_op", traced.end_to_end("cpu_us_per_op")),
        (
            "trace.overhead_share",
            1.0 - traced.end_to_end("ops_per_s") / untraced.end_to_end("ops_per_s"),
        ),
        ("trace.walk_ops", ops),
        (
            "trace.spans",
            (traced.spans.len() + walked.timer.spans.len()) as f64,
        ),
    ]);
    Ok(Layers {
        rows,
        spans: walked.timer.spans,
    })
}
