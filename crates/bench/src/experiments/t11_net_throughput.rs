//! **T11 — Networked throughput vs the simulator's message model.**
//!
//! The `lhrs-net` subsystem runs the *same* node actors as the simulator,
//! over a real transport. This experiment drives an in-process loopback
//! cluster (every client↔server message round-tripping through the wire
//! codec) and reports wall-clock throughput and latency percentiles next
//! to the simulator's exact per-operation message counts for an identical
//! workload — the cost model the paper argues in messages, measured in
//! microseconds.
//!
//! Four sections:
//!
//! * **T11a, closed loop, seed-identical config** — the multiplexed
//!   client keeps a bounded window of operations in flight, submitting
//!   the next as each completes. The window sweep (1/8/64/256) shows the
//!   one-op-in-flight wall falling: window 1 is the old synchronous
//!   client (ops/sec ≈ 1e6/p50); wider windows overlap requests, as the
//!   paper's LH\* performance claims assume. Small (256-record) buckets
//!   mean the run splits repeatedly, so LH\* split churn is in the
//!   measured window, exactly as in the seed number.
//! * **T11b, closed loop, bucket-resident** — the same sweep with
//!   buckets sized so the key range stays resident (no splits): the
//!   pipeline's own ceiling, separated from split cost.
//! * **T11c, multi-client sustained** — independent client threads with
//!   disjoint key ranges against one shared cluster, 30k ops each.
//! * **T11d, open loop** — operations arrive on a fixed schedule whether
//!   or not earlier ones completed, the honest model of independent
//!   clients. Reported latency is against the *scheduled* arrival, so
//!   queueing delay at saturation is visible instead of being absorbed
//!   into a slower submission rate (closed-loop coordinated omission).
//!
//! Server processes use the consolidated hosting shape: one event-driven
//! `NodeHost` thread carries the coordinator and every server node, the
//! way an LH\*RS server process hosts many buckets. Co-hosted hops
//! deliver decoded messages through the host's own queue; client-boundary
//! messages cross the codec and an mpsc channel. On the single-core bench
//! host, client and servers timeshare one CPU, so wide-window rates here
//! are bounded by total per-op CPU, not by the protocol's round trips.

use std::collections::HashMap;
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lhrs_core::api::OpOutcome;
use lhrs_core::msg::ClientOp;
use lhrs_core::{Config, LhrsFile};
use lhrs_net::client::NetClient;
use lhrs_net::cluster::{ClusterSpec, NodeSpec, Role};
use lhrs_net::host::NodeHost;
use lhrs_net::transport::{HostEvent, LoopbackNet, LoopbackTransport};
use lhrs_sim::LatencyModel;

use crate::table::f2;
use crate::Table;

/// Operations per closed-loop phase (inserts, then lookups, same keys).
const OPS: u64 = 3000;
/// In-flight window sweep for the closed-loop sections.
const WINDOWS: [usize; 4] = [1, 8, 64, 256];
/// `(clients, window per client)` sweep for the multi-client section.
const MC_SWEEP: [(usize, usize); 3] = [(1, 64), (1, 256), (2, 64)];
/// Operations per client in the multi-client section.
const MC_OPS: u64 = 30_000;
/// Operations per open-loop run.
const OPEN_OPS: u64 = 12_000;
/// Offered arrival rates (ops/s) for the open-loop section.
const RATES: [u64; 3] = [50_000, 200_000, 800_000];
/// Per-operation deadline: far above any observed loopback latency.
const OP_TIMEOUT: Duration = Duration::from_secs(30);
/// Overall drain deadline for one open-loop run.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

/// The seed benchmark's config, verbatim: small buckets, so the insert
/// phase splits its way up to ~12 buckets and split churn is measured.
fn bench_config() -> Config {
    Config {
        group_size: 2,
        initial_k: 1,
        bucket_capacity: 256,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        node_pool: 64,
        ..Config::default()
    }
}

/// Bucket-resident config: buckets sized so the key range never splits.
/// Used for the pipeline-ceiling sweep, the multi-client section, and the
/// open-loop section (an arrival schedule should measure the pipeline,
/// not split churn).
fn resident_config() -> Config {
    Config {
        bucket_capacity: 16_384,
        ..bench_config()
    }
}

fn payload_for(key: u64) -> Vec<u8> {
    format!("t11-{key:08}").into_bytes()
}

struct Server {
    tx: Sender<HostEvent>,
    thread: JoinHandle<()>,
}

/// One host thread carrying *all* of `ids` — the consolidated-hosting
/// shape: co-hosted nodes deliver to each other through their own event
/// queue, so a hop between them costs a queue push, not a context switch.
fn spawn_host_group(spec: &ClusterSpec, net: &LoopbackNet, ids: Vec<u32>) -> Server {
    let (tx, rx) = mpsc::channel();
    net.register(&ids, tx.clone());
    let spec = spec.clone();
    let net = net.clone();
    let thread_tx = tx.clone();
    let thread = std::thread::spawn(move || {
        let shared = spec.build_shared();
        let transport = LoopbackTransport::new(net, &ids);
        let mut host = NodeHost::new(shared.clone(), transport, thread_tx, rx);
        for &id in &ids {
            host.add_node(id, spec.build_node(&shared, id));
        }
        host.run();
    });
    Server { tx, thread }
}

/// A fresh loopback cluster — one consolidated server-host thread
/// (coordinator + 38 server nodes) — and a synced multiplexed client on
/// its own thread. Each phase gets its own cluster so sweep points are
/// independent.
fn build_cluster(cfg: Config) -> (Vec<Server>, NetClient<LoopbackTransport>) {
    let nodes = (0..40u32)
        .map(|id| NodeSpec {
            id,
            addr: format!("loopback:{id}"),
            role: match id {
                0 => Role::Coordinator,
                1 => Role::Client,
                _ => Role::Server,
            },
        })
        .collect();
    let spec = ClusterSpec { cfg, nodes };
    spec.validate().expect("bench spec valid");

    let net = LoopbackNet::new();
    let group: Vec<u32> = std::iter::once(0).chain(spec.server_ids()).collect();
    let servers: Vec<Server> = vec![spawn_host_group(&spec, &net, group)];

    let (tx, rx) = mpsc::channel();
    net.register(&[1], tx.clone());
    let shared = spec.build_shared();
    let transport = LoopbackTransport::new(net.clone(), &[1]);
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    host.add_node(1, spec.build_node(&shared, 1));
    let mut client = NetClient::new(host, 1, 1);
    client.set_op_timeout(OP_TIMEOUT);
    assert!(
        client.sync_registry(0, Duration::from_secs(10)),
        "no allocation table"
    );
    (servers, client)
}

fn teardown(servers: Vec<Server>) {
    for s in &servers {
        let _ = s.tx.send(HostEvent::Shutdown);
    }
    for s in servers {
        s.thread.join().expect("server joins");
    }
}

/// `(ops/sec, p50 µs, p99 µs)` over per-op latencies.
fn stats(latencies: &mut [u64], wall: Duration) -> (f64, u64, u64) {
    latencies.sort_unstable();
    let n = latencies.len();
    let pct = |p: usize| latencies[(n * p / 100).min(n - 1)];
    (n as f64 / wall.as_secs_f64(), pct(50), pct(99))
}

/// One closed-loop sweep point: insert then look up `OPS` keys through a
/// `window`-wide pipeline on a fresh cluster. Returns
/// `((rate, p50, p99), (rate, p50, p99))` for insert and lookup.
fn closed_loop_phase(cfg: Config, window: usize) -> ((f64, u64, u64), (f64, u64, u64)) {
    let (servers, mut client) = build_cluster(cfg);

    let inserts: Vec<ClientOp> = (1..=OPS)
        .map(|key| ClientOp::Insert {
            key,
            payload: payload_for(key),
        })
        .collect();
    let t0 = Instant::now();
    let results = client.run_window(inserts, window);
    let insert_wall = t0.elapsed();
    let mut insert_lat: Vec<u64> = results
        .iter()
        .enumerate()
        .map(|(i, (outcome, lat))| {
            assert_eq!(
                *outcome,
                OpOutcome::Done,
                "insert {} failed at window {window}",
                i + 1
            );
            lat.as_micros() as u64
        })
        .collect();

    let lookups: Vec<ClientOp> = (1..=OPS).map(|key| ClientOp::Lookup { key }).collect();
    let t0 = Instant::now();
    let results = client.run_window(lookups, window);
    let lookup_wall = t0.elapsed();
    let mut lookup_lat: Vec<u64> = results
        .iter()
        .enumerate()
        .map(|(i, (outcome, lat))| {
            let key = i as u64 + 1;
            assert_eq!(
                *outcome,
                OpOutcome::Value(Some(payload_for(key))),
                "lookup {key} failed at window {window}"
            );
            lat.as_micros() as u64
        })
        .collect();

    teardown(servers);
    (
        stats(&mut insert_lat, insert_wall),
        stats(&mut lookup_lat, lookup_wall),
    )
}

/// The multi-client aggregate: `clients` independent client threads, each
/// with its own connection, request-id space, and windowed
/// pipeline, inserting disjoint key ranges into one shared cluster.
/// Returns `(aggregate ops/s, pooled p50, pooled p99)` — the aggregate is
/// total ops over the *slowest* client's wall, the honest cluster rate.
fn multi_client_phase(clients: usize, window: usize) -> (f64, u64, u64) {
    let client_ids: Vec<u32> = (1..=clients as u32).collect();
    let nodes = (0..12u32)
        .map(|id| NodeSpec {
            id,
            addr: format!("loopback:{id}"),
            role: if id == 0 {
                Role::Coordinator
            } else if client_ids.contains(&id) {
                Role::Client
            } else {
                Role::Server
            },
        })
        .collect();
    let spec = ClusterSpec {
        cfg: resident_config(),
        nodes,
    };
    spec.validate().expect("bench spec valid");

    let net = LoopbackNet::new();
    let group: Vec<u32> = std::iter::once(0).chain(spec.server_ids()).collect();
    let servers: Vec<Server> = vec![spawn_host_group(&spec, &net, group)];

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients));
    let workers: Vec<JoinHandle<(Vec<u64>, Duration)>> = client_ids
        .iter()
        .map(|&id| {
            let spec = spec.clone();
            let net = net.clone();
            let barrier = barrier.clone();
            let base = (id as u64 - 1) * MC_OPS;
            std::thread::spawn(move || {
                let (tx, rx) = mpsc::channel();
                net.register(&[id], tx.clone());
                let shared = spec.build_shared();
                let transport = LoopbackTransport::new(net, &[id]);
                let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
                host.add_node(id, spec.build_node(&shared, id));
                let mut client = NetClient::new(host, id, 1);
                client.set_op_timeout(OP_TIMEOUT);
                assert!(
                    client.sync_registry(0, Duration::from_secs(10)),
                    "client {id}: no allocation table"
                );
                let ops: Vec<ClientOp> = (base + 1..=base + MC_OPS)
                    .map(|key| ClientOp::Insert {
                        key,
                        payload: payload_for(key),
                    })
                    .collect();
                barrier.wait();
                let t0 = Instant::now();
                let results = client.run_window(ops, window);
                let wall = t0.elapsed();
                let lat: Vec<u64> = results
                    .iter()
                    .enumerate()
                    .map(|(i, (outcome, lat))| {
                        assert_eq!(
                            *outcome,
                            OpOutcome::Done,
                            "client {id} insert {} failed",
                            base + i as u64 + 1
                        );
                        lat.as_micros() as u64
                    })
                    .collect();
                (lat, wall)
            })
        })
        .collect();

    let mut pooled: Vec<u64> = Vec::with_capacity(clients * MC_OPS as usize);
    let mut slowest = Duration::ZERO;
    for w in workers {
        let (lat, wall) = w.join().expect("client thread joins");
        pooled.extend(lat);
        slowest = slowest.max(wall);
    }
    teardown(servers);

    let total = pooled.len() as f64;
    let (_, p50, p99) = stats(&mut pooled, slowest);
    (total / slowest.as_secs_f64(), p50, p99)
}

/// One open-loop run: submit `OPEN_OPS` inserts on a fixed `rate` (ops/s)
/// schedule, never waiting for completions, and measure each op against
/// its *scheduled* arrival. Returns `(achieved ops/s, p50, p99)`.
fn open_loop_phase(rate: u64) -> (f64, u64, u64) {
    let (servers, mut client) = build_cluster(resident_config());

    let interval = Duration::from_nanos(1_000_000_000 / rate.max(1));
    let mut arrivals: HashMap<u64, Instant> = HashMap::with_capacity(OPEN_OPS as usize);
    let mut latencies: Vec<u64> = Vec::with_capacity(OPEN_OPS as usize);
    let drain = |client: &mut NetClient<LoopbackTransport>,
                 arrivals: &mut HashMap<u64, Instant>,
                 latencies: &mut Vec<u64>| {
        let now = Instant::now();
        for (id, result) in client.take_completed() {
            let outcome = OpOutcome::from_result(result);
            assert!(
                matches!(outcome, OpOutcome::Done),
                "open-loop insert {id} failed: {outcome:?}"
            );
            if let Some(due) = arrivals.remove(&id) {
                latencies.push(now.saturating_duration_since(due).as_micros() as u64);
            }
        }
    };

    let t0 = Instant::now();
    for i in 0..OPEN_OPS {
        let due = t0 + interval.saturating_mul(i as u32);
        // Pace the arrival: pump (nonblocking) until the schedule says go.
        while Instant::now() < due {
            client.pump(Duration::ZERO);
            drain(&mut client, &mut arrivals, &mut latencies);
        }
        let key = i + 1;
        let id = client.submit(ClientOp::Insert {
            key,
            payload: payload_for(key),
        });
        arrivals.insert(id, due);
    }
    // Drain the tail.
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while !arrivals.is_empty() {
        assert!(
            Instant::now() < deadline,
            "open-loop run at {rate} ops/s never drained: {} ops outstanding",
            arrivals.len()
        );
        client.pump(Duration::from_millis(1));
        drain(&mut client, &mut arrivals, &mut latencies);
    }
    let wall = t0.elapsed();

    teardown(servers);
    let (achieved, p50, p99) = stats(&mut latencies, wall);
    (achieved, p50, p99)
}

/// One closed-loop sweep table over `WINDOWS`. Returns the table plus the
/// window-1 and best insert rates for the ratio notes.
fn closed_sweep(title: &str, cfg: Config, sim_insert: f64, sim_lookup: f64) -> (Table, f64, f64) {
    let mut table = Table::new(
        title,
        &[
            "window",
            "phase",
            "ops",
            "ops/sec",
            "p50 us",
            "p99 us",
            "sim msgs/op",
        ],
    );
    let mut w1_insert = 0.0f64;
    let mut best_insert = 0.0f64;
    for window in WINDOWS {
        let (ins, look) = closed_loop_phase(cfg.clone(), window);
        if window == 1 {
            w1_insert = ins.0;
        }
        best_insert = best_insert.max(ins.0);
        table.row(vec![
            window.to_string(),
            "insert".into(),
            OPS.to_string(),
            f2(ins.0),
            ins.1.to_string(),
            ins.2.to_string(),
            f2(sim_insert),
        ]);
        table.row(vec![
            window.to_string(),
            "lookup".into(),
            OPS.to_string(),
            f2(look.0),
            look.1.to_string(),
            look.2.to_string(),
            f2(sim_lookup),
        ]);
    }
    (table, w1_insert, best_insert)
}

/// Exact simulator message counts per op for `cfg`'s workload.
fn sim_costs(cfg: Config) -> (f64, f64) {
    let sim_cfg = Config {
        latency: LatencyModel::instant(),
        ..cfg
    };
    let mut file = LhrsFile::new(sim_cfg).expect("config");
    let insert_cost = file.cost_of(|f| {
        for key in 1..=OPS {
            f.insert(key, payload_for(key)).expect("sim insert");
        }
    });
    let lookup_cost = file.cost_of(|f| {
        for key in 1..=OPS {
            f.lookup(key).expect("sim lookup");
        }
    });
    (
        insert_cost.total_messages() as f64 / OPS as f64,
        lookup_cost.total_messages() as f64 / OPS as f64,
    )
}

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let (seed_sim_insert, seed_sim_lookup) = sim_costs(bench_config());
    let (res_sim_insert, res_sim_lookup) = sim_costs(resident_config());

    // --- T11a: closed loop, seed-identical config (splits included) ---
    let (mut seeded, seeded_w1, seeded_best) = closed_sweep(
        "T11a: closed-loop window sweep, seed-identical config (m = 2, k = 1, acked writes + parity, 256-record buckets, splits included)",
        bench_config(),
        seed_sim_insert,
        seed_sim_lookup,
    );
    seeded.note(
        "fresh cluster per sweep point: one consolidated server-host thread (coordinator + \
         38 server nodes — an LH*RS server process hosts many buckets) plus 1 client \
         thread; every client↔server message crosses the real wire codec. Window 1 is the \
         old synchronous client: one op in flight, ops/sec ≈ 1e6/p50. The seed measured \
         ~39.0k inserts/s, p99 127µs in this config; the window-1 path itself tightened \
         (event-driven host, batched dispatch), and wider windows overlap independent \
         requests. Per-op latency at wide windows includes time queued in the window.",
    );
    seeded.note(format!(
        "best insert throughput is {:.1}× this run's window-1 (synchronous) rate with \
         split churn in the measured window: capacity-256 buckets split ~12 times during \
         the run, and a splitting bucket freezes writes while it partitions — part of the \
         remaining wall is LH* split cost, not the pipeline (see T11b)",
        seeded_best / seeded_w1.max(1.0)
    ));

    // --- T11b: closed loop, bucket-resident (the pipeline's ceiling) ---
    let (mut resident, resident_w1, resident_best) = closed_sweep(
        "T11b: closed-loop window sweep, bucket-resident regime (same config, 16384-record buckets, no splits)",
        resident_config(),
        res_sim_insert,
        res_sim_lookup,
    );
    resident.note(format!(
        "the pipeline's own ceiling, split cost excluded: best insert throughput is \
         {:.1}× this run's window-1 rate and {:.1}× the seed's ~39.0k synchronous rate. \
         On this single-core bench host every thread timeshares one CPU, so the widest \
         windows are bound by total per-op processing (~{:.1}µs/insert across client, \
         data, and parity work; an insert costs {} messages to a lookup's {}), not by \
         round-trip latency — the one-op-in-flight wall (ops/sec ≈ 1e6/p50) is gone",
        resident_best / resident_w1.max(1.0),
        resident_best / 39_000.0,
        1e6 / resident_best.max(1.0),
        res_sim_insert.round() as u64,
        res_sim_lookup.round() as u64,
    ));

    // --- T11c: multi-client sustained aggregate ---
    let mut multi = Table::new(
        "T11c: multi-client sustained aggregate inserts (30k ops/client, 16384-record buckets)",
        &[
            "clients",
            "window",
            "ops",
            "agg ops/sec",
            "p50 us",
            "p99 us",
            "vs 1-op-in-flight",
        ],
    );
    for (clients, window) in MC_SWEEP {
        let (agg, p50, p99) = multi_client_phase(clients, window);
        multi.row(vec![
            clients.to_string(),
            window.to_string(),
            (clients as u64 * MC_OPS).to_string(),
            f2(agg),
            p50.to_string(),
            p99.to_string(),
            format!("{:.1}x", agg / resident_w1.max(1.0)),
        ]);
    }
    multi.note(
        "independent client threads, each with its own connection, request-id space, and \
         pipelined window, inserting disjoint key ranges into one shared cluster; the \
         aggregate rate is total ops over the slowest client's wall. This is the regime \
         the paper's performance claims assume — many clients overlapping requests \
         against many buckets. On one core, extra client threads add scheduling overhead \
         rather than parallelism, so the single-client wide-window rows are the honest \
         sustained ceiling here.",
    );

    // --- T11d: open loop, fixed arrival schedules ---
    let mut open = Table::new(
        "T11d: open-loop arrival schedules, inserts (same cluster shape, 16384-record buckets)",
        &["offered ops/s", "ops", "achieved ops/s", "p50 us", "p99 us"],
    );
    for rate in RATES {
        let (achieved, p50, p99) = open_loop_phase(rate);
        open.row(vec![
            rate.to_string(),
            OPEN_OPS.to_string(),
            f2(achieved),
            p50.to_string(),
            p99.to_string(),
        ]);
    }
    open.note(
        "arrivals are scheduled up front and submitted on time whether or not earlier ops \
         completed; latency is measured from the scheduled arrival, so queueing delay at \
         saturation shows up here instead of vanishing into a slower submission rate \
         (coordinated omission). Achieved < offered means the cluster saturated.",
    );
    vec![seeded, resident, multi, open]
}
