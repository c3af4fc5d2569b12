//! Drills for the multiplexed client path over the loopback network:
//!
//! * **Δ-coalescing** — a burst of inserts processed in one host poll
//!   batch ships its parity Δ-commits as one [`Msg::ParityBatch`] frame,
//!   not one frame per op (deterministic: both hosts run on the test
//!   thread, so batch boundaries are exact).
//! * **Abandon** — an operation the caller gives up on is concluded in
//!   the client actor at once: its late reply never surfaces, and the
//!   client's next request carries a floor above it.
//! * **Group commit** — under `FsyncPolicy::Batch` a poll batch of N
//!   appends costs one fsync on the WAL's disk thread
//!   (`wal_group_commits`), which covers all N (`wal_group_commit_ops`).
//! * **Pipelined kill drill** — a windowed `run_window` load rides
//!   through splits, a bucket-host kill, and recovery with zero
//!   acked-data loss and out-of-order completion.

use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use lhrs_core::api::OpOutcome;
use lhrs_core::msg::{ClientOp, Msg, OpResult};
use lhrs_core::{Config, FsyncPolicy};
use lhrs_net::client::NetClient;
use lhrs_net::cluster::{ClusterSpec, NodeSpec, Role};
use lhrs_net::durable::wal_factory;
use lhrs_net::host::NodeHost;
use lhrs_net::transport::{HostEvent, LoopbackNet, LoopbackTransport, Transport};
use lhrs_obs::{Clock, Metrics};
use lhrs_sim::NodeId;

fn payload_for(key: u64) -> Vec<u8> {
    format!("pipe-{key:06}").into_bytes()
}

/// A 4-node spec for the single-threaded drills: coordinator (unhosted),
/// client, one data bucket, one parity bucket. `bucket_capacity` is high
/// enough that nothing splits, and `client_timeout_us` long enough that
/// no retransmit fires inside a drill's window — every frame on the wire
/// is one the test put there.
fn tiny_spec() -> ClusterSpec {
    let cfg = Config {
        group_size: 2,
        initial_k: 1,
        bucket_capacity: 1000,
        record_len: 32,
        ack_writes: true,
        ack_parity: false,
        client_timeout_us: 500_000,
        retry_backoff_cap_us: 500_000,
        wal_snapshot_every: 0,
        ..Config::default()
    };
    let nodes = (0..4u32)
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
    spec.validate().expect("tiny spec valid");
    spec
}

/// Build a host carrying `ids` on the calling thread.
fn build_host(
    spec: &ClusterSpec,
    net: &LoopbackNet,
    ids: &[u32],
    metrics: &Metrics,
) -> NodeHost<LoopbackTransport> {
    let (tx, rx) = mpsc::channel();
    net.register(ids, tx.clone());
    let shared = spec.build_shared();
    let transport = LoopbackTransport::new(net.clone(), ids);
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    host.set_metrics(metrics.clone());
    for &id in ids {
        host.add_node(id, spec.build_node(&shared, id));
    }
    host
}

/// A burst of inserts handled inside one poll batch ships its Δ-commits
/// to the parity host as a single coalesced `ParityBatch`.
#[test]
fn delta_burst_coalesces_into_one_batch() {
    const BURST: u64 = 8;
    let spec = tiny_spec();
    let net = LoopbackNet::new();
    let metrics = Metrics::new(Clock::wall());

    // Client and data bucket share a host, so the whole insert burst is
    // one local cascade inside a single poll; the parity bucket is the
    // only remote destination.
    let host_a = build_host(&spec, &net, &[1, 2], &metrics);
    let mut host_b = build_host(&spec, &net, &[3], &metrics);
    let mut client = NetClient::new(host_a, 1, 1);

    for key in 1..=BURST {
        client.submit(ClientOp::Insert {
            key,
            payload: payload_for(key),
        });
    }
    // One pump = one poll batch: every insert applies, every Δ is
    // buffered, and the poll-batch boundary flushes them as one frame.
    client.pump(Duration::from_millis(1));
    assert_eq!(
        metrics.counter_total("net_delta_batches"),
        1,
        "one poll batch of {BURST} inserts ships one ParityBatch"
    );
    assert_eq!(
        metrics.counter_total("net_deltas_coalesced"),
        BURST,
        "every buffered Δ rides the coalesced frame"
    );
    assert_eq!(metrics.counter_total("inflight_launched"), BURST);
    assert_eq!(
        metrics.counter_total("inflight_completed"),
        BURST,
        "acks don't wait on parity (ack_parity off): one batch completes all"
    );

    // Let the parity host apply the batch and its acks drain back, so the
    // data bucket retires the Δs instead of queueing retransmits.
    for _ in 0..4 {
        host_b.poll(Duration::from_millis(1));
        client.pump(Duration::from_millis(1));
    }
}

/// The next request `rx` (node 2's inbox) delivers: its op id and floor.
fn next_req(rx: &Receiver<HostEvent>) -> (u64, u64) {
    loop {
        let event = rx.recv_timeout(Duration::from_secs(5)).expect("a request");
        if let HostEvent::Deliver {
            msg: Msg::Req { op_id, floor, .. },
            ..
        } = event
        {
            return (op_id, floor);
        }
    }
}

/// `abandon` concludes the op in the client actor: the reply that arrives
/// later never surfaces, and the floor moves past the op at once, so the
/// client's next request no longer holds the bucket's completion records
/// down to it.
#[test]
fn abandoned_op_concludes_at_once_and_frees_the_floor() {
    let spec = tiny_spec();
    let net = LoopbackNet::new();
    let metrics = Metrics::new(Clock::wall());
    let host_a = build_host(&spec, &net, &[1], &metrics);
    // Node 2 (bucket 0) is the test itself: it reads the client's
    // requests and answers when it chooses.
    let (bucket_tx, bucket_rx) = mpsc::channel();
    net.register(&[2], bucket_tx);
    let mut bucket = LoopbackTransport::new(net.clone(), &[2]);
    let mut client = NetClient::new(host_a, 1, 1);

    let insert = |key: u64| ClientOp::Insert {
        key,
        payload: payload_for(key),
    };
    let abandoned = client.submit(insert(7));
    client.pump(Duration::from_millis(1));
    assert_eq!(next_req(&bucket_rx), (abandoned, abandoned));
    client.abandon(abandoned);

    let next = client.submit(insert(8));
    client.pump(Duration::from_millis(1));
    let (op_id, floor) = next_req(&bucket_rx);
    assert_eq!(op_id, next);
    assert!(
        floor > abandoned,
        "the next request's floor {floor} still holds abandoned op {abandoned}"
    );

    // Both replies arrive, the abandoned op's late: only the live op's
    // surfaces.
    for op_id in [abandoned, next] {
        let reply = Msg::Reply {
            op_id,
            result: OpResult::Inserted,
            iam: None,
        };
        bucket.send_msg(NodeId(2), NodeId(1), &reply);
    }
    client.pump(Duration::from_millis(5));
    assert_eq!(client.take_completed(), vec![(next, OpResult::Inserted)]);
}

/// Under `FsyncPolicy::Batch`, one poll batch of appends is one fsync on
/// the WAL's disk thread: `wal_group_commits` counts the fsyncs it
/// issued, `wal_group_commit_ops` the appends they covered.
#[test]
fn poll_batch_of_appends_is_one_group_commit() {
    const BURST: u64 = 6;
    let mut spec = tiny_spec();
    spec.cfg.wal_fsync = FsyncPolicy::Batch;
    let net = LoopbackNet::new();
    let metrics = Metrics::new(Clock::wall());
    let root = std::env::temp_dir().join(format!("lhrs-groupcommit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // One host: client plus a durable data bucket (the parity node stays
    // unhosted; acks don't wait on it).
    let (tx, rx) = mpsc::channel();
    net.register(&[1, 2], tx.clone());
    let shared = spec.build_shared();
    shared.set_store_factory(wal_factory(root.clone(), FsyncPolicy::Batch));
    let transport = LoopbackTransport::new(net.clone(), &[1, 2]);
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    host.set_metrics(metrics.clone());
    host.add_node(1, spec.build_node(&shared, 1));
    let mut bucket = spec.build_node(&shared, 2);
    bucket.attach_fresh_store(NodeId(2));
    host.add_node(2, bucket);
    let mut client = NetClient::new(host, 1, 1);

    for key in 1..=BURST {
        client.submit(ClientOp::Insert {
            key,
            payload: payload_for(key),
        });
    }
    client.pump(Duration::from_millis(1));
    assert_eq!(
        metrics.counter_total("inflight_completed"),
        BURST,
        "acks leave before the fsync"
    );
    // The burst's fsync finishes on the disk thread; the next poll, idle
    // or not, reports it.
    lhrs_wal::wait_disk_idle();
    client.pump(Duration::from_millis(1));
    assert_eq!(
        metrics.counter_total("wal_group_commits"),
        1,
        "one poll batch of appends syncs once"
    );
    assert_eq!(
        metrics.counter_total("wal_group_commit_ops"),
        BURST,
        "the one fsync covers the whole burst"
    );

    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// The pipelined kill drill: threads, splits, recovery.
// ---------------------------------------------------------------------------

/// A 16-node spec: coordinator, client, bucket 0, one parity, twelve
/// spares, with a bucket capacity low enough that the load forces splits.
/// The spare pool is sized so that even the deepest observed split run
/// (eight data buckets + four parity groups) leaves nodes for the
/// post-kill rebuild — with fewer spares the recovery legitimately stalls
/// ("no spare nodes to rebuild onto") and wave-2 writes to the dead bucket
/// fail un-acked, which is graceful degradation, not the drill's subject.
fn cluster_spec() -> ClusterSpec {
    let cfg = Config {
        group_size: 2,
        initial_k: 1,
        bucket_capacity: 24,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        client_timeout_us: 50_000,
        client_retries: 2,
        retry_backoff_cap_us: 200_000,
        delta_retransmit_us: 50_000,
        probe_timeout_us: 50_000,
        coord_retransmit_us: 80_000,
        coord_retries: 20,
        ..Config::default()
    };
    let nodes = (0..16u32)
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
    spec.validate().expect("cluster spec valid");
    spec
}

struct ServerHost {
    id: u32,
    tx: Sender<HostEvent>,
    thread: JoinHandle<()>,
}

fn spawn_server(spec: &ClusterSpec, net: &LoopbackNet, id: u32, metrics: &Metrics) -> ServerHost {
    let (tx, rx) = mpsc::channel();
    net.register(&[id], tx.clone());
    let spec = spec.clone();
    let net = net.clone();
    let thread_tx = tx.clone();
    let metrics = metrics.clone();
    let thread = std::thread::spawn(move || {
        let shared = spec.build_shared();
        let transport = LoopbackTransport::new(net, &[id]);
        let mut host = NodeHost::new(shared.clone(), transport, thread_tx, rx);
        host.set_metrics(metrics);
        host.add_node(id, spec.build_node(&shared, id));
        host.run();
    });
    ServerHost { id, tx, thread }
}

/// Run `ops` through the pipelined window and assert every outcome is
/// `Done`, returning nothing — the caller owns the oracle.
fn pipelined_inserts(
    client: &mut NetClient<LoopbackTransport>,
    keys: impl Iterator<Item = u64>,
    window: usize,
    stage: &str,
) {
    let keys: Vec<u64> = keys.collect();
    let ops: Vec<ClientOp> = keys
        .iter()
        .map(|&key| ClientOp::Insert {
            key,
            payload: payload_for(key),
        })
        .collect();
    for (&key, (outcome, _)) in keys.iter().zip(client.run_window(ops, window)) {
        assert_eq!(
            outcome,
            OpOutcome::Done,
            "[{stage}] pipelined insert {key} must be acked"
        );
    }
}

#[test]
fn pipelined_window_survives_kill_with_zero_acked_loss() {
    const WAVE1: u64 = 80;
    const WAVE2: u64 = 40;
    const WINDOW: usize = 16;

    let spec = cluster_spec();
    let net = LoopbackNet::new();
    let metrics = Metrics::new(Clock::wall());

    let mut servers: Vec<ServerHost> = std::iter::once(0)
        .chain(spec.server_ids())
        .map(|id| spawn_server(&spec, &net, id, &metrics))
        .collect();

    let (tx, rx) = mpsc::channel();
    net.register(&[1], tx.clone());
    let shared = spec.build_shared();
    let transport = LoopbackTransport::new(net.clone(), &[1]);
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    host.set_metrics(metrics.clone());
    host.add_node(1, spec.build_node(&shared, 1));
    let mut client = NetClient::new(host, 1, 1);
    assert!(
        client.sync_registry(0, Duration::from_secs(10)),
        "client never received the allocation table"
    );

    // Wave 1: a windowed pipelined load that rides through several splits
    // — IAM redirects and registry broadcasts land between pumps while
    // other ops are still in flight.
    pipelined_inserts(&mut client, 1..=WAVE1, WINDOW, "wave1");

    // Kill the host carrying bucket 0 with acked records on it.
    let victim = servers
        .iter()
        .position(|s| s.id == 2)
        .expect("node 2 hosted");
    net.unregister(&[2]);
    let _ = servers[victim].tx.send(HostEvent::Shutdown);
    servers.remove(victim).thread.join().expect("victim joins");

    // Wave 2 starts immediately: ops aimed at the dead bucket stall and
    // escalate (suspect → probe → rebuild) while ops for other buckets
    // complete around them, out of submission order.
    pipelined_inserts(&mut client, WAVE1 + 1..=WAVE1 + WAVE2, WINDOW, "wave2");

    // Zero acked-data loss: every acked key reads back, pipelined too.
    let keys: Vec<u64> = (1..=WAVE1 + WAVE2).collect();
    let lookups: Vec<ClientOp> = keys.iter().map(|&key| ClientOp::Lookup { key }).collect();
    for (&key, (outcome, _)) in keys.iter().zip(client.run_window(lookups, WINDOW)) {
        assert_eq!(
            outcome,
            OpOutcome::Value(Some(payload_for(key))),
            "acked key {key} must survive the kill"
        );
    }

    // The drill's accounting: every launch completed, and the window (not
    // the cluster) was the limiter at least once per wave.
    let launched = metrics.counter_total("inflight_launched");
    let completed = metrics.counter_total("inflight_completed");
    assert_eq!(launched, 2 * (WAVE1 + WAVE2), "two waves plus the verify");
    assert_eq!(completed, launched, "every pipelined op completed");
    assert!(
        metrics.counter_total("window_full_stalls") > 0,
        "a {WINDOW}-wide window over {} ops must stall on window-full",
        2 * (WAVE1 + WAVE2)
    );
    assert_eq!(
        metrics.counter_total("recovery_shards_rebuilt"),
        1,
        "killing one node of a k = 1 group rebuilds exactly one shard"
    );

    for s in &servers {
        let _ = s.tx.send(HostEvent::Shutdown);
    }
    for s in servers {
        s.thread.join().expect("server joins");
    }
}
