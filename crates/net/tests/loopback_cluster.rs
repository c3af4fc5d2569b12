//! End-to-end cluster test over the in-process loopback transport: every
//! "process" is a thread with its own shared registry, its own node host,
//! and a [`LoopbackTransport`] whose messages round-trip through the real
//! wire codec. Exercises growth through splits, a bucket-host kill, and
//! coordinator-driven recovery — the same protocol path the TCP demo
//! takes, without the kernel in the way.
//!
//! Every host shares one wall-clock [`Metrics`] registry, so the drill
//! asserts the recovery through the same observability API the simulator
//! drills use, and leaves `bench_out/recovery_report.json` +
//! `bench_out/loopback_stats.prom` behind as machine-readable artifacts
//! (CI scrapes and uploads them).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use lhrs_core::api::{KvClient, OpOutcome};
use lhrs_core::Config;
use lhrs_net::client::NetClient;
use lhrs_net::cluster::{ClusterSpec, NodeSpec, Role};
use lhrs_net::demo::{self, MissKind};
use lhrs_net::host::NodeHost;
use lhrs_net::transport::{HostEvent, LoopbackNet, LoopbackTransport};
use lhrs_obs::{parse_prometheus, Clock, Event, Metrics, RecoveryReport};

const RECORDS: u64 = 80;
fn test_spec() -> ClusterSpec {
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
    // 13 nodes: coordinator, client, bucket 0, one parity, nine spares.
    let nodes = (0..13u32)
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
    spec.validate().expect("test spec valid");
    spec
}

/// A server "process": one thread hosting one node over the loopback.
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
        // Each process builds its own (non-`Send`) shared state in-thread.
        let shared = spec.build_shared();
        let transport = LoopbackTransport::new(net, &[id]);
        let mut host = NodeHost::new(shared.clone(), transport, thread_tx, rx);
        host.set_metrics(metrics);
        host.add_node(id, spec.build_node(&shared, id));
        host.run();
    });
    ServerHost { id, tx, thread }
}

fn payload_for(key: u64) -> Vec<u8> {
    format!("loop-{key:06}").into_bytes()
}

/// Every server of `spec` on its own thread, plus a client on the test
/// thread holding the allocation table.
fn start_cluster(
    spec: &ClusterSpec,
    metrics: &Metrics,
) -> (LoopbackNet, Vec<ServerHost>, NetClient<LoopbackTransport>) {
    let net = LoopbackNet::new();
    let servers: Vec<ServerHost> = std::iter::once(0)
        .chain(spec.server_ids())
        .map(|id| spawn_server(spec, &net, id, metrics))
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
    (net, servers, client)
}

fn stop(servers: Vec<ServerHost>) {
    for s in &servers {
        let _ = s.tx.send(HostEvent::Shutdown);
    }
    for s in servers {
        s.thread.join().expect("server joins");
    }
}

/// `lhrs-netcli verify`'s check names every key that does not read back,
/// not just the first, each with its bucket under the client's image.
#[test]
fn verify_names_every_missing_key() {
    let spec = test_spec();
    let metrics = Metrics::new(Clock::wall());
    let (_net, servers, mut client) = start_cluster(&spec, &metrics);
    for key in 1..=40 {
        assert_eq!(
            client.insert(key, demo::payload_for(key)),
            OpOutcome::Done,
            "insert {key} failed"
        );
    }
    for key in [7, 23] {
        assert_eq!(client.delete(key), OpOutcome::Done, "delete {key}");
    }

    let report = demo::verify(&mut client, 1..41);
    assert_eq!(report.checked, 40);
    let named: Vec<(u64, &MissKind)> = report.misses.iter().map(|m| (m.key, &m.kind)).collect();
    assert_eq!(
        named,
        [(7, &MissKind::Lost), (23, &MissKind::Lost)],
        "{}",
        report.render()
    );
    for miss in &report.misses {
        assert_eq!(miss.bucket, client.image_bucket(miss.key));
        assert!(miss
            .bucket
            .is_some_and(|b| b < client.bucket_count() as u64));
    }
    let text = report.render();
    assert!(
        text.starts_with("2 of 40 keys did not read back:") && text.contains("key 23 lost"),
        "{text}"
    );
    stop(servers);
}

#[test]
fn cluster_grows_and_recovers_over_loopback() {
    let spec = test_spec();
    // One registry shared by every "process": the aggregate cluster view
    // an operator would assemble by scraping each node's STATS endpoint.
    let metrics = Metrics::new(Clock::wall());
    let (net, mut servers, mut client) = start_cluster(&spec, &metrics);

    // Load through several splits; every write is acked.
    for key in 1..=RECORDS {
        assert_eq!(
            client.insert(key, payload_for(key)),
            OpOutcome::Done,
            "insert {key} failed"
        );
    }
    for key in 1..=RECORDS {
        assert_eq!(
            client.lookup(key),
            OpOutcome::Value(Some(payload_for(key))),
            "lookup {key} after load"
        );
    }
    // Splits (and the table broadcasts announcing them) can still be in
    // flight when the last acked insert returns; poll until the growth
    // shows up in the client's table.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while (client.bucket_count() < 4 || client.group_count() < 2)
        && std::time::Instant::now() < deadline
    {
        client.host_mut().poll(Duration::from_millis(50));
    }
    let buckets = client.bucket_count();
    let groups = client.group_count();
    assert!(buckets >= 4, "file should have split: {buckets} buckets");
    assert!(groups >= 2, "file should span groups: {groups}");

    // Kill the host carrying bucket 0: drop its routes (sends to it now
    // vanish) and stop its thread.
    let victim = servers
        .iter()
        .position(|s| s.id == 2)
        .expect("node 2 hosted");
    net.unregister(&[2]);
    let _ = servers[victim].tx.send(HostEvent::Shutdown);
    servers.remove(victim).thread.join().expect("victim joins");

    // Every acked record must still be readable: lookups aimed at the dead
    // bucket stall, the client escalates, the coordinator probes and
    // rebuilds bucket 0 from the surviving group members onto a spare.
    for key in 1..=RECORDS {
        assert_eq!(
            client.lookup(key),
            OpOutcome::Value(Some(payload_for(key))),
            "lookup {key} through recovery"
        );
    }
    assert_eq!(
        client.bucket_count(),
        buckets,
        "recovery must not change the bucket count"
    );

    // Writes still work after recovery.
    assert_eq!(
        client.insert(RECORDS + 1, payload_for(RECORDS + 1)),
        OpOutcome::Done
    );
    assert_eq!(
        client.lookup(RECORDS + 1),
        OpOutcome::Value(Some(payload_for(RECORDS + 1)))
    );

    // The dead host's address is really gone from the table.
    let reg_nodes: HashMap<u32, ()> = client
        .host()
        .shared()
        .registry
        .borrow()
        .all_data_nodes()
        .iter()
        .map(|n| (n.0, ()))
        .collect();
    assert!(
        !reg_nodes.contains_key(&2),
        "bucket 0 should have moved off the killed node"
    );

    // The recovery is fully visible through the Metrics API: exactly
    // k = 1 node was killed, so exactly one shard was rebuilt.
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("recovery_shards_rebuilt", ""),
        1,
        "killing one node of a k = 1 group rebuilds exactly one shard"
    );
    assert!(snap.counter("recoveries_completed", "") >= 1);
    assert_eq!(snap.counter("recoveries_failed", ""), 0);
    assert!(snap.counter("recovery_bytes_moved", "") > 0);
    assert!(snap.counter("splits_completed", "") >= 1, "the file grew");

    // The coordinator's trace carries each structural fact with its
    // payload: every split names the bucket it creates, and the failure
    // names the shard it lost (bucket 0 is shard 0 of group 0).
    let events = metrics.events();
    let created: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::SplitStart { new_bucket, .. } => Some(new_bucket),
            _ => None,
        })
        .collect();
    assert!(
        (1..buckets as u64).all(|b| created.contains(&b)),
        "a split per bucket: {created:?}"
    );
    let lost = Event::FailureDetected {
        group: 0,
        shards: vec![0],
    };
    assert!(events.iter().any(|e| e.event == lost), "{events:?}");

    // The Prometheus rendering must round-trip and carry a rich counter
    // set (the netd STATS acceptance bar: ≥ 10 distinct series).
    let prom = metrics.render_prometheus();
    let parsed = parse_prometheus(&prom);
    let distinct: std::collections::HashSet<&str> = parsed
        .iter()
        .map(|(series, _)| series.split('{').next().unwrap_or(series))
        .collect();
    assert!(
        distinct.len() >= 10,
        "expected ≥ 10 distinct counter series, got {}: {:?}",
        distinct.len(),
        distinct
    );
    assert!(parsed
        .iter()
        .any(|(s, v)| s == "lhrs_recovery_shards_rebuilt_total" && *v == 1));

    // Leave the machine-readable artifacts behind for CI to scrape.
    let out_dir = std::env::var_os("LHRS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_out"));
    std::fs::create_dir_all(&out_dir).expect("create bench_out");
    let report = RecoveryReport::from_metrics("loopback_cluster", &metrics);
    assert_eq!(report.shards_rebuilt, 1);
    assert_eq!(report.clock, "wall-us");
    assert!(report.duration_us > 0, "wall-clock recovery takes time");
    std::fs::write(out_dir.join("recovery_report.json"), report.to_json())
        .expect("write recovery_report.json");
    std::fs::write(out_dir.join("loopback_stats.prom"), &prom).expect("write loopback_stats.prom");

    stop(servers);
}
