//! The net runtime over real sockets, in Tier-1: one host thread carrying
//! the coordinator and every server node, one [`NetClient`] on the test
//! thread, both over [`TcpTransport`] on localhost. Every frame crosses
//! the kernel: hello exchange, registry sync, inserts through splits,
//! lookups, and a shutdown that leaves no thread behind.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lhrs_core::api::{KvClient, OpOutcome};
use lhrs_core::Config;
use lhrs_net::client::NetClient;
use lhrs_net::cluster::{ClusterSpec, NodeSpec, Role};
use lhrs_net::host::NodeHost;
use lhrs_net::transport::{HostEvent, TcpTransport};
use lhrs_obs::{Clock, Metrics};

const RECORDS: u64 = 200;
/// Coordinator, client and twelve servers on fresh localhost ports (all
/// reserved at once, then released for the transports to bind).
fn spec() -> ClusterSpec {
    let listeners: Vec<TcpListener> = (0..14)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve a port"))
        .collect();
    let nodes = listeners
        .iter()
        .zip(0u32..)
        .map(|(l, id)| NodeSpec {
            id,
            addr: l.local_addr().expect("reserved").to_string(),
            role: match id {
                0 => Role::Coordinator,
                1 => Role::Client,
                _ => Role::Server,
            },
        })
        .collect();
    let cfg = Config {
        group_size: 2,
        initial_k: 1,
        bucket_capacity: 64,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        ..Config::default()
    };
    let spec = ClusterSpec { cfg, nodes };
    spec.validate().expect("a valid spec");
    spec
}

/// A host over TCP carrying `nodes` of `spec`.
fn host(spec: &ClusterSpec, nodes: &[u32]) -> NodeHost<TcpTransport> {
    let local: Vec<(u32, String)> = nodes
        .iter()
        .map(|&id| (id, spec.addr_of(id).to_string()))
        .collect();
    let peers: HashMap<u32, String> = spec.addr_map().into_iter().collect();
    let (tx, rx) = mpsc::channel();
    let transport = TcpTransport::start(&local, peers, tx.clone()).expect("bind");
    let shared = spec.build_shared();
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    for &id in nodes {
        host.add_node(id, spec.build_node(&shared, id));
    }
    host
}

fn payload(key: u64) -> Vec<u8> {
    format!("tcp-{key:06}").into_bytes()
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_file_grows_and_answers_over_tcp_then_shuts_down_clean() {
    let threads_before = threads();
    let spec = spec();
    let (stop_tx, stop_rx) = mpsc::channel();
    let servers = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            // A host builds its (non-`Send`) shared state on its own thread.
            let nodes: Vec<u32> = std::iter::once(0).chain(spec.server_ids()).collect();
            let mut host = host(&spec, &nodes);
            stop_tx.send(host.sender()).expect("test thread waits");
            host.run();
        })
    };
    let stop = stop_rx.recv().expect("the server host started");

    let mut client = NetClient::new(host(&spec, &[1]), 1, 1);
    client.host_mut().set_metrics(Metrics::new(Clock::wall()));
    assert!(
        client.sync_registry(0, Duration::from_secs(30)),
        "no allocation table from the coordinator"
    );
    for key in 1..=RECORDS {
        assert_eq!(
            client.insert(key, payload(key)),
            OpOutcome::Done,
            "insert {key}"
        );
    }
    for key in 1..=RECORDS {
        assert_eq!(
            client.lookup(key),
            OpOutcome::Value(Some(payload(key))),
            "lookup {key}"
        );
    }
    assert!(
        client.bucket_count() > 1,
        "200 records split a 64-slot bucket"
    );
    // The host's dispatch counts what it delivers, by kind.
    let replies = client.host().metrics().counter_kind("msgs_recv", "reply");
    assert!(replies >= 2 * RECORDS, "{replies} replies counted");

    stop.send(HostEvent::Shutdown).expect("the host is running");
    servers.join().expect("the server host exits on Shutdown");
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(30);
    while threads() != threads_before {
        assert!(
            Instant::now() < deadline,
            "{} transport threads outlived their hosts",
            threads().saturating_sub(threads_before)
        );
        std::thread::yield_now();
    }
}
