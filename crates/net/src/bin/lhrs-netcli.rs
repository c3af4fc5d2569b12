//! `lhrs-netcli` — run client operations against a live LH\*RS cluster.
//!
//! ```text
//! lhrs-netcli --config cluster.conf --node 1 insert 42 hello
//! lhrs-netcli --config cluster.conf --node 1 lookup 42
//! lhrs-netcli --config cluster.conf --node 1 delete 42
//! lhrs-netcli --config cluster.conf --node 1 load 100      # keys 1..=100
//! lhrs-netcli --config cluster.conf --node 1 load 100 200  # keys 200..=299
//! lhrs-netcli --config cluster.conf --node 1 verify 100    # re-read them, list every miss
//! lhrs-netcli --config cluster.conf --node 1 status
//! lhrs-netcli --config cluster.conf --node 1 stats 0       # STATS from node 0
//! ```
//!
//! The process hosts the spec's client node (binding its listener so
//! allocation-table broadcasts reach it), pulls the table from the
//! coordinator, runs the subcommand, and exits — nonzero on any failure.
//! Operation ids are derived from the wall clock so each invocation's ids
//! start above every earlier one's against the same cluster: a bucket
//! refuses a write below the floor an earlier run's requests carried.

use std::collections::HashMap;
use std::process::exit;
use std::sync::mpsc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use lhrs_core::api::{KvClient, OpOutcome};
use lhrs_core::msg::ClientOp;
use lhrs_net::client::NetClient;
use lhrs_net::cluster::{ClusterSpec, Role};
use lhrs_net::demo::{self, payload_for};
use lhrs_net::frame::{read_frame, write_frame, FrameType};
use lhrs_net::host::NodeHost;
use lhrs_net::transport::TcpTransport;
use lhrs_sim::NodeId;

/// Deadline for the raw `stats` exchange: reads, writes and the wait for
/// the `StatsReply`. Key operations need none: the client actor concludes
/// each one itself.
const STATS_TIMEOUT: Duration = Duration::from_secs(30);

/// Deadline for the raw `stats` TCP connect: an unreachable node must fail
/// the command quickly, not leave it blocked in the kernel's connect queue.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

fn usage() -> ! {
    eprintln!(
        "usage: lhrs-netcli --config <cluster.conf> --node <id> [--window <n>] \
         (insert <key> <value> | lookup <key> | delete <key> | \
         load <n> [start] | verify <n> [start] | status | stats [node])"
    );
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("lhrs-netcli: {msg}");
    exit(1);
}

fn main() {
    let mut config: Option<String> = None;
    let mut node: Option<u32> = None;
    let mut window: Option<usize> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => config = args.next(),
            "--node" => node = args.next().and_then(|s| s.parse().ok()),
            "--window" => window = args.next().and_then(|s| s.parse().ok()),
            _ => {
                rest.push(arg);
                rest.extend(args.by_ref());
            }
        }
    }
    let Some(config) = config else { usage() };
    let Some(node) = node else { usage() };
    if rest.is_empty() {
        usage();
    }

    let text = std::fs::read_to_string(&config)
        .unwrap_or_else(|e| fail(&format!("cannot read {config}: {e}")));
    let spec =
        ClusterSpec::parse(&text).unwrap_or_else(|e| fail(&format!("bad cluster spec: {e}")));
    match spec.nodes.get(node as usize) {
        Some(n) if n.role == Role::Client => {}
        Some(_) => fail(&format!("node {node} is not a client in the spec")),
        None => fail(&format!("node {node} not in the spec")),
    }

    // `stats` is a raw request/response frame exchange — no hosted client
    // node, no registry sync, works even while the cluster is mid-recovery.
    if rest[0] == "stats" {
        let target: u32 = match rest.get(1) {
            Some(s) => s.parse().unwrap_or_else(|_| usage()),
            None => 0,
        };
        if target as usize >= spec.nodes.len() {
            fail(&format!("node {target} not in the spec"));
        }
        let addr = spec.addr_of(target);
        // A bounded connect: `TcpStream::connect` alone can block for the
        // kernel's SYN-retry budget (minutes) when the node is unreachable.
        let resolved: Vec<std::net::SocketAddr> = std::net::ToSocketAddrs::to_socket_addrs(addr)
            .unwrap_or_else(|e| fail(&format!("cannot resolve {addr}: {e}")))
            .collect();
        let mut stream = resolved
            .iter()
            .find_map(|sa| std::net::TcpStream::connect_timeout(sa, CONNECT_TIMEOUT).ok())
            .unwrap_or_else(|| {
                fail(&format!(
                    "cannot connect to {addr} within {}s (node down?)",
                    CONNECT_TIMEOUT.as_secs()
                ))
            });
        let _ = stream.set_read_timeout(Some(STATS_TIMEOUT));
        let _ = stream.set_write_timeout(Some(STATS_TIMEOUT));
        write_frame(
            &mut stream,
            FrameType::StatsPull,
            NodeId(node),
            NodeId(target),
            &[],
        )
        .and_then(|()| std::io::Write::flush(&mut stream))
        .unwrap_or_else(|e| fail(&format!("cannot send StatsPull: {e}")));
        // Overall deadline on the reply wait: the per-read timeout alone
        // would never fire against a peer that keeps streaming other
        // frames (registry heartbeats, replies to older request ids) —
        // each read succeeds, the loop spins, and the command wedges.
        let reply_deadline = std::time::Instant::now() + STATS_TIMEOUT;
        loop {
            if std::time::Instant::now() >= reply_deadline {
                fail("no StatsReply within the deadline (stale frames skipped)");
            }
            match read_frame(&mut stream) {
                Ok(Some(f)) if f.ftype == FrameType::StatsReply => {
                    print!("{}", String::from_utf8_lossy(&f.payload));
                    return;
                }
                // A registry broadcast (or a reply meant for an older
                // request id on a reused connection) may race ahead of the
                // reply; drop it and keep waiting, bounded by the deadline.
                Ok(Some(_)) => continue,
                Ok(None) => fail("peer closed before replying to StatsPull"),
                Err(e) => fail(&format!("bad frame while waiting for stats: {e}")),
            }
        }
    }

    let local = vec![(node, spec.addr_of(node).to_string())];
    let peers: HashMap<u32, String> = spec.addr_map().into_iter().collect();
    let (tx, rx) = mpsc::channel();
    let transport = TcpTransport::start(&local, peers, tx.clone())
        .unwrap_or_else(|e| fail(&format!("cannot bind {}: {e}", spec.addr_of(node))));

    let shared = spec.build_shared();
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    host.add_node(node, spec.build_node(&shared, node));

    // Wall-clock-derived op-id base: distinct across invocations sharing
    // the client node id, so the buckets' floors never refuse a later run.
    let base = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        .max(1);
    let mut client = NetClient::new(host, node, base);
    // `--window` overrides the spec's client_window for this invocation:
    // load/verify pipeline that many ops in flight.
    if let Some(w) = window {
        client.set_window(w);
    }

    if !client.sync_registry(0, Duration::from_secs(20)) {
        fail("no allocation table from the coordinator (is node 0 up?)");
    }

    let arg_n = |i: usize| -> u64 {
        rest.get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage())
    };
    match rest[0].as_str() {
        "insert" => {
            let key = arg_n(1);
            let value = rest
                .get(2)
                .map(|s| s.as_bytes().to_vec())
                .unwrap_or_default();
            match client.insert(key, value) {
                OpOutcome::Done => println!("inserted {key}"),
                OpOutcome::DuplicateKey => fail(&format!("duplicate key {key}")),
                other => fail(&format!("insert {key} failed: {other:?}")),
            }
        }
        "lookup" => {
            let key = arg_n(1);
            match client.lookup(key) {
                OpOutcome::Value(Some(v)) => {
                    println!("found {key} = {}", String::from_utf8_lossy(&v))
                }
                OpOutcome::Value(None) => fail(&format!("key {key} not found")),
                other => fail(&format!("lookup {key} failed: {other:?}")),
            }
        }
        "delete" => {
            let key = arg_n(1);
            match client.delete(key) {
                OpOutcome::Done => println!("deleted {key}"),
                OpOutcome::NotFound => fail(&format!("key {key} not found")),
                other => fail(&format!("delete {key} failed: {other:?}")),
            }
        }
        "load" => {
            // Pipelined bulk load: the whole batch rides through the
            // client's in-flight window instead of one RTT per key.
            let n = arg_n(1);
            let start = if rest.len() > 2 { arg_n(2) } else { 1 };
            let keys: Vec<u64> = (start..start + n).collect();
            let ops: Vec<ClientOp> = keys
                .iter()
                .map(|&key| ClientOp::Insert {
                    key,
                    payload: payload_for(key),
                })
                .collect();
            let window = client.window();
            for (&key, (outcome, _)) in keys.iter().zip(client.run_window(ops, window)) {
                match outcome {
                    OpOutcome::Done => {}
                    OpOutcome::DuplicateKey => fail(&format!("duplicate key {key} during load")),
                    other => fail(&format!("insert {key} failed: {other:?}")),
                }
            }
            println!("loaded {n} records (window {window})");
        }
        "verify" => {
            let n = arg_n(1);
            let start = if rest.len() > 2 { arg_n(2) } else { 1 };
            let report = demo::verify(&mut client, start..start + n);
            if !report.misses.is_empty() {
                fail(&report.render());
            }
            println!("verified {n} records (window {})", client.window());
        }
        "status" => {
            let version = client
                .host()
                .registry_version()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into());
            let placement: Vec<String> = client
                .host()
                .shared()
                .registry
                .borrow()
                .all_data_nodes()
                .iter()
                .map(|n| n.0.to_string())
                .collect();
            println!(
                "buckets={} groups={} table_version={version} data_nodes={}",
                client.bucket_count(),
                client.group_count(),
                placement.join(","),
            );
        }
        other => fail(&format!("unknown subcommand {other:?}")),
    }
}
