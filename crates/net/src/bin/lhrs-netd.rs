//! `lhrs-netd` — host one or more LH\*RS nodes of a cluster as a real
//! network server.
//!
//! ```text
//! lhrs-netd --config cluster.conf --nodes 0          # the coordinator
//! lhrs-netd --config cluster.conf --nodes 2          # one bucket
//! lhrs-netd --config cluster.conf --nodes 4,5,6      # several nodes
//! lhrs-netd --config cluster.conf --nodes 0 --trace-dump coord.jsonl
//! lhrs-netd --config cluster.conf --nodes 2 --data-dir /var/lhrs
//! ```
//!
//! The process binds one TCP listener per hosted node, builds the node
//! actors from the shared cluster spec, and runs the host loop until
//! killed.
//!
//! With `--data-dir <root>` every hosted data bucket is durable: commits
//! land in a per-bucket write-ahead log under `<root>/node-<id>/` (fsync
//! cadence set by the spec's `wal_fsync` knob). Parity columns write
//! nothing there: a lost one is re-encoded from its group. On boot, a node whose shard directory
//! holds a usable snapshot is rebuilt from it — snapshot decode plus log
//! replay — and announces itself to the coordinator, which tops it up with
//! the Δ-suffix it missed while down instead of a full Reed–Solomon
//! rebuild. An unreadable store just boots blank and the classic recovery
//! path takes over.
//!
//! Every `lhrs-netd` process records wall-clock metrics and a structured
//! trace ring. The live counters are served over the wire: send the
//! process a `StatsPull` frame (`lhrs-netcli ... stats <node>`) and it
//! answers with a Prometheus text snapshot on the same connection. With
//! `--trace-dump <path>` the trace ring is additionally flushed to `path`
//! as JSONL twice a second (write-to-temp + fsync + rename), so the last
//! pre-kill timeline survives even a SIGKILL during a failure drill; a
//! final dump is written on clean shutdown. On the coordinator's process
//! that trace is the record of every structural fact: splits, merges, `k`
//! raises, group upgrades, failures, recoveries and restarts.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::exit;
use std::sync::mpsc;
use std::time::Duration;

use lhrs_core::msg::Msg;
use lhrs_net::cluster::ClusterSpec;
use lhrs_net::durable::{blank_node, durable_boot, fresh_node, wal_factory, DurableBoot};
use lhrs_net::host::NodeHost;
use lhrs_net::transport::TcpTransport;
use lhrs_obs::{Clock, Metrics};

fn usage() -> ! {
    eprintln!(
        "usage: lhrs-netd --config <cluster.conf> --nodes <id[,id...]> \
         [--data-dir <root>] [--trace-dump <path>]"
    );
    exit(2);
}

/// One atomic, durable trace dump: write a sibling temp file, fsync it,
/// rename into place. A reader (or a kill at any instant) sees either the
/// previous complete dump or this one — never a torn file, and never an
/// empty rename target whose bytes were still in the page cache.
fn dump_trace(metrics: &Metrics, path: &str) {
    let tmp = format!("{path}.tmp");
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(metrics.trace_jsonl().as_bytes())?;
        f.sync_all()
    });
    if written.is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Periodically flush the trace ring to `path` as JSONL.
#[expect(
    clippy::disallowed_methods,
    reason = "a wall-clock period, not a wait for another thread"
)]
fn spawn_trace_dumper(metrics: Metrics, path: String) {
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(500));
        dump_trace(&metrics, &path);
    });
}

fn main() {
    let mut config: Option<String> = None;
    let mut nodes: Vec<u32> = Vec::new();
    let mut trace_dump: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => config = args.next(),
            "--trace-dump" => trace_dump = args.next(),
            "--data-dir" => data_dir = args.next(),
            "--nodes" => {
                let list = args.next().unwrap_or_else(|| usage());
                for part in list.split(',') {
                    match part.trim().parse() {
                        Ok(id) => nodes.push(id),
                        Err(_) => usage(),
                    }
                }
            }
            _ => usage(),
        }
    }
    let Some(config) = config else { usage() };
    if nodes.is_empty() {
        usage();
    }

    let text = match std::fs::read_to_string(&config) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lhrs-netd: cannot read {config}: {e}");
            exit(1);
        }
    };
    let spec = match ClusterSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lhrs-netd: bad cluster spec: {e}");
            exit(1);
        }
    };
    for &id in &nodes {
        if id as usize >= spec.nodes.len() {
            eprintln!("lhrs-netd: node {id} not in the spec");
            exit(1);
        }
    }

    let metrics = Metrics::new(Clock::wall());
    if let Some(path) = &trace_dump {
        spawn_trace_dumper(metrics.clone(), path.clone());
    }

    let local: Vec<(u32, String)> = nodes
        .iter()
        .map(|&id| (id, spec.addr_of(id).to_string()))
        .collect();
    let peers: HashMap<u32, String> = spec.addr_map().into_iter().collect();
    let (tx, rx) = mpsc::channel();
    let transport =
        match TcpTransport::start_with_metrics(&local, peers, tx.clone(), metrics.clone()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("lhrs-netd: cannot bind: {e}");
                exit(1);
            }
        };

    let shared = spec.build_shared();
    let data_root = data_dir.map(PathBuf::from);
    if let Some(root) = &data_root {
        shared.set_store_factory(wal_factory(root.clone(), spec.cfg.wal_fsync));
    }

    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    host.set_metrics(metrics.clone());
    let mut recovered: Vec<u32> = Vec::new();
    for &id in &nodes {
        let node = match &data_root {
            Some(root) => match durable_boot(&shared, root, id, spec.cfg.wal_fsync, &metrics) {
                DurableBoot::Recovered(node) => {
                    eprintln!("lhrs-netd: node {id}: resurrected from its WAL");
                    recovered.push(id);
                    node
                }
                DurableBoot::Blank => {
                    eprintln!(
                        "lhrs-netd: node {id}: durable root holds no usable store; \
                         booting blank (coordinator-driven rebuild)"
                    );
                    blank_node(&shared)
                }
                DurableBoot::Fresh => fresh_node(&spec, &shared, root, id),
            },
            None => spec.build_node(&shared, id),
        };
        host.add_node(id, node);
    }
    // A resurrected bucket reports in immediately: the boot `SelfReport`
    // carries its replayed Δ-position and the coordinator answers with the
    // missed suffix (or demotes it if the suffix is uncoverable).
    for &id in &recovered {
        host.inject(id, Msg::SelfReport);
    }
    eprintln!(
        "lhrs-netd: hosting nodes {nodes:?} ({})",
        local
            .iter()
            .map(|(_, a)| a.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    host.run();
    // Clean shutdown: one final durable dump so the trace file reflects the
    // whole run, not just the last 500 ms tick.
    if let Some(path) = &trace_dump {
        dump_trace(host.metrics(), path);
    }
}
