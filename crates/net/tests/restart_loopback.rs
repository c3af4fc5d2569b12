//! The three-way kill -9 restart matrix over the loopback network — the
//! same drill `crates/core/tests/restart_drills.rs` runs in the simulator,
//! here with every "process" a thread, every message through the real wire
//! codec, and every durable bucket a real [`lhrs_wal::FileWal`] on disk.
//!
//! * **memory-loss** — the victim host dies and nothing survives: classic
//!   full Reed–Solomon rebuild onto a spare.
//! * **disk-survives** — the victim's WAL directory outlives the process
//!   (with its unsynced tail torn off): the respawned host replays the
//!   snapshot+log, reports in, and the coordinator tops it up with the
//!   missed Δ-suffix — moving strictly fewer bytes than the full rebuild.
//! * **disk-lost** — the directory is destroyed: the respawned host boots
//!   blank and the coordinator falls back to the full rebuild
//!   (`recovery_shards_rebuilt == k`).
//!
//! Zero acked-data loss in every arm, asserted through the
//! `Metrics`/`RestartReport` API; the three reports land in
//! `bench_out/restart_report.json` for CI to upload.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use lhrs_core::api::{KvClient, OpOutcome};
use lhrs_core::msg::Msg;
use lhrs_core::node::Node;
use lhrs_core::{Config, FsyncPolicy};
use lhrs_net::client::NetClient;
use lhrs_net::cluster::{ClusterSpec, NodeSpec, Role};
use lhrs_net::durable::{
    blank_node, durable_boot, fresh_node, node_root, wal_factory, DurableBoot,
};
use lhrs_net::host::NodeHost;
use lhrs_net::transport::{HostEvent, LoopbackNet, LoopbackTransport};
use lhrs_obs::{Clock, Metrics, RestartReport};

const RECORDS: u64 = 80;
const VICTIM: u32 = 2; // the node hosting bucket 0 in the initial layout

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
        // Only structural snapshots (boot seed + splits): the drill
        // controls the snapshot/log split itself.
        wal_snapshot_every: 0,
        // The files live for milliseconds in a temp dir; skip the fsyncs.
        wal_fsync: FsyncPolicy::Never,
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

struct ServerHost {
    id: u32,
    tx: Sender<HostEvent>,
    thread: JoinHandle<()>,
}

/// Spawn one server "process". With a durable `root` it installs the WAL
/// factory and — exactly like `lhrs-netd --data-dir` — first tries to
/// resurrect the node from a surviving store, announcing the restart to
/// the coordinator on success.
fn spawn_server(
    spec: &ClusterSpec,
    net: &LoopbackNet,
    id: u32,
    metrics: &Metrics,
    root: Option<PathBuf>,
) -> ServerHost {
    let (tx, rx) = mpsc::channel();
    net.register(&[id], tx.clone());
    let spec = spec.clone();
    let net = net.clone();
    let thread_tx = tx.clone();
    let metrics = metrics.clone();
    let thread = std::thread::spawn(move || {
        let shared = spec.build_shared();
        let fsync = spec.cfg.wal_fsync;
        if let Some(root) = &root {
            shared.set_store_factory(wal_factory(root.clone(), fsync));
        }
        let transport = LoopbackTransport::new(net, &[id]);
        let mut host = NodeHost::new(shared.clone(), transport, thread_tx, rx);
        host.set_metrics(metrics.clone());
        match &root {
            Some(root) => match durable_boot(&shared, root, id, fsync, &metrics) {
                DurableBoot::Recovered(node) => {
                    host.add_node(id, node);
                    host.inject(id, Msg::SelfReport);
                }
                DurableBoot::Blank => host.add_node(id, blank_node(&shared)),
                DurableBoot::Fresh => host.add_node(id, fresh_node(&spec, &shared, root, id)),
            },
            None => host.add_node(id, spec.build_node(&shared, id)),
        }
        host.run();
    });
    ServerHost { id, tx, thread }
}

/// The client, node 1, run on the test thread once it holds the
/// allocation table.
fn connect_client(
    spec: &ClusterSpec,
    net: &LoopbackNet,
    metrics: &Metrics,
) -> NetClient<LoopbackTransport> {
    let (tx, rx) = mpsc::channel();
    net.register(&[1], tx.clone());
    let shared = spec.build_shared();
    let transport = LoopbackTransport::new(net.clone(), &[1]);
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    host.set_metrics(metrics.clone());
    host.add_node(1, spec.build_node(&shared, 1));
    let mut client = NetClient::new(host, 1, 1);
    assert!(
        client.sync_registry(0, Duration::from_secs(30)),
        "client never received the allocation table"
    );
    client
}

fn payload_for(key: u64) -> Vec<u8> {
    format!("restart-{key:06}").into_bytes()
}

/// The WAL segment files of one shard directory, sorted by sequence.
fn segment_files(shard_dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(shard_dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .map(|f| f.to_string_lossy().starts_with("wal-"))
                        .unwrap_or(false)
                })
                .collect()
        })
        .unwrap_or_default();
    segs.sort();
    segs
}

/// Where a segment's ops start: past the magic and, in an `LHW2` segment,
/// the header frame naming the segment it follows. Every frame this
/// workload writes is well under 128 B, so each is a 1-byte length
/// varint, a 4-byte CRC, and the payload.
fn first_op_at(buf: &[u8]) -> usize {
    match buf.get(4) {
        Some(&header_len) if buf.starts_with(b"LHW2") => 4 + 5 + header_len as usize,
        _ => 4,
    }
}

/// Logged op frames past the last snapshot, once the WAL's disk thread has
/// landed every snapshot (and unlinked the segments it covers).
fn count_frames(shard_dir: &Path) -> u64 {
    lhrs_wal::wait_disk_idle();
    let mut frames = 0u64;
    for seg in segment_files(shard_dir) {
        let buf = std::fs::read(&seg).unwrap_or_default();
        let mut pos = first_op_at(&buf);
        while pos < buf.len() {
            pos += 5 + buf[pos] as usize;
            frames += 1;
        }
    }
    frames
}

/// Poll until the cluster's message flow goes still (no new deliveries
/// across any host for a few consecutive ticks), bounded by a deadline.
fn quiesce(client: &mut NetClient<LoopbackTransport>, metrics: &Metrics) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut last_recv = metrics.counter_total("msgs_recv");
    let mut still = 0u32;
    while still < 4 && std::time::Instant::now() < deadline {
        // poll() blocks up to its timeout when the client mailbox is
        // idle, so this loop ticks at ~50 ms without explicit sleeps.
        client.host_mut().poll(Duration::from_millis(50));
        let now_recv = metrics.counter_total("msgs_recv");
        still = if now_recv == last_recv { still + 1 } else { 0 };
        last_recv = now_recv;
    }
}

/// Every `parity-*` store directory under any node root of `root`. Parity
/// columns keep no store, so a durable cluster must never create one.
fn parity_store_dirs(root: &Path) -> Vec<PathBuf> {
    let subdirs = |dir: &Path| -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .map(|entries| entries.flatten().map(|e| e.path()).collect())
            .unwrap_or_default()
    };
    subdirs(root)
        .iter()
        .flat_map(|node_root| subdirs(node_root))
        .filter(|p| {
            p.file_name()
                .is_some_and(|f| f.to_string_lossy().starts_with("parity-"))
        })
        .collect()
}

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lhrs-restart-{tag}-{}", std::process::id()))
}

/// One arm of the matrix. Loads the cluster through its splits, kills the
/// victim, lets `mutate_disk` damage what "survived", optionally respawns
/// the victim from disk, verifies zero acked-data loss, and returns the
/// arm's [`RestartReport`].
fn run_arm(
    name: &str,
    root: Option<PathBuf>,
    respawn: bool,
    mutate_disk: impl FnOnce(&Path),
) -> RestartReport {
    let spec = test_spec();
    let net = LoopbackNet::new();
    let metrics = Metrics::new(Clock::wall());

    let mut servers: Vec<ServerHost> = std::iter::once(0)
        .chain(spec.server_ids())
        .map(|id| spawn_server(&spec, &net, id, &metrics, root.clone()))
        .collect();

    let mut client = connect_client(&spec, &net, &metrics);

    let mut oracle: Vec<u64> = Vec::new();
    for key in 1..=RECORDS {
        assert_eq!(
            client.insert(key, payload_for(key)),
            OpOutcome::Done,
            "insert {key} failed"
        );
        oracle.push(key);
    }
    // Splits trigger on insert-time overflow reports, so the settled
    // bucket count after a fixed load legitimately depends on async
    // timing: a split finishing mid-load redistributes records and the
    // file can come to rest one split short. Keep feeding records until
    // the growth shows up, re-pulling the table (the client's copy only
    // refreshes on broadcasts and IAMs) between waves.
    let mut next_key = RECORDS;
    while client.bucket_count() < 4 || client.group_count() < 2 {
        assert!(
            next_key < RECORDS + 400,
            "[{name}] file should have split: {} buckets after {next_key} inserts",
            client.bucket_count()
        );
        next_key += 1;
        assert_eq!(
            client.insert(next_key, payload_for(next_key)),
            OpOutcome::Done,
            "growth insert {next_key} failed"
        );
        oracle.push(next_key);
        client.host_mut().poll(Duration::from_millis(20));
        if next_key.is_multiple_of(8) {
            client.host_mut().request_registry(1, 0);
            client.host_mut().poll(Duration::from_millis(20));
        }
    }

    // Quiesce before the kill: the growth loop exits the instant the
    // table update lands, while split transfers and parity Δs from the
    // load can still be in flight — and a kill inside that window tests
    // mid-split crash consistency (the simulator chaos drills' job), not
    // the restart paths this matrix targets. The shared metrics see every
    // host's deliveries, so wait until the message flow goes still. This
    // runs BEFORE the durable trickle below: a late split would snapshot
    // the victim's store and rotate away the logged ops the tear needs.
    quiesce(&mut client, &metrics);

    // Durable arms: keep writing until the victim's bucket-0 store holds
    // at least two logged ops past its last (split-time) snapshot, so the
    // tear below can keep one replayable op and still leave the restart
    // genuinely behind the parity group. These inserts are fully acked
    // (write + parity) before the kill, so tearing them off the log
    // leaves the parity group ahead — exactly the Δ-suffix scenario.
    if let Some(root) = &root {
        let shard = node_root(root, VICTIM).join("data-0");
        let floor = next_key;
        while count_frames(&shard) < 2 {
            next_key += 1;
            assert!(
                next_key < floor + 200,
                "bucket 0 never logged past a snapshot"
            );
            assert_eq!(
                client.insert(next_key, payload_for(next_key)),
                OpOutcome::Done,
                "extra insert {next_key} failed"
            );
            oracle.push(next_key);
        }
        quiesce(&mut client, &metrics);
    }

    // Kill -9 the victim: its routes vanish mid-flight, its thread stops.
    let pos = servers
        .iter()
        .position(|s| s.id == VICTIM)
        .expect("victim hosted");
    net.unregister(&[VICTIM]);
    let _ = servers[pos].tx.send(HostEvent::Shutdown);
    servers.remove(pos).thread.join().expect("victim joins");

    if let Some(root) = &root {
        mutate_disk(&node_root(root, VICTIM));
    }
    if respawn {
        servers.push(spawn_server(&spec, &net, VICTIM, &metrics, root.clone()));
    }

    // Every acked record must read back through whatever recovery path
    // this arm forces — Δ-suffix catch-up or full RS rebuild.
    for &key in &oracle {
        assert_eq!(
            client.lookup(key),
            OpOutcome::Value(Some(payload_for(key))),
            "[{name}] lookup {key} through recovery"
        );
    }

    // The structural recovery is asynchronous to the reads: degraded
    // lookups can satisfy every key while the coordinator's rebuild (or
    // the Δ-suffix handshake) is still in flight. Wait for it to land
    // before sampling the report.
    let rec_deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let r = RestartReport::from_metrics(name, &metrics);
        if r.restart_recoveries + r.restart_fallbacks + r.recovery_shards_rebuilt > 0
            || std::time::Instant::now() >= rec_deadline
        {
            break;
        }
        client.host_mut().poll(Duration::from_millis(50));
    }

    let report = RestartReport::from_metrics(name, &metrics);
    for s in &servers {
        let _ = s.tx.send(HostEvent::Shutdown);
    }
    for s in servers {
        s.thread.join().expect("server joins");
    }
    if let Some(root) = &root {
        let parity_dirs = parity_store_dirs(root);
        let _ = std::fs::remove_dir_all(root);
        assert!(
            parity_dirs.is_empty(),
            "[{name}] parity columns keep no store: {parity_dirs:?}"
        );
    }
    report
}

/// A parity column keeps no store, yet a restart of its node must still
/// boot blank: rebuilding the spec's initial parity bucket would serve an
/// empty column as if it were current.
#[test]
fn a_restarted_parity_column_boots_blank() {
    const PARITY: u32 = 3; // the one parity column in the initial layout
    let spec = test_spec();
    let root = temp_root("parity-boot");
    let _ = std::fs::remove_dir_all(&root);
    let shared = spec.build_shared();
    shared.set_store_factory(wal_factory(root.clone(), FsyncPolicy::Never));
    let metrics = Metrics::new(Clock::wall());
    let boot = |shared| durable_boot(shared, &root, PARITY, FsyncPolicy::Never, &metrics);

    assert!(matches!(boot(&shared), DurableBoot::Fresh));
    let node = fresh_node(&spec, &shared, &root, PARITY);
    assert!(
        matches!(node, Node::Parity(_)),
        "node {PARITY} is a parity column"
    );
    assert!(parity_store_dirs(&root).is_empty(), "parity keeps no store");

    // The process dies and is relaunched with the same command.
    drop(node);
    assert!(matches!(boot(&spec.build_shared()), DurableBoot::Blank));
    let _ = std::fs::remove_dir_all(&root);
}

/// Writes per data column in [`batch_fsync_keeps_the_history_at_the_flush_lag`].
const WRITES_PER_COLUMN: u64 = 300;

/// The Δs a column's history may still hold once the cluster is quiet:
/// those its store had not yet reported durable when it sent its last Δ.
const RETAINED_PER_COLUMN: u64 = 64;

/// Cut the last logged op off the newest segment of `shard_dir` that
/// holds any: what an OS crash leaves of an append no fsync covered.
fn tear_last_op(shard_dir: &Path) {
    let seg_no = |p: &PathBuf| -> u64 {
        let name = p.file_name().map(|f| f.to_string_lossy().into_owned());
        let digits = name.as_deref().and_then(|n| n.strip_prefix("wal-"));
        let digits = digits.and_then(|n| n.strip_suffix(".log"));
        digits.and_then(|n| n.parse().ok()).unwrap_or(0)
    };
    let (seg, buf) = segment_files(shard_dir)
        .into_iter()
        .map(|seg| {
            let buf = std::fs::read(&seg).expect("read segment");
            (seg, buf)
        })
        .filter(|(_, buf)| buf.len() > first_op_at(buf))
        .max_by_key(|(seg, _)| seg_no(seg))
        .expect("the bucket logged an op past its snapshot");
    let (mut pos, mut last) = (first_op_at(&buf), 0);
    while pos < buf.len() {
        last = pos;
        pos += 5 + buf[pos] as usize;
    }
    std::fs::write(&seg, &buf[..last]).expect("tear the last op");
}

/// Under `Batch` a parity bucket keeps only the Δs its column's store has
/// not yet made durable. After a few hundred writes per column over real
/// `FileWal`s each column retains a handful — at most
/// [`RETAINED_PER_COLUMN`], read from the `deltas_remembered` and
/// `deltas_forgotten` counters — where keeping every Δ written, up to
/// `DELTA_HISTORY_CAP` per column, would retain them all. A bucket killed
/// afterwards, its last unsynced op lost, still catches up by suffix.
#[test]
fn batch_fsync_keeps_the_history_at_the_flush_lag() {
    let mut spec = test_spec();
    spec.cfg.wal_fsync = FsyncPolicy::Batch;
    // No Δ-window re-send in this drill (loopback loses nothing): each
    // column's last Δ carries the last watermark its parity bucket sees.
    spec.cfg.delta_retransmit_us = 60_000_000;
    let root = temp_root("watermark");
    let _ = std::fs::remove_dir_all(&root);
    let net = LoopbackNet::new();
    let metrics = Metrics::new(Clock::wall());
    let mut servers: Vec<ServerHost> = std::iter::once(0)
        .chain(spec.server_ids())
        .map(|id| spawn_server(&spec, &net, id, &metrics, Some(root.clone())))
        .collect();

    let mut client = connect_client(&spec, &net, &metrics);

    // Grow the file to two groups, then let the splits settle.
    let mut keys = 0u64;
    while client.bucket_count() < 4 || client.group_count() < 2 {
        keys += 1;
        assert!(keys < 500, "file should have split");
        assert_eq!(client.insert(keys, payload_for(keys)), OpOutcome::Done);
        if keys.is_multiple_of(8) {
            client.host_mut().request_registry(1, 0);
            client.host_mut().poll(Duration::from_millis(20));
        }
    }
    quiesce(&mut client, &metrics);

    // A few hundred updates per column, round-robin over the keys.
    let columns = client.bucket_count() as u64;
    let writes = WRITES_PER_COLUMN * columns;
    let value = |key: u64, n: u64| format!("w{n:05}-{key:04}").into_bytes();
    for n in 0..writes {
        let key = n % keys + 1;
        assert_eq!(client.update(key, value(key, n)), OpOutcome::Done);
    }
    quiesce(&mut client, &metrics);
    let remembered = metrics.counter("deltas_remembered");
    let retained = remembered.saturating_sub(metrics.counter("deltas_forgotten"));
    assert!(
        remembered >= writes,
        "every Δ of a durable column passes through the history: {remembered} < {writes}"
    );
    assert!(
        retained <= RETAINED_PER_COLUMN * columns,
        "{retained} Δs retained over {columns} columns after {writes} writes"
    );

    // Kill the host of bucket 0 and lose its last op: no Δ reported it
    // durable, so the restart resumes within what the parity kept.
    let pos = servers.iter().position(|s| s.id == VICTIM).unwrap();
    net.unregister(&[VICTIM]);
    let _ = servers[pos].tx.send(HostEvent::Shutdown);
    servers.remove(pos).thread.join().expect("victim joins");
    tear_last_op(&node_root(&root, VICTIM).join("data-0"));
    servers.push(spawn_server(
        &spec,
        &net,
        VICTIM,
        &metrics,
        Some(root.clone()),
    ));

    let last = |key: u64| (0..writes).rev().find(|n| n % keys + 1 == key);
    for key in 1..=keys {
        let want = last(key).map_or_else(|| payload_for(key), |n| value(key, n));
        assert_eq!(
            client.lookup(key),
            OpOutcome::Value(Some(want)),
            "key {key}"
        );
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut report = RestartReport::from_metrics("net-watermark", &metrics);
    while report.restart_recoveries + report.restart_fallbacks == 0
        && std::time::Instant::now() < deadline
    {
        client.host_mut().poll(Duration::from_millis(50));
        report = RestartReport::from_metrics("net-watermark", &metrics);
    }
    for s in &servers {
        let _ = s.tx.send(HostEvent::Shutdown);
    }
    for s in servers {
        s.thread.join().expect("server joins");
    }
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(report.restart_recoveries, 1, "{report:?}");
    assert_eq!(report.restart_fallbacks, 0, "{report:?}");
    assert_eq!(
        report.suffix_entries, 1,
        "the torn op comes back: {report:?}"
    );
}

#[test]
fn three_way_restart_matrix_over_loopback() {
    // Arm 1 — memory-loss: no durable store anywhere; the classic rebuild.
    let full = run_arm("net-memory-loss", None, false, |_| {});
    assert_eq!(full.restart_recoveries, 0, "{full:?}");
    assert_eq!(full.recovery_shards_rebuilt, 1, "{full:?}");
    assert!(full.recovery_bytes_moved > 0, "{full:?}");
    assert_eq!(full.wal_appends, 0, "no store, no WAL traffic");

    // Arm 2 — disk-survives: tear off the unsynced log tail, respawn, and
    // catch up via the Δ-suffix.
    let suffix = run_arm(
        "net-disk-survives",
        Some(temp_root("survives")),
        true,
        |victim_root| {
            // The "page cache" died with the process: tear the log mid-
            // frame after the first op, dropping everything behind it
            // (later segments become unreachable and are unlinked by the
            // reopen's repair).
            let shard = victim_root.join("data-0");
            let segs = segment_files(&shard);
            let target = segs
                .iter()
                .find(|seg| {
                    std::fs::read(seg)
                        .map(|b| b.len() > first_op_at(&b))
                        .unwrap_or(false)
                })
                .expect("victim logged at least one op past its snapshot");
            let buf = std::fs::read(target).expect("read victim segment");
            let first_frame_end = first_op_at(&buf) + 5 + buf[first_op_at(&buf)] as usize;
            let keep = (first_frame_end + 2).min(buf.len());
            std::fs::write(target, &buf[..keep]).expect("tear victim log");
            for seg in segs.iter().filter(|s| s != &target) {
                let _ = std::fs::remove_file(seg);
            }
        },
    );
    assert_eq!(suffix.restart_recoveries, 1, "{suffix:?}");
    assert_eq!(suffix.restart_fallbacks, 0, "{suffix:?}");
    assert_eq!(
        suffix.recovery_shards_rebuilt, 0,
        "no RS rebuild on the Δ-suffix path: {suffix:?}"
    );
    assert!(suffix.suffix_entries > 0, "{suffix:?}");
    assert!(suffix.recovery_bytes_moved > 0, "{suffix:?}");
    assert!(suffix.wal_appends > 0, "{suffix:?}");
    assert!(suffix.wal_snapshots > 0, "{suffix:?}");
    assert!(suffix.replay_ops > 0, "boot must replay the local log");
    assert!(
        suffix.recovery_bytes_moved < full.recovery_bytes_moved,
        "Δ-suffix catch-up ({} B) must move strictly fewer bytes than the \
         full RS rebuild ({} B)",
        suffix.recovery_bytes_moved,
        full.recovery_bytes_moved
    );

    // Arm 3 — disk-lost: the shard directories are gone (a fresh empty
    // disk mounted at the old root); the respawned host boots blank and
    // the coordinator rebuilds all k shards.
    let lost = run_arm(
        "net-disk-lost",
        Some(temp_root("lost")),
        true,
        |victim_root| {
            let _ = std::fs::remove_dir_all(victim_root);
            let _ = std::fs::create_dir_all(victim_root);
        },
    );
    assert_eq!(lost.restart_recoveries, 0, "{lost:?}");
    assert_eq!(
        lost.recovery_shards_rebuilt, 1,
        "k = 1: the one lost shard is fully rebuilt: {lost:?}"
    );
    assert!(lost.recovery_bytes_moved > 0, "{lost:?}");

    // Leave the machine-readable matrix behind for CI.
    let out_dir = std::env::var_os("LHRS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_out"));
    std::fs::create_dir_all(&out_dir).expect("create bench_out");
    let json = format!(
        "[\n{},\n{},\n{}\n]\n",
        full.to_json(),
        suffix.to_json(),
        lost.to_json()
    );
    std::fs::write(out_dir.join("restart_report.json"), json).expect("write restart_report.json");
}
