//! The multi-process demo: a real LH\*RS deployment on localhost TCP —
//! coordinator, data, and parity buckets as separate OS processes — that
//! grows through splits, loses a bucket process to `SIGKILL`, and recovers
//! it over the network with zero acked-data loss.
//!
//! Used by the `multi_process` integration test (driving the compiled
//! `lhrs-netd` / `lhrs-netcli` binaries) and by `examples/net_cluster.rs`.
//! [`verify`] is `lhrs-netcli verify`'s check.

use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::NetClient;
use crate::cluster::{ClusterSpec, NodeSpec, Role};
use crate::transport::Transport;
use lhrs_core::api::OpOutcome;
use lhrs_core::msg::ClientOp;
use lhrs_core::Config;

/// The payload `lhrs-netcli load` writes for `key`, and [`verify`] expects
/// back.
pub fn payload_for(key: u64) -> Vec<u8> {
    format!("v{key:08}").into_bytes()
}

/// How a key failed [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MissKind {
    /// An authoritative "no such key": an acked record is gone.
    Lost,
    /// The key answered with a payload other than [`payload_for`]'s.
    Corrupt,
    /// No answer: the lookup timed out or failed.
    Failed(String),
}

/// One key that did not read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Miss {
    /// The key.
    pub key: u64,
    /// The bucket it addresses under the client's image after the reads.
    pub bucket: Option<u64>,
    /// What came back instead of its payload.
    pub kind: MissKind,
}

/// What [`verify`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Keys read.
    pub checked: u64,
    /// Every key that did not read back, in key order.
    pub misses: Vec<Miss>,
}

impl VerifyReport {
    /// How many misses [`VerifyReport::render`] lists one by one.
    pub const LISTED: usize = 20;

    /// The operator's summary of the misses: how many, then the first
    /// [`VerifyReport::LISTED`] with each key's bucket.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} of {} keys did not read back",
            self.misses.len(),
            self.checked
        );
        if self.misses.len() > Self::LISTED {
            let _ = write!(out, "; the first {}", Self::LISTED);
        }
        out.push(':');
        for miss in self.misses.iter().take(Self::LISTED) {
            let what = match &miss.kind {
                MissKind::Lost => "lost".to_string(),
                MissKind::Corrupt => "has a corrupt payload".to_string(),
                MissKind::Failed(why) => format!("failed: {why}"),
            };
            let bucket = miss
                .bucket
                .map_or_else(|| "?".to_string(), |b| b.to_string());
            let _ = write!(
                out,
                "\n  key {} {what} (bucket {bucket} under the client image)",
                miss.key
            );
        }
        out
    }
}

/// Read back `keys` through the client's pipelined window and collect
/// every key whose payload is not [`payload_for`]'s, instead of stopping
/// at the first: the shape of a loss (one record, one bucket, one split
/// image) is the first clue to its cause.
pub fn verify<T: Transport>(client: &mut NetClient<T>, keys: Range<u64>) -> VerifyReport {
    let keys: Vec<u64> = keys.collect();
    let ops = keys.iter().map(|&key| ClientOp::Lookup { key }).collect();
    let window = client.window();
    let outcomes = client.run_window(ops, window);
    let misses = keys
        .iter()
        .zip(outcomes)
        .filter_map(|(&key, (outcome, _))| {
            let kind = match outcome {
                OpOutcome::Value(Some(v)) if v == payload_for(key) => return None,
                OpOutcome::Value(Some(_)) => MissKind::Corrupt,
                OpOutcome::Value(None) => MissKind::Lost,
                other => MissKind::Failed(format!("{other:?}")),
            };
            Some(Miss {
                key,
                bucket: client.image_bucket(key),
                kind,
            })
        })
        .collect();
    VerifyReport {
        checked: keys.len() as u64,
        misses,
    }
}

/// How to launch the two binaries: argv prefixes (program + leading args),
/// so the demo works both from `CARGO_BIN_EXE_*` paths and from
/// `cargo run -p lhrs-net --bin …` wrappers.
pub struct DemoCommands {
    /// Argv prefix for the server daemon (`lhrs-netd`).
    pub netd: Vec<String>,
    /// Argv prefix for the client CLI (`lhrs-netcli`).
    pub netcli: Vec<String>,
}

/// Records in the demo's first load wave.
pub const DEMO_WAVE1: u64 = 80;
/// Records in the second wave (keys continue after the first), keeping
/// overflow reports flowing so the file splits further. Total load is
/// sized so growth stays well inside the 11-server pool with spares left
/// for recovery.
pub const DEMO_WAVE2: u64 = 40;

/// Child processes that must not outlive the demo.
struct Procs(Vec<(u32, Child)>);

impl Procs {
    fn kill_node(&mut self, id: u32) -> bool {
        for (node, child) in &mut self.0 {
            if *node == id {
                let _ = child.kill();
                let _ = child.wait();
                return true;
            }
        }
        false
    }
}

impl Drop for Procs {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Build the demo's 16-node spec on fresh localhost ports: node 0 the
/// coordinator, node 1 the client, nodes 2–15 servers (bucket 0, one
/// parity, twelve spares under `m = 2`, `k = 1`). Growth under the demo
/// load peaks at 7 buckets + 4 parity = 11 servers, leaving spares for
/// the recovery to rebuild onto.
fn demo_spec() -> Result<ClusterSpec, String> {
    // Reserve distinct ephemeral ports by holding all listeners at once.
    let listeners: Vec<TcpListener> = (0..16)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("port alloc: {e}")))
        .collect::<Result<_, _>>()?;
    let ports: Vec<u16> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    drop(listeners);

    let cfg = Config {
        group_size: 2,
        initial_k: 1,
        bucket_capacity: 24,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        client_timeout_us: 100_000,
        client_retries: 2,
        retry_backoff_cap_us: 400_000,
        delta_retransmit_us: 100_000,
        probe_timeout_us: 100_000,
        coord_retransmit_us: 150_000,
        coord_retries: 20,
        ..Config::default()
    };
    let nodes = ports
        .iter()
        .enumerate()
        .map(|(id, port)| NodeSpec {
            id: id as u32,
            addr: format!("127.0.0.1:{port}"),
            role: match id {
                0 => Role::Coordinator,
                1 => Role::Client,
                _ => Role::Server,
            },
        })
        .collect();
    let spec = ClusterSpec { cfg, nodes };
    spec.validate()?;
    Ok(spec)
}

fn spawn_netd(cmds: &DemoCommands, config: &Path, id: u32) -> Result<Child, String> {
    let mut cmd = Command::new(&cmds.netd[0]);
    cmd.args(&cmds.netd[1..])
        .arg("--config")
        .arg(config)
        .arg("--nodes")
        .arg(id.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd.spawn().map_err(|e| format!("spawn netd {id}: {e}"))
}

fn run_cli(cmds: &DemoCommands, config: &Path, args: &[&str]) -> Result<String, String> {
    let mut cmd = Command::new(&cmds.netcli[0]);
    cmd.args(&cmds.netcli[1..])
        .arg("--config")
        .arg(config)
        .arg("--node")
        .arg("1")
        .args(args);
    let out = cmd
        .output()
        .map_err(|e| format!("run netcli {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "netcli {args:?} failed ({}): {stdout} {stderr}",
            out.status
        ));
    }
    Ok(stdout)
}

/// Wait until every address accepts a TCP connection.
fn await_ready(spec: &ClusterSpec, server_ids: &[u32], timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    for &id in server_ids {
        let addr = spec.addr_of(id);
        loop {
            match addr
                .parse()
                .ok()
                .and_then(|a| TcpStream::connect_timeout(&a, Duration::from_millis(200)).ok())
            {
                Some(_) => break,
                None if Instant::now() >= deadline => {
                    return Err(format!("node {id} at {addr} never came up"));
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "polls another process's port: no channel reaches across processes"
                )]
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
    Ok(())
}

/// Parse `buckets=N groups=G …` from `netcli status` output.
fn parse_status(out: &str) -> Result<(usize, usize), String> {
    let field = |key: &str| {
        out.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.parse::<usize>().ok())
            .ok_or_else(|| format!("no {key}N in status output {out:?}"))
    };
    Ok((field("buckets=")?, field("groups=")?))
}

/// Run the full demo. Steps (each fatal on failure; errors carry the
/// transcript so far):
///
/// 1. spawn one `lhrs-netd` process per server node (coordinator + 11
///    servers) on fresh localhost ports;
/// 2. `netcli load` two waves of inserts through multiple splits, every
///    write acked, the second wave sustaining overflow reports so the
///    file keeps splitting;
/// 3. `netcli verify`: every record readable, file grew to ≥ 2 parity
///    groups;
/// 4. `SIGKILL` the process carrying data bucket 0;
/// 5. `netcli verify` again: lookups stall, the client escalates, the
///    coordinator probes and rebuilds the lost bucket onto a spare over
///    TCP, and every acked record is still readable — zero data loss.
///
/// Returns a human-readable transcript of what happened.
pub fn run(cmds: &DemoCommands, workdir: &Path) -> Result<String, String> {
    let mut log = String::new();
    let mut say = |line: String| {
        log.push_str(&line);
        log.push('\n');
    };
    // Attach the transcript so far to any failure.
    macro_rules! fail {
        ($($arg:tt)*) => {
            return Err(format!("{}\ntranscript so far:\n{log}", format!($($arg)*)))
        };
    }

    let spec = demo_spec()?;
    let config = workdir.join("cluster.conf");
    {
        let mut f = std::fs::File::create(&config).map_err(|e| format!("write {config:?}: {e}"))?;
        f.write_all(spec.render().as_bytes())
            .map_err(|e| e.to_string())?;
    }

    let server_ids: Vec<u32> = std::iter::once(0).chain(spec.server_ids()).collect();
    let mut procs = Procs(Vec::new());
    for &id in &server_ids {
        procs.0.push((id, spawn_netd(cmds, &config, id)?));
    }
    say(format!(
        "spawned {} server processes (coordinator + bucket 0 + parity + spares)",
        procs.0.len()
    ));
    await_ready(&spec, &server_ids, Duration::from_secs(30))?;
    say("all listeners up".into());

    let total = DEMO_WAVE1 + DEMO_WAVE2;
    let (w1, w2, n) = (
        DEMO_WAVE1.to_string(),
        DEMO_WAVE2.to_string(),
        total.to_string(),
    );
    if let Err(e) = run_cli(cmds, &config, &["load", &w1]) {
        fail!("first load wave: {e}");
    }
    say(format!("loaded {DEMO_WAVE1} records (all writes acked)"));
    if let Err(e) = run_cli(cmds, &config, &["load", &w2, &(DEMO_WAVE1 + 1).to_string()]) {
        fail!("second load wave: {e}");
    }
    say(format!("loaded {DEMO_WAVE2} more records"));

    if let Err(e) = run_cli(cmds, &config, &["verify", &n]) {
        fail!("verify after load: {e}");
    }
    let status = match run_cli(cmds, &config, &["status"]) {
        Ok(s) => s,
        Err(e) => fail!("status after load: {e}"),
    };
    let (buckets, groups) = parse_status(&status)?;
    say(format!(
        "verified {total} records; file is {buckets} buckets / {groups} groups"
    ));
    if buckets < 3 || groups < 2 {
        fail!("file did not grow as expected: {buckets} buckets, {groups} groups");
    }

    if !procs.kill_node(2) {
        fail!("no process for node 2");
    }
    say("killed the process carrying data bucket 0".into());

    if let Err(e) = run_cli(cmds, &config, &["verify", &n]) {
        fail!("verify through recovery: {e}");
    }
    let status = match run_cli(cmds, &config, &["status"]) {
        Ok(s) => s,
        Err(e) => fail!("status after recovery: {e}"),
    };
    let (buckets2, groups2) = parse_status(&status)?;
    say(format!(
        "verified {total} records through recovery; file is {buckets2} buckets / {groups2} groups — zero acked-data loss"
    ));
    if buckets2 != buckets {
        fail!("bucket count changed across recovery: {buckets} -> {buckets2}");
    }
    Ok(log)
}
