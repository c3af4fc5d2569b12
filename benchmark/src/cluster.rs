//! A cluster of real `lhrs-netd` processes on localhost, and its hygiene:
//! fresh ports and a fresh workdir per cluster, listeners awaited before
//! the cluster counts as up, and every child killed and reaped — and the
//! workdir with its durable data removed — however the run ends.

use std::fs::File;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lhrs_core::Config;
use lhrs_net::cluster::{ClusterSpec, NodeSpec, Role};

/// The client node of every benchmark cluster (node 0 is the coordinator).
pub const CLIENT_NODE: u32 = 1;

/// How long the listeners of a freshly spawned cluster may take to come up.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);

/// One `lhrs-netd` process of a cluster: which nodes it hosts and how.
#[derive(Debug, Clone)]
pub struct ProcPlan {
    pub name: &'static str,
    pub nodes: Vec<u32>,
}

/// A running `lhrs-netd` child.
pub struct Proc {
    pub name: &'static str,
    pub nodes: Vec<u32>,
    pub spawned_at: Instant,
    child: Child,
}

impl Proc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// A spawned cluster. Dropping it kills and reaps every child and removes
/// the workdir, on success, on an error return and on a panic alike.
pub struct Cluster {
    pub spec: ClusterSpec,
    pub workdir: PathBuf,
    pub procs: Vec<Proc>,
}

/// Reserve `n` distinct ephemeral ports by holding all listeners at once
/// (as `lhrs_net::demo` does), then release them for the daemons to bind.
fn reserve_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve a port: {e}")))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.port())
                .map_err(|e| format!("read a reserved port: {e}"))
        })
        .collect()
}

/// A spec over `addrs`, one node each: node 0 the coordinator, node 1 the
/// client, the rest servers.
pub fn spec_of(cfg: Config, addrs: impl Iterator<Item = String>) -> Result<ClusterSpec, String> {
    let nodes = addrs
        .zip(0u32..)
        .map(|(addr, id)| NodeSpec {
            id,
            addr,
            role: match id {
                0 => Role::Coordinator,
                CLIENT_NODE => Role::Client,
                _ => Role::Server,
            },
        })
        .collect();
    let spec = ClusterSpec { cfg, nodes };
    spec.validate()?;
    Ok(spec)
}

/// A spec of `nodes` nodes on fresh localhost ports.
pub fn fresh_spec(cfg: Config, nodes: u32) -> Result<ClusterSpec, String> {
    let ports = reserve_ports(nodes as usize)?;
    spec_of(cfg, ports.iter().map(|port| format!("127.0.0.1:{port}")))
}

/// A workdir name no other cluster of this or any concurrent run uses.
fn fresh_workdir(root: &Path, label: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
    root.join(format!("{label}-{}-{serial}", std::process::id()))
}

/// What a cluster is spawned from.
pub struct Launch<'a> {
    /// The `lhrs-netd` binary of the commit under test.
    pub netd: &'a Path,
    /// Directory the cluster's workdir is created in.
    pub work_root: &'a Path,
    /// Names the workdir.
    pub label: &'a str,
    pub spec: ClusterSpec,
    pub procs: &'a [ProcPlan],
    /// Launch every daemon with `--data-dir <workdir>/data`.
    pub durable: bool,
    /// Launch the daemon hosting the coordinator with `--trace-dump`.
    pub trace_dump: bool,
}

impl Cluster {
    /// Write `cluster.conf`, spawn the daemons and wait until every hosted
    /// node's listener accepts a connection.
    pub fn spawn(launch: Launch<'_>) -> Result<Cluster, String> {
        let workdir = fresh_workdir(launch.work_root, launch.label);
        std::fs::create_dir_all(&workdir).map_err(|e| format!("create {workdir:?}: {e}"))?;
        // From here on the guard owns the workdir and every child spawned.
        let mut cluster = Cluster {
            spec: launch.spec,
            workdir,
            procs: Vec::new(),
        };
        let conf = cluster.workdir.join("cluster.conf");
        std::fs::write(&conf, cluster.spec.render()).map_err(|e| format!("write {conf:?}: {e}"))?;
        for plan in launch.procs {
            let log = File::create(cluster.workdir.join(format!("{}.log", plan.name)))
                .map_err(|e| format!("create the log of {}: {e}", plan.name))?;
            let nodes: Vec<String> = plan.nodes.iter().map(u32::to_string).collect();
            let mut cmd = Command::new(launch.netd);
            cmd.arg("--config")
                .arg(&conf)
                .arg("--nodes")
                .arg(nodes.join(","))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log);
            if launch.durable {
                cmd.arg("--data-dir").arg(cluster.data_dir());
            }
            if launch.trace_dump && plan.nodes.contains(&0) {
                cmd.arg("--trace-dump").arg(cluster.trace_dump_path());
            }
            let spawned_at = Instant::now();
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawn {:?}: {e}", launch.netd))?;
            cluster.procs.push(Proc {
                name: plan.name,
                nodes: plan.nodes.clone(),
                spawned_at,
                child,
            });
        }
        cluster.await_listeners()?;
        Ok(cluster)
    }

    /// Where durable daemons keep their write-ahead logs.
    pub fn data_dir(&self) -> PathBuf {
        self.workdir.join("data")
    }

    /// Where the coordinator's daemon dumps its trace ring.
    pub fn trace_dump_path(&self) -> PathBuf {
        self.workdir.join("coordinator-trace.jsonl")
    }

    fn await_listeners(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + LISTEN_TIMEOUT;
        let hosted: Vec<u32> = self.procs.iter().flat_map(|p| p.nodes.clone()).collect();
        for id in hosted {
            let addr: SocketAddr = self
                .spec
                .addr_of(id)
                .parse()
                .map_err(|e| format!("node {id} address: {e}"))?;
            while TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err() {
                if let Some(dead) = self.first_dead() {
                    return Err(format!(
                        "{dead} exited during start-up:\n{}",
                        self.log_tail(dead)
                    ));
                }
                if Instant::now() >= deadline || crate::signal::interrupted() {
                    return Err(format!("node {id} at {addr} never came up"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }

    /// The name of a daemon that has exited, if any.
    pub fn first_dead(&mut self) -> Option<&'static str> {
        for proc in &mut self.procs {
            if !matches!(proc.child.try_wait(), Ok(None)) {
                return Some(proc.name);
            }
        }
        None
    }

    /// The last lines a daemon wrote to its stderr.
    pub fn log_tail(&self, name: &str) -> String {
        let text =
            std::fs::read_to_string(self.workdir.join(format!("{name}.log"))).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(20)..].join("\n")
    }

    /// `SIGKILL` the daemon `name` and reap it; it leaves the cluster.
    /// Returns the instant the signal was sent.
    pub fn kill(&mut self, name: &str) -> Result<Instant, String> {
        let pos = self
            .procs
            .iter()
            .position(|p| p.name == name)
            .ok_or_else(|| format!("no daemon named {name}"))?;
        let mut proc = self.procs.remove(pos);
        let at = Instant::now();
        proc.child.kill().map_err(|e| format!("kill {name}: {e}"))?;
        let _ = proc.child.wait();
        Ok(at)
    }

    /// Pids of the daemons still part of the cluster.
    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(Proc::pid).collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for proc in &mut self.procs {
            let _ = proc.child.kill();
        }
        for proc in &mut self.procs {
            let _ = proc.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.workdir);
        // Wait for the deletion to reach the disk, so that the journal
        // commit (and the discards behind it) of one cluster's durable data
        // is not paid by the fsyncs of the next cluster's measured window.
        if let Some(parent) = self.workdir.parent() {
            let _ = File::open(parent).and_then(|dir| dir.sync_all());
        }
    }
}
