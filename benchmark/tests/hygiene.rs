//! Process hygiene: no `lhrs-netd` child survives a run — finished,
//! panicked or interrupted — and no workdir is left behind.
//!
//! Every test gives its clusters a work root of its own; a daemon is
//! recognised as belonging to a test by that path in its command line
//! (`--config <work root>/...`), whoever its parent has become.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use lhrs_benchmark::cluster::{fresh_spec, Cluster, Launch};
use lhrs_benchmark::run::{self, Env};
use lhrs_benchmark::workload::find;

/// The target directory this test binary was built into
/// (`<target>/<profile>/deps/<test>`).
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    exe.ancestors()
        .nth(3)
        .expect("test binary sits in <target>/<profile>/deps")
        .to_path_buf()
}

/// `<target dir>/release/lhrs-netd`, built from the root workspace on first
/// use.
fn netd() -> PathBuf {
    let target = target_dir();
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "lhrs-net",
            "--bin",
            "lhrs-netd",
        ])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building lhrs-netd failed");
    target.join("release").join("lhrs-netd")
}

fn work_root(tag: &str) -> PathBuf {
    let root = target_dir().join(format!("hygiene-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create the work root");
    root
}

/// Pids of live processes whose command line mentions `root`.
fn daemons_under(root: &Path) -> Vec<u32> {
    let needle = root.to_str().expect("utf-8 path");
    std::fs::read_dir("/proc")
        .expect("read /proc")
        .flatten()
        .filter_map(|entry| entry.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .map(|raw| String::from_utf8_lossy(&raw).contains(needle))
                .unwrap_or(false)
        })
        .collect()
}

fn spawn_small_cluster(netd: &Path, root: &Path) -> Cluster {
    let w = find("kill_recover").expect("workload");
    Cluster::spawn(Launch {
        netd,
        work_root: root,
        label: "hygiene",
        spec: fresh_spec(w.config(), w.nodes).expect("spec"),
        procs: &w.procs(),
        durable: true,
        trace_dump: false,
    })
    .expect("spawn the cluster")
}

#[test]
fn dropping_a_cluster_reaps_its_daemons_and_removes_its_workdir() {
    let (netd, root) = (netd(), work_root("drop"));
    let cluster = spawn_small_cluster(&netd, &root);
    let workdir = cluster.workdir.clone();
    assert_eq!(daemons_under(&root).len(), 2, "two daemons are up");
    assert!(workdir.join("cluster.conf").is_file());
    drop(cluster);
    assert_eq!(daemons_under(&root), Vec::<u32>::new());
    assert!(
        !workdir.exists(),
        "the workdir (and its data dir) is removed"
    );
    std::fs::remove_dir_all(&root).expect("the work root itself is the caller's");
}

#[test]
fn a_panic_while_a_cluster_is_up_still_reaps_it() {
    let (netd, root) = (netd(), work_root("panic"));
    let result = std::panic::catch_unwind(|| {
        let _cluster = spawn_small_cluster(&netd, &root);
        assert_eq!(daemons_under(&root).len(), 2);
        panic!("a run went wrong");
    });
    assert!(result.is_err());
    assert_eq!(daemons_under(&root), Vec::<u32>::new());
    assert_eq!(std::fs::read_dir(&root).expect("work root").count(), 0);
    std::fs::remove_dir_all(&root).expect("remove the work root");
}

#[test]
fn no_daemon_survives_a_run() {
    let root = work_root("run");
    let env = Env {
        netd: netd(),
        work_root: root.clone(),
    };
    let report = run::run(find("kill_recover").expect("workload"), &env, 1, 1, false)
        .expect("a one-second run");
    assert!(report.attempted > 0);
    assert_eq!(report.failed + report.rejected, 0);
    assert_eq!(daemons_under(&root), Vec::<u32>::new());
    assert_eq!(std::fs::read_dir(&root).expect("work root").count(), 0);
    std::fs::remove_dir_all(&root).expect("remove the work root");
}

#[test]
fn an_interrupted_driver_reaps_its_daemons() {
    let (netd, root) = (netd(), work_root("sigint"));
    let mut driver = Command::new(env!("CARGO_BIN_EXE_lhrs-benchmark"))
        .args([
            "--workload",
            "read_small",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .arg("--netd")
        .arg(&netd)
        .arg("--out")
        .arg(root.join("result.json"))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn the driver");
    // Wait until its cluster is up, then interrupt the driver alone (not
    // the process group, as a terminal's ^C would).
    let deadline = Instant::now() + Duration::from_secs(60);
    while daemons_under(&root).len() < 3 {
        assert!(
            Instant::now() < deadline,
            "the driver's cluster never came up"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let status = Command::new("kill")
        .args(["-INT", &driver.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success());
    let exit = driver.wait().expect("wait for the driver");
    assert_eq!(exit.code(), Some(130), "an interrupted run exits 130");
    assert_eq!(daemons_under(&root), Vec::<u32>::new());
    assert!(!root.join("result.json").exists(), "no result is written");
    std::fs::remove_dir_all(&root).expect("remove the work root");
}
