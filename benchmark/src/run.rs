//! One run of one workload against real `lhrs-netd` processes over TCP:
//! set-up, warm-up, the measured window, the kill phase, the validity
//! checks, and the arithmetic that turns samples into the named metrics.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lhrs_lh::FileState;
use lhrs_net::client::NetClient;
use lhrs_net::host::NodeHost;
use lhrs_net::transport::TcpTransport;
use lhrs_obs::{Clock, Metrics};

use crate::closedloop::{ClosedLoop, Completion, Oracle, Outcome, Scheduler, PUMP_WAIT};
use crate::cluster::{fresh_spec, Cluster, Launch, CLIENT_NODE};
use crate::json::Json;
use crate::opstream::{key_of, OpKind, OpStream};
use crate::procfs;
use crate::scrape::{scrape_cluster, Counters};
use crate::signal::interrupted;
use crate::stats::{median, top_percentile, Segments};
use crate::workload::{Extent, Workload, VICTIM};

/// Closed-loop time before the measured window of a time-bounded
/// workload opens, so connections are up and the client's image of the
/// file has converged.
const WARMUP: Duration = Duration::from_secs(1);

/// Equal time segments a measured window is cut into.
pub const SEGMENTS: usize = 10;

/// How long the loop keeps running after the recovery, and the cap on the
/// whole kill phase.
const POST_RECOVERY: Duration = Duration::from_secs(2);
const KILL_PHASE_CAP: Duration = Duration::from_secs(20);

/// Operation spans of the traced window written to the trace file.
pub const TRACED_OP_SPANS: usize = 20_000;

/// Where the run finds the daemon and keeps its files.
pub struct Env {
    /// The `lhrs-netd` binary of the commit under test.
    pub netd: PathBuf,
    /// Cluster workdirs are created (and removed) under this directory.
    pub work_root: PathBuf,
}

/// A span recorded from outside the program, around a call into a layer
/// or around one client operation. `op` is the operation that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One completed operation of the measured window.
struct Sample {
    at_ns: u64,
    latency_ns: u64,
    write: bool,
}

/// A cluster that is up, with the driver's one client synced and the
/// preload done.
struct Session {
    cluster: Cluster,
    client: NetClient<TcpTransport>,
    /// The driver's own registry: enabled in traced runs only.
    metrics: Metrics,
    oracle: Oracle,
    setup_s: f64,
}

/// What a traced run reads at each edge of the measured window.
struct Scrape {
    /// Summed over the daemons.
    netd: Counters,
    /// The driver's own registry.
    driver: Counters,
    /// Of every thread of the daemons.
    ctx_switches: u64,
}

/// What the measured window yielded.
struct Window {
    samples: Vec<Sample>,
    wall: Duration,
    /// CPU ticks (daemons + driver) spent in the whole window.
    cpu_ticks: u64,
    /// ... and in each of its [`SEGMENTS`] (time-bounded workloads).
    segment_cpu_ticks: Vec<u64>,
    peak_rss_kib: u64,
    /// What was counted between the window's edges (traced runs).
    counted: Option<Scrape>,
    window_full_rounds: u64,
    spans: Vec<Span>,
}

/// What the kill phase yielded.
struct KillReport {
    recovery_s: f64,
    post_recovery_ops_per_s: f64,
    /// Seconds from the victim's spawn to the kill: places the kill on the
    /// clock of the coordinator's trace, whose daemon was spawned within
    /// milliseconds of the victim.
    kill_after_spawn_s: f64,
}

/// Named metric values, in table order.
pub type Values = Vec<(&'static str, f64)>;

/// Context a reader needs beside the numbers: sample counts, file size,
/// the mount durable data sat on.
pub type Info = Vec<(&'static str, Json)>;

/// Everything one run reports.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    pub end_to_end: Values,
    /// Per-layer metrics measured from the TCP run itself (traced runs);
    /// the layer walk adds its rows later.
    pub per_layer: Values,
    pub info: Info,
    pub spans: Vec<Span>,
}

impl RunReport {
    pub fn end_to_end(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

fn connect(cluster: &Cluster, metrics: &Metrics) -> Result<NetClient<TcpTransport>, String> {
    let spec = &cluster.spec;
    let local = vec![(CLIENT_NODE, spec.addr_of(CLIENT_NODE).to_string())];
    let peers: HashMap<u32, String> = spec.addr_map().into_iter().collect();
    let (tx, rx) = mpsc::channel();
    let transport = TcpTransport::start_with_metrics(&local, peers, tx.clone(), metrics.clone())
        .map_err(|e| format!("bind the client node: {e}"))?;
    let shared = spec.build_shared();
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    host.set_metrics(metrics.clone());
    host.add_node(CLIENT_NODE, spec.build_node(&shared, CLIENT_NODE));
    let mut client = NetClient::new(host, CLIENT_NODE, 1);
    if !client.sync_registry(0, Duration::from_secs(20)) {
        return Err("no allocation table from the coordinator".into());
    }
    Ok(client)
}

/// Spawn → listeners up → registry sync → preload, timed as `setup_s`.
fn set_up(w: &Workload, env: &Env, seed: u64, traced: bool) -> Result<Session, String> {
    let started = Instant::now();
    let procs = w.procs();
    let cluster = Cluster::spawn(Launch {
        netd: &env.netd,
        work_root: &env.work_root,
        label: w.name,
        spec: fresh_spec(w.config(), w.nodes)?,
        procs: &procs,
        durable: w.durable,
        trace_dump: traced && w.kill,
    })?;
    let metrics = if traced {
        Metrics::new(Clock::wall())
    } else {
        Metrics::disabled()
    };
    let mut client = connect(&cluster, &metrics)?;
    let mut oracle = Oracle::new(seed, w.payload_len);
    ClosedLoop::preload(&mut client, &mut oracle, seed, w.preload, PUMP_WAIT)?;
    Ok(Session {
        cluster,
        client,
        metrics,
        oracle,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// CPU ticks of every daemon of the cluster and of the driver itself.
fn cpu_ticks(pids: &[u32]) -> u64 {
    procfs::cpu_ticks_of(pids) + procfs::cpu_ticks(std::process::id()).unwrap_or(0)
}

fn scrape(cluster: &Cluster, metrics: &Metrics) -> Result<Scrape, String> {
    Ok(Scrape {
        netd: scrape_cluster(cluster)?,
        driver: Counters::from_prometheus(&metrics.render_prometheus()),
        ctx_switches: cluster
            .pids()
            .iter()
            .filter_map(|&p| procfs::context_switches(p))
            .sum(),
    })
}

/// Records the completions of a window relative to its opening.
struct Recorder {
    opened: Instant,
    samples: Vec<Sample>,
    spans: Vec<Span>,
    keep_spans: bool,
}

impl Recorder {
    fn record(&mut self, c: &Completion) {
        if c.outcome != Outcome::Verified || c.completed < self.opened {
            return;
        }
        let at_ns = (c.completed - self.opened).as_nanos() as u64;
        self.samples.push(Sample {
            at_ns,
            latency_ns: c.latency_ns(),
            write: c.kind != OpKind::Lookup,
        });
        if self.keep_spans && self.spans.len() < TRACED_OP_SPANS {
            self.spans.push(Span {
                name: match c.kind {
                    OpKind::Lookup => "tcp.lookup",
                    OpKind::Update => "tcp.update",
                    OpKind::Insert => "tcp.insert",
                },
                op: c.op_id,
                start_ns: at_ns.saturating_sub(c.latency_ns()),
                end_ns: at_ns,
            });
        }
    }
}

/// Warm up, then run the measured window. The loop is left running (ops
/// still in flight) for whatever phase follows.
fn measure(
    w: &Workload,
    cluster: &Cluster,
    metrics: &Metrics,
    lp: &mut ClosedLoop<'_, TcpTransport>,
    sched: &mut Scheduler,
    seconds: u64,
    traced: bool,
) -> Result<Window, String> {
    if w.extent == Extent::Time {
        let until = Instant::now() + WARMUP;
        while Instant::now() < until && !interrupted() {
            lp.step(sched, u64::MAX);
        }
    }
    let rounds_before = lp.window_full_rounds;
    let pids = cluster.pids();
    // The scrapes stay outside the window: before it opens, after it closes.
    let scrape_if_traced = || traced.then(|| scrape(cluster, metrics)).transpose();
    let scraped_before = scrape_if_traced()?;
    let (opened, ticks_at_open) = (Instant::now(), cpu_ticks(&pids));
    let mut rec = Recorder {
        opened,
        samples: Vec::new(),
        spans: Vec::new(),
        keep_spans: traced,
    };
    let mut segment_cpu_ticks = Vec::new();
    match w.extent {
        Extent::Time => {
            // Two small reads of /proc per daemon at each segment boundary.
            let segment = Duration::from_secs(seconds) / SEGMENTS as u32;
            let mut ticks_at_boundary = ticks_at_open;
            for boundary in 1..=SEGMENTS as u32 {
                let until = opened + segment * boundary;
                while Instant::now() < until && !interrupted() {
                    for c in lp.step(sched, u64::MAX) {
                        rec.record(&c);
                    }
                }
                let ticks = cpu_ticks(&pids);
                segment_cpu_ticks.push(ticks.saturating_sub(ticks_at_boundary));
                ticks_at_boundary = ticks;
            }
        }
        Extent::Ops { ops_per_second } => {
            lp.run_ops(sched, ops_per_second * seconds, |c| rec.record(&c));
        }
    }
    let (wall, ticks_at_close) = (opened.elapsed(), cpu_ticks(&pids));
    let scraped_after = scrape_if_traced()?;
    if interrupted() {
        return Err("interrupted".into());
    }
    // A completion collected just past the closing edge is not the window's.
    rec.samples
        .retain(|s| u128::from(s.at_ns) < wall.as_nanos());
    Ok(Window {
        wall,
        cpu_ticks: ticks_at_close.saturating_sub(ticks_at_open),
        segment_cpu_ticks,
        peak_rss_kib: pids.iter().filter_map(|&p| procfs::peak_rss_kib(p)).sum(),
        counted: scraped_before.zip(scraped_after).map(|(a, b)| Scrape {
            netd: b.netd.since(&a.netd),
            driver: b.driver.since(&a.driver),
            ctx_switches: b.ctx_switches.saturating_sub(a.ctx_switches),
        }),
        window_full_rounds: lp.window_full_rounds - rounds_before,
        samples: rec.samples,
        spans: rec.spans,
    })
}

/// The bucket every key lives in once the file has `buckets` buckets.
fn file_state(buckets: u64) -> Option<FileState> {
    let level = buckets.max(1).ilog2();
    FileState::from_parts(buckets - (1 << level), level as u8, 1)
}

/// `SIGKILL` the victim and keep the same loop running through the
/// recovery: unavailability as the client sees it.
fn kill_phase(
    cluster: &mut Cluster,
    lp: &mut ClosedLoop<'_, TcpTransport>,
    sched: &mut Scheduler,
    buckets: u64,
) -> Result<KillReport, String> {
    let state = file_state(buckets).ok_or("no file state for the bucket count")?;
    let victim_spawned = cluster
        .procs
        .iter()
        .find(|p| p.name == VICTIM)
        .map(|p| p.spawned_at)
        .ok_or("the cluster has no victim process")?;
    let killed = cluster.kill(VICTIM)?;
    let cap = killed + KILL_PHASE_CAP;
    let mut recovered: Option<Instant> = None;
    let mut after_recovery = 0u64;
    loop {
        let now = Instant::now();
        match recovered {
            Some(at) if now >= at + POST_RECOVERY => break,
            None if now >= cap => {
                return Err(format!(
                    "no operation on bucket 0 completed within {} s of the kill",
                    KILL_PHASE_CAP.as_secs()
                ));
            }
            _ => {}
        }
        if interrupted() {
            return Err("interrupted".into());
        }
        for c in lp.step(sched, u64::MAX) {
            if c.outcome != Outcome::Verified {
                continue;
            }
            match recovered {
                None if c.submitted >= killed && state.address(key_of(c.idx)) == 0 => {
                    recovered = Some(c.completed);
                }
                Some(at) if c.completed <= at + POST_RECOVERY => after_recovery += 1,
                _ => {}
            }
        }
    }
    let recovered = recovered.ok_or("kill phase ended without a recovery")?;
    Ok(KillReport {
        recovery_s: (recovered - killed).as_secs_f64(),
        post_recovery_ops_per_s: after_recovery as f64 / POST_RECOVERY.as_secs_f64(),
        kill_after_spawn_s: (killed - victim_spawned).as_secs_f64(),
    })
}

/// `recovery_start` and `recovery_end` times (seconds on the coordinator
/// daemon's clock) from its trace dump.
fn recovery_times(dump: &str) -> Option<(f64, f64)> {
    let at = |kind: &str| {
        dump.lines()
            .filter(|line| line.contains(&format!("\"type\":\"{kind}\"")))
            .find_map(|line| crate::json::parse(line).ok()?.get("at_us")?.as_f64())
            .map(|us| us / 1e6)
    };
    Some((at("recovery_start")?, at("recovery_end")?))
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Turn the window's samples into the end-to-end metrics.
fn end_to_end(w: &Workload, window: &Window, setup_s: f64) -> Result<(Values, Info), String> {
    let window_ns = window.wall.as_nanos() as u64;
    let mut reads = Segments::new(SEGMENTS, window_ns);
    let mut writes = Segments::new(SEGMENTS, window_ns);
    for s in &window.samples {
        if s.write {
            writes.record(s.at_ns, s.latency_ns);
        } else {
            reads.record(s.at_ns, s.latency_ns);
        }
    }
    let ops = (reads.total() + writes.total()) as f64;
    if reads.total() == 0 || writes.total() == 0 {
        return Err(format!(
            "the window completed {} reads and {} writes",
            reads.total(),
            writes.total()
        ));
    }
    let counts: Vec<usize> = reads
        .counts()
        .iter()
        .zip(writes.counts())
        .map(|(r, w)| r + w)
        .collect();
    let rates: Vec<f64> = counts
        .iter()
        .map(|n| *n as f64 / reads.segment_seconds())
        .collect();
    let us_per_tick = 1e6 / procfs::ticks_per_second();
    let (ops_per_s, cpu_us_per_op) = match w.extent {
        // The median segment: one stall, or one burst of a noisy
        // neighbour, moves one segment, not the metric.
        Extent::Time => {
            let cpu_per_op: Vec<f64> = window
                .segment_cpu_ticks
                .iter()
                .zip(&counts)
                .filter(|(_, n)| **n > 0)
                .map(|(ticks, n)| *ticks as f64 * us_per_tick / *n as f64)
                .collect();
            (
                median(&rates).unwrap_or(f64::NAN),
                median(&cpu_per_op).unwrap_or(f64::NAN),
            )
        }
        // A fixed amount of work on a file that grows: totals are the
        // honest figures, no segment is like another.
        Extent::Ops { .. } => (
            ops / window.wall.as_secs_f64(),
            window.cpu_ticks as f64 * us_per_tick / ops,
        ),
    };
    let pct = |s: &Segments, p: f64| s.overall_percentile(p).map_or(f64::NAN, |v| us(v as f64));
    let seg = |s: &Segments, p: f64| s.segment_median_percentile(p).map_or(f64::NAN, us);
    let metrics = vec![
        ("ops_per_s", ops_per_s),
        ("read_p50_us", seg(&reads, 50.0)),
        ("write_p50_us", seg(&writes, 50.0)),
        ("cpu_us_per_op", cpu_us_per_op),
        ("peak_rss_mb", window.peak_rss_kib as f64 / 1024.0),
        ("setup_s", setup_s),
    ];
    let top = |s: &Segments| match top_percentile(s.total()) {
        Some(p) => Json::obj([
            ("percentile", Json::Num(p)),
            ("us", Json::Num(pct(s, p))),
            ("samples", Json::Num(s.total() as f64)),
        ]),
        None => Json::Null,
    };
    let info = vec![
        // Tail latency: reported beside the bounded metrics, and as a
        // per-layer metric of the traced run (see README on why).
        ("read_p99_us", Json::Num(seg(&reads, 99.0))),
        ("write_p99_us", Json::Num(seg(&writes, 99.0))),
        ("window_ops", Json::Num(ops)),
        ("window_s", Json::Num(window.wall.as_secs_f64())),
        (
            "segment_ops_per_s",
            Json::Arr(rates.iter().map(|r| Json::Num(r.round())).collect()),
        ),
        ("read_samples", Json::Num(reads.total() as f64)),
        ("write_samples", Json::Num(writes.total() as f64)),
        (
            "read_samples_per_segment",
            Json::Num(reads.total() as f64 / SEGMENTS as f64),
        ),
        (
            "write_samples_per_segment",
            Json::Num(writes.total() as f64 / SEGMENTS as f64),
        ),
        ("read_top_percentile", top(&reads)),
        ("write_top_percentile", top(&writes)),
    ];
    Ok((metrics, info))
}

/// Per-layer metrics the TCP run itself yields: counter deltas over the
/// window divided by the operations completed in it.
fn counted_layers(window: &Window, ops: f64, user_bytes: f64) -> Values {
    let Some(Scrape {
        netd,
        driver,
        ctx_switches,
    }) = &window.counted
    else {
        return Vec::new();
    };
    let per_op = |n: u64| n as f64 / ops;
    let per_kop = |n: u64| n as f64 * 1000.0 / ops;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let both = |name: &str| netd.get(name) + driver.get(name);
    // Requests a server sends are forwards: a client's own sends are
    // counted in the driver's registry.
    let forwards = ["insert", "lookup", "update"]
        .iter()
        .map(|kind| netd.get_kind("msgs_sent", kind))
        .sum();
    let coalesced = netd.get("net_deltas_coalesced");
    let wal_bytes = netd.get("wal_bytes");
    vec![
        ("lh.forwards_per_kop", per_kop(forwards)),
        ("transport.frames_per_op", per_op(both("net_frames_sent"))),
        ("transport.bytes_per_op", per_op(both("net_sent_bytes"))),
        ("transport.reconnects", both("net_reconnects") as f64),
        ("transport.send_drops", both("net_send_drops") as f64),
        ("transport.decode_errors", both("net_decode_errors") as f64),
        ("transport.ctx_switches_per_op", per_op(*ctx_switches)),
        ("host.msgs_per_op", per_op(netd.get_all_kinds("msgs_recv"))),
        (
            "host.delta_batch_fanin",
            ratio(coalesced, netd.get("net_delta_batches")),
        ),
        (
            "host.remote_delta_share",
            ratio(coalesced, netd.get_kind("msgs_sent", "parity-delta")),
        ),
        (
            "host.timer_fires_per_kop",
            per_kop(netd.get("host_timer_fires")),
        ),
        (
            "client.retries_per_kop",
            per_kop(driver.get("client_retries")),
        ),
        (
            "client.escalations",
            driver.get("client_escalations") as f64,
        ),
        (
            "client.window_full_stalls_per_kop",
            per_kop(window.window_full_rounds),
        ),
        (
            "client.stale_replies_dropped",
            (driver.get("inflight_stale_drops") + driver.get("net_stale_replies_dropped")) as f64,
        ),
        (
            "data_bucket.degraded_reads",
            netd.get("degraded_reads") as f64,
        ),
        (
            "parity_bucket.acks_per_op",
            per_op(netd.get_kind("msgs_sent", "parity-ack")),
        ),
        ("wal.appends_per_op", per_op(netd.get("wal_appends"))),
        (
            "wal.ops_per_fsync",
            ratio(
                netd.get("wal_group_commit_ops"),
                netd.get("wal_group_commits"),
            ),
        ),
        ("wal.snapshots", netd.get("wal_snapshots") as f64),
        (
            "wal.bytes_per_user_byte",
            if user_bytes > 0.0 {
                wal_bytes as f64 / user_bytes
            } else {
                0.0
            },
        ),
        ("wal.errors", netd.get("wal_errors") as f64),
        ("coordinator.splits", netd.get("splits_completed") as f64),
        (
            "coordinator.overflow_reports",
            netd.get("overflow_reports") as f64,
        ),
        (
            "coordinator.registry_broadcasts",
            netd.get("registry_broadcasts") as f64,
        ),
    ]
}

/// Run `w` once. A run that loses an acknowledged write, ends with an
/// unreachable or exhausted server pool, or logs in a workload without a
/// WAL is invalid: it returns an error and reports nothing.
pub fn run(
    w: &'static Workload,
    env: &Env,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunReport, String> {
    let Session {
        mut cluster,
        mut client,
        metrics,
        mut oracle,
        setup_s,
    } = set_up(w, env, seed, traced)?;
    let buckets_at_start = client.bucket_count() as u64;
    let mount = procfs::mount_of(&cluster.workdir);

    let mut sched = Scheduler::new(OpStream::new(seed, w.mix), w.preload);
    let mut lp = ClosedLoop::new(&mut client, &mut oracle, w.window);
    let window = measure(w, &cluster, &metrics, &mut lp, &mut sched, seconds, traced)?;
    let kill = if w.kill {
        Some(kill_phase(
            &mut cluster,
            &mut lp,
            &mut sched,
            buckets_at_start,
        )?)
    } else {
        None
    };
    lp.run_ops(&mut sched, 0, |_| {});
    let totals = lp.totals;
    let disk_bytes = procfs::dir_bytes(&cluster.data_dir());
    let lost_acked = lp.verify_sweep();
    let inflight_timeouts = lp.deadline_expiries;
    let stored = lp.stored();
    drop(lp);
    if interrupted() {
        return Err("interrupted".into());
    }

    // Validity: outside every timed window.
    if lost_acked != 0 {
        return Err(format!(
            "{}: {lost_acked} keys do not return their last acknowledged write",
            w.name
        ));
    }
    if let Some(dead) = cluster.first_dead() {
        return Err(format!(
            "{}: {dead} died during the run:\n{}",
            w.name,
            cluster.log_tail(dead)
        ));
    }
    let finals = scrape_cluster(&cluster)
        .map_err(|e| format!("{}: server pool unreachable at the end: {e}", w.name))?;
    let (buckets, groups) = (client.bucket_count(), client.group_count());
    let servers = w.nodes as usize - 2;
    let lost_servers = if w.kill { 2 } else { 0 };
    let spare = servers.saturating_sub(buckets + groups * w.k + lost_servers);
    if spare < 1 + w.k || finals.get("recoveries_stalled") != 0 {
        return Err(format!(
            "{}: server pool exhausted ({buckets} buckets, {groups} groups, {spare} spare, {} recoveries stalled)",
            w.name,
            finals.get("recoveries_stalled")
        ));
    }
    let wal_activity: u64 = ["wal_appends", "wal_bytes", "wal_snapshots", "wal_errors"]
        .iter()
        .map(|name| finals.get(name))
        .sum();
    if !w.durable && wal_activity != 0 {
        return Err(format!("{}: WAL counters moved without a WAL", w.name));
    }
    if finals.get("wal_errors") != 0 || finals.get("invariant_violations") != 0 {
        return Err(format!(
            "{}: {} WAL errors, {} invariant violations",
            w.name,
            finals.get("wal_errors"),
            finals.get("invariant_violations")
        ));
    }

    let (end_to_end, mut info) = end_to_end(w, &window, setup_s)?;
    let ops = window.samples.len() as f64;
    let writes = window.samples.iter().filter(|s| s.write).count() as f64;
    let mut per_layer = counted_layers(&window, ops, writes * w.payload_len as f64);
    if traced {
        let user_bytes = f64::from(stored) * w.payload_len as f64;
        per_layer.push((
            "wal.disk_bytes_per_user_byte",
            if w.durable {
                disk_bytes as f64 / user_bytes
            } else {
                0.0
            },
        ));
        per_layer.push(("client.inflight_timeouts", inflight_timeouts as f64));
        for (name, key) in [
            ("client.read_p99_us", "read_p99_us"),
            ("client.write_p99_us", "write_p99_us"),
        ] {
            let tail = info
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| v.as_f64());
            per_layer.push((name, tail.unwrap_or(0.0)));
        }
        let recovery = |name: &str| finals.get(name) as f64;
        per_layer.push((
            "coordinator.recoveries_completed",
            recovery("recoveries_completed"),
        ));
        per_layer.push((
            "coordinator.recovery_shards",
            recovery("recovery_shards_rebuilt"),
        ));
        per_layer.push((
            "coordinator.recovery_bytes_moved",
            recovery("recovery_bytes_moved"),
        ));
        let times = std::fs::read_to_string(cluster.trace_dump_path())
            .ok()
            .and_then(|dump| recovery_times(&dump));
        let (detect, rebuild) = match (&kill, times) {
            (Some(k), Some((start, end))) => ((start - k.kill_after_spawn_s).max(0.0), end - start),
            _ => (0.0, 0.0),
        };
        per_layer.push(("coordinator.recovery_detect_s", detect));
        per_layer.push(("coordinator.recovery_rebuild_s", rebuild));
        per_layer.push((
            "client.recovery_s",
            kill.as_ref().map_or(0.0, |k| k.recovery_s),
        ));
        per_layer.push((
            "client.post_recovery_ops_per_s",
            kill.as_ref().map_or(0.0, |k| k.post_recovery_ops_per_s),
        ));
    }
    if let Some(k) = &kill {
        info.push(("recovery_s", Json::Num(k.recovery_s)));
        info.push((
            "recoveries_completed",
            Json::Num(finals.get("recoveries_completed") as f64),
        ));
        info.push((
            "recovery_shards_rebuilt",
            Json::Num(finals.get("recovery_shards_rebuilt") as f64),
        ));
    }
    info.push(("buckets", Json::Num(buckets as f64)));
    info.push(("groups", Json::Num(groups as f64)));
    info.push(("keys_stored", Json::Num(f64::from(stored))));
    info.push(("workdir_mount", Json::str(mount)));
    info.push(("lost_acked", Json::Num(lost_acked as f64)));
    Ok(RunReport {
        attempted: totals.attempted,
        failed: totals.failed,
        rejected: totals.rejected,
        end_to_end,
        per_layer,
        info,
        spans: window.spans,
    })
}

/// Set a cluster up and tear it down again, only to time the set-up.
pub fn time_set_up(w: &Workload, env: &Env, seed: u64) -> Result<f64, String> {
    set_up(w, env, seed, false).map(|s| s.setup_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_state_places_keys_like_lh_star() {
        let s = file_state(16).unwrap();
        assert_eq!((s.split_pointer(), s.level()), (0, 4));
        assert_eq!(s.address(32), 0);
        assert_eq!(s.address(33), 1);
        // 13 buckets: level 3, buckets 0..5 have already split.
        let s = file_state(13).unwrap();
        assert_eq!((s.split_pointer(), s.level()), (5, 3));
        assert_eq!(s.address(8), 8);
        assert_eq!(s.address(16), 0);
        assert_eq!(s.address(5), 5);
        let s = file_state(1).unwrap();
        assert_eq!(s.address(12345), 0);
    }

    #[test]
    fn recovery_times_come_from_the_first_start_and_end_events() {
        let dump = "\
{\"at_us\":100,\"seq\":0,\"type\":\"split_start\",\"bucket\":0}
{\"at_us\":21500000,\"seq\":7,\"type\":\"recovery_start\",\"group\":0,\"failed\":2}
{\"at_us\":21600000,\"seq\":8,\"type\":\"recovery_shard\",\"group\":0,\"shard\":0,\"bytes\":10}
{\"at_us\":22250000,\"seq\":9,\"type\":\"recovery_end\",\"group\":0,\"rebuilt\":2,\"ok\":true}
";
        assert_eq!(recovery_times(dump), Some((21.5, 22.25)));
        assert_eq!(recovery_times("{\"type\":\"recovery_start\"}"), None);
    }
}
