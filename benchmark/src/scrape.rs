//! Counter scrapes: the `STATS` command every `lhrs-netd` already serves
//! (a `StatsPull` frame answered with Prometheus text), summed over the
//! daemons of a cluster, and the delta between two scrapes.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use lhrs_net::frame::{read_frame, write_frame, FrameType};
use lhrs_obs::parse_prometheus;
use lhrs_sim::NodeId;

use crate::cluster::{Cluster, CLIENT_NODE};

/// Deadline for one daemon's whole `STATS` exchange.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Counter readings by full series name, e.g.
/// `lhrs_msgs_sent_total{kind="insert"}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Parse one Prometheus text snapshot. Histogram series parse like any
    /// other sample; the benchmark only reads `_total` counters.
    pub fn from_prometheus(text: &str) -> Counters {
        let mut out = Counters::default();
        for (series, value) in parse_prometheus(text) {
            *out.0.entry(series).or_insert(0) += value;
        }
        out
    }

    /// Add another process's readings to these.
    pub fn merge(&mut self, other: &Counters) {
        for (series, value) in &other.0 {
            *self.0.entry(series.clone()).or_insert(0) += value;
        }
    }

    /// What was counted between `earlier` and `self`. A series absent from
    /// `earlier` had not been touched yet and counts from 0; counters never
    /// decrease within one process, so a smaller later reading (a process
    /// left the scrape) yields 0 rather than wrapping.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(series, value)| {
                    let before = earlier.0.get(series).copied().unwrap_or(0);
                    (series.clone(), value.saturating_sub(before))
                })
                .collect(),
        )
    }

    /// The unlabeled counter `name` (as the program names it, without the
    /// `lhrs_` prefix and `_total` suffix).
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .get(&format!("lhrs_{name}_total"))
            .copied()
            .unwrap_or(0)
    }

    /// The counter `name{kind=label}`.
    pub fn get_kind(&self, name: &str, label: &str) -> u64 {
        self.0
            .get(&format!("lhrs_{name}_total{{kind=\"{label}\"}}"))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of `name` over every label (and the unlabeled series).
    pub fn get_all_kinds(&self, name: &str) -> u64 {
        let labeled = format!("lhrs_{name}_total{{");
        self.0
            .iter()
            .filter(|(series, _)| series.starts_with(&labeled))
            .map(|(_, value)| *value)
            .sum::<u64>()
            + self.get(name)
    }
}

/// One `STATS` exchange with the daemon listening at `addr` for node `to`.
fn stats_pull(addr: SocketAddr, to: u32) -> Result<String, String> {
    let deadline = Instant::now() + SCRAPE_TIMEOUT;
    let mut stream = TcpStream::connect_timeout(&addr, SCRAPE_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(SCRAPE_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(SCRAPE_TIMEOUT)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    write_frame(
        &mut stream,
        FrameType::StatsPull,
        NodeId(CLIENT_NODE),
        NodeId(to),
        &[],
    )
    .and_then(|()| stream.flush())
    .map_err(|e| format!("send StatsPull to {addr}: {e}"))?;
    // Another frame may race ahead of the reply on the connection; skip
    // those, bounded by the deadline.
    while Instant::now() < deadline {
        match read_frame(&mut stream) {
            Ok(Some(frame)) if frame.ftype == FrameType::StatsReply => {
                return String::from_utf8(frame.payload)
                    .map_err(|_| format!("{addr}: StatsReply is not UTF-8"));
            }
            Ok(Some(_)) => continue,
            Ok(None) => return Err(format!("{addr} closed before replying to StatsPull")),
            Err(e) => return Err(format!("{addr}: {e}")),
        }
    }
    Err(format!("{addr}: no StatsReply within the deadline"))
}

/// Scrape every daemon of `cluster` once and sum the readings. An error
/// means a daemon is unreachable.
pub fn scrape_cluster(cluster: &Cluster) -> Result<Counters, String> {
    let mut total = Counters::default();
    for proc in &cluster.procs {
        // One registry per process: any of its nodes' listeners serves it.
        let node = *proc
            .nodes
            .first()
            .ok_or_else(|| format!("{} hosts no node", proc.name))?;
        let addr = cluster
            .spec
            .addr_of(node)
            .parse()
            .map_err(|e| format!("node {node} address: {e}"))?;
        let text = stats_pull(addr, node).map_err(|e| format!("scrape {}: {e}", proc.name))?;
        total.merge(&Counters::from_prometheus(&text));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE lhrs_msgs_sent_total counter
lhrs_msgs_sent_total{kind=\"insert\"} 10
lhrs_msgs_sent_total{kind=\"lookup\"} 4
# TYPE lhrs_net_frames_sent_total counter
lhrs_net_frames_sent_total 100
# TYPE lhrs_op_latency_us histogram
lhrs_op_latency_us_bucket{le=\"+Inf\"} 7
";

    const AFTER: &str = "\
lhrs_msgs_sent_total{kind=\"insert\"} 25
lhrs_msgs_sent_total{kind=\"lookup\"} 4
lhrs_msgs_sent_total{kind=\"parity-delta\"} 9
lhrs_net_frames_sent_total 160
lhrs_wal_appends_total 3
not a sample line
lhrs_bad_value_total x
";

    #[test]
    fn delta_between_two_scrapes() {
        let before = Counters::from_prometheus(BEFORE);
        let after = Counters::from_prometheus(AFTER);
        let delta = after.since(&before);
        assert_eq!(delta.get_kind("msgs_sent", "insert"), 15);
        assert_eq!(delta.get_kind("msgs_sent", "lookup"), 0);
        // A series first seen in the later scrape counts from 0.
        assert_eq!(delta.get_kind("msgs_sent", "parity-delta"), 9);
        assert_eq!(delta.get("wal_appends"), 3);
        assert_eq!(delta.get("net_frames_sent"), 60);
        assert_eq!(delta.get_all_kinds("msgs_sent"), 24);
        // Never counted at all reads 0, and so do malformed lines.
        assert_eq!(delta.get("wal_errors"), 0);
        assert_eq!(delta.get("bad_value"), 0);
    }

    #[test]
    fn a_vanished_process_does_not_wrap_the_delta() {
        let before = Counters::from_prometheus(AFTER);
        let after = Counters::from_prometheus(BEFORE);
        assert_eq!(after.since(&before).get("net_frames_sent"), 0);
    }

    #[test]
    fn merging_sums_processes() {
        let mut total = Counters::from_prometheus(BEFORE);
        total.merge(&Counters::from_prometheus(AFTER));
        assert_eq!(total.get_kind("msgs_sent", "insert"), 35);
        assert_eq!(total.get("net_frames_sent"), 260);
        assert_eq!(total.get("wal_appends"), 3);
    }
}
