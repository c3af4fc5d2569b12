//! Machine-readable recovery reports: condense one drill run into the
//! paper's recovery metrics (shards rebuilt, bytes moved, duration,
//! messages by type), ready to land in `bench_out/` as JSON.

use crate::event::Event;
use crate::json::{JsonObject, PRETTY};
use crate::Metrics;

/// A derived summary of the recovery work one [`Metrics`] registry saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// What produced the numbers (drill name).
    pub scenario: String,
    /// Timestamp domain of `duration_us` ("logical-us" or "wall-us").
    pub clock: &'static str,
    /// Recoveries started (`recovery_start` events).
    pub recoveries_started: u64,
    /// Recoveries that completed successfully.
    pub recoveries_completed: u64,
    /// Total shards rebuilt onto spares.
    pub shards_rebuilt: u64,
    /// Bytes installed on spares during rebuilds.
    pub bytes_moved: u64,
    /// Reads served through parity decoding while servers were down.
    pub degraded_reads: u64,
    /// Client retries observed.
    pub retries: u64,
    /// First `RecoveryStart` → last `RecoveryEnd` span in the trace
    /// (0 when the trace saw no complete recovery).
    pub duration_us: u64,
    /// `msgs_sent` counter per message kind, sorted by kind.
    pub messages_by_kind: Vec<(String, u64)>,
    /// Sum over `messages_by_kind`.
    pub total_messages: u64,
}

impl RecoveryReport {
    /// Derive a report from the counters and retained trace of `metrics`.
    pub fn from_metrics(scenario: &str, metrics: &Metrics) -> RecoveryReport {
        let snap = metrics.snapshot();
        let messages_by_kind: Vec<(String, u64)> = snap
            .messages_by_kind()
            .map(|(kind, v)| (kind.to_string(), v))
            .collect();
        let total_messages = snap.total_messages();

        let mut first_start = None;
        let mut last_end = None;
        for ev in metrics.events() {
            match ev.event {
                Event::RecoveryStart { .. } => {
                    first_start.get_or_insert(ev.at_us);
                }
                Event::RecoveryEnd { .. } => last_end = Some(ev.at_us),
                _ => {}
            }
        }
        let duration_us = match (first_start, last_end) {
            (Some(s), Some(e)) => e.saturating_sub(s),
            _ => 0,
        };

        RecoveryReport {
            scenario: scenario.to_string(),
            clock: metrics.clock_label(),
            recoveries_started: metrics.counter("recoveries_started"),
            recoveries_completed: metrics.counter("recoveries_completed"),
            shards_rebuilt: metrics.counter("recovery_shards_rebuilt"),
            bytes_moved: metrics.counter("recovery_bytes_moved"),
            degraded_reads: metrics.counter("degraded_reads"),
            retries: metrics.counter("client_retries"),
            duration_us,
            messages_by_kind,
            total_messages,
        }
    }

    /// Render as a pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut obj = JsonObject::open(&mut out, &PRETTY);
        obj.field("scenario", &self.scenario)
            .field("clock", self.clock)
            .field("recoveries_started", &self.recoveries_started)
            .field("recoveries_completed", &self.recoveries_completed)
            .field("shards_rebuilt", &self.shards_rebuilt)
            .field("bytes_moved", &self.bytes_moved)
            .field("degraded_reads", &self.degraded_reads)
            .field("retries", &self.retries)
            .field("duration_us", &self.duration_us)
            .field("messages_by_kind", self.messages_by_kind.as_slice())
            .field("total_messages", &self.total_messages);
        obj.close();
        out
    }
}

/// A derived summary of one restart drill: how a rebooted bucket got its
/// state back (local WAL replay + Δ-suffix vs full RS rebuild) and what it
/// cost in bytes and messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartReport {
    /// What produced the numbers (drill arm name).
    pub scenario: String,
    /// Timestamp domain of trace timestamps ("logical-us" or "wall-us").
    pub clock: &'static str,
    /// WAL records appended during the run.
    pub wal_appends: u64,
    /// WAL payload bytes appended.
    pub wal_bytes: u64,
    /// Snapshots taken (seeding, periodic, and structural).
    pub wal_snapshots: u64,
    /// WAL append/snapshot errors swallowed by the degrade-don't-abort rule.
    pub wal_errors: u64,
    /// Restarts that completed via log replay + Δ-suffix catch-up.
    pub restart_recoveries: u64,
    /// Restarts that fell back to the full RS rebuild path.
    pub restart_fallbacks: u64,
    /// Catch-ups the restarting bucket itself aborted (inapplicable
    /// Δ-suffix entry, or a wedged handshake past its watchdog).
    pub restart_aborts: u64,
    /// Δ-suffix entries applied by catching-up buckets.
    pub suffix_entries: u64,
    /// Δ-suffix payload bytes applied.
    pub suffix_bytes: u64,
    /// Bytes moved over the network for recovery (suffix pulls and shard
    /// installs both land here — the experiment's headline cost).
    pub recovery_bytes_moved: u64,
    /// Shards rebuilt through the full RS decode path.
    pub recovery_shards_rebuilt: u64,
    /// Ops folded over local snapshots during WAL replay (trace-derived).
    pub replay_ops: u64,
    /// Bytes of logged ops replayed locally (trace-derived).
    pub replay_bytes: u64,
}

impl RestartReport {
    /// Derive a report from the counters and retained trace of `metrics`.
    pub fn from_metrics(scenario: &str, metrics: &Metrics) -> RestartReport {
        let mut replay_ops = 0u64;
        let mut replay_bytes = 0u64;
        for ev in metrics.events() {
            if let Event::WalReplay { ops, bytes, .. } = ev.event {
                replay_ops = replay_ops.saturating_add(ops);
                replay_bytes = replay_bytes.saturating_add(bytes);
            }
        }
        RestartReport {
            scenario: scenario.to_string(),
            clock: metrics.clock_label(),
            wal_appends: metrics.counter("wal_appends"),
            wal_bytes: metrics.counter("wal_bytes"),
            wal_snapshots: metrics.counter("wal_snapshots"),
            wal_errors: metrics.counter("wal_errors"),
            restart_recoveries: metrics.counter("restart_recoveries"),
            restart_fallbacks: metrics.counter("restart_fallbacks"),
            restart_aborts: metrics.counter("restart_aborts"),
            suffix_entries: metrics.counter("restart_suffix_entries"),
            suffix_bytes: metrics.counter("restart_suffix_bytes"),
            recovery_bytes_moved: metrics.counter("recovery_bytes_moved"),
            recovery_shards_rebuilt: metrics.counter("recovery_shards_rebuilt"),
            replay_ops,
            replay_bytes,
        }
    }

    /// Render as a pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut obj = JsonObject::open(&mut out, &PRETTY);
        obj.field("scenario", &self.scenario)
            .field("clock", self.clock)
            .field("wal_appends", &self.wal_appends)
            .field("wal_bytes", &self.wal_bytes)
            .field("wal_snapshots", &self.wal_snapshots)
            .field("wal_errors", &self.wal_errors)
            .field("restart_recoveries", &self.restart_recoveries)
            .field("restart_fallbacks", &self.restart_fallbacks)
            .field("restart_aborts", &self.restart_aborts)
            .field("suffix_entries", &self.suffix_entries)
            .field("suffix_bytes", &self.suffix_bytes)
            .field("recovery_bytes_moved", &self.recovery_bytes_moved)
            .field("recovery_shards_rebuilt", &self.recovery_shards_rebuilt)
            .field("replay_ops", &self.replay_ops)
            .field("replay_bytes", &self.replay_bytes);
        obj.close();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clock;

    #[test]
    fn report_derives_from_counters_and_trace() {
        let m = Metrics::new(Clock::logical());
        m.incr("recoveries_started");
        m.incr("recoveries_completed");
        m.add("recovery_shards_rebuilt", 2);
        m.add("recovery_bytes_moved", 8192);
        m.incr("degraded_reads");
        m.incr_kind("msgs_sent", "insert");
        m.add_kind("msgs_sent", "parity-delta", 3);
        m.trace(
            1_000,
            Event::RecoveryStart {
                group: 0,
                failed: 2,
            },
        );
        m.trace(
            5_500,
            Event::RecoveryEnd {
                group: 0,
                rebuilt: 2,
                ok: true,
            },
        );
        let r = RecoveryReport::from_metrics("unit", &m);
        assert_eq!(r.recoveries_started, 1);
        assert_eq!(r.shards_rebuilt, 2);
        assert_eq!(r.bytes_moved, 8192);
        assert_eq!(r.duration_us, 4_500);
        assert_eq!(r.total_messages, 4);
        assert_eq!(r.clock, "logical-us");
        let json = r.to_json();
        assert!(json.contains("\"shards_rebuilt\": 2"));
        assert!(json.contains("\"parity-delta\": 3"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn restart_report_derives_from_counters_and_trace() {
        let m = Metrics::new(Clock::logical());
        m.add("wal_appends", 40);
        m.add("wal_bytes", 1600);
        m.add("wal_snapshots", 3);
        m.incr("restart_recoveries");
        m.add("restart_suffix_entries", 5);
        m.add("restart_suffix_bytes", 160);
        m.add("recovery_bytes_moved", 160);
        m.trace(
            100,
            Event::WalReplay {
                bucket: 2,
                ops: 12,
                bytes: 480,
            },
        );
        m.trace(
            150,
            Event::WalReplay {
                bucket: 6,
                ops: 3,
                bytes: 96,
            },
        );
        let r = RestartReport::from_metrics("disk-survives", &m);
        assert_eq!(r.wal_appends, 40);
        assert_eq!(r.restart_recoveries, 1);
        assert_eq!(r.restart_fallbacks, 0);
        assert_eq!(r.suffix_entries, 5);
        assert_eq!(r.replay_ops, 15);
        assert_eq!(r.replay_bytes, 576);
        let json = r.to_json();
        assert!(json.contains("\"restart_recoveries\": 1"));
        assert!(json.contains("\"replay_ops\": 15"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_metrics_yield_a_zero_report() {
        let m = Metrics::disabled();
        let r = RecoveryReport::from_metrics("empty", &m);
        assert_eq!(r.shards_rebuilt, 0);
        assert_eq!(r.duration_us, 0);
        assert!(r.messages_by_kind.is_empty());
        assert!(r.to_json().contains("\"messages_by_kind\": {}"));
    }
}
