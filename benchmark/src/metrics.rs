//! The benchmark's metric tables: every name the driver prints, with its
//! unit, its direction and — for end-to-end metrics — the share of the
//! parent's median by which it may worsen. `BENCHMARK.json` is rendered
//! from these tables (`lhrs-benchmark spec`) and a test keeps the
//! committed file equal to them.

use crate::json::Json;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer. Layers are this repository's modules.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // lh
    layer("lh.address_ns", "ns", Lower),
    layer("lh.forwards_per_kop", "1/kop", Lower),
    // core.wire
    layer("wire.encode_ns_per_op", "ns", Lower),
    layer("wire.decode_ns_per_op", "ns", Lower),
    layer("wire.bytes_per_op", "B", Lower),
    // net.frame
    layer("frame.encode_ns_per_op", "ns", Lower),
    layer("frame.decode_ns_per_op", "ns", Lower),
    // net.transport
    layer("transport.frames_per_op", "count", Lower),
    layer("transport.bytes_per_op", "B", Lower),
    layer("transport.reconnects", "count", Lower),
    layer("transport.send_drops", "count", Lower),
    layer("transport.decode_errors", "count", Lower),
    layer("transport.cpu_ns_per_op", "ns", Lower),
    layer("transport.ctx_switches_per_op", "count", Lower),
    // net.host
    layer("host.msgs_per_op", "count", Lower),
    layer("host.delta_batch_fanin", "count", Higher),
    layer("host.remote_delta_share", "share", Higher),
    layer("host.timer_fires_per_kop", "1/kop", Lower),
    layer("host.loopback_ns_per_op", "ns", Lower),
    layer("host.dispatch_ns_per_op", "ns", Lower),
    // net.client / core.client
    layer("client.handle_ns_per_op", "ns", Lower),
    layer("client.retries_per_kop", "1/kop", Lower),
    layer("client.escalations", "count", Lower),
    layer("client.window_full_stalls_per_kop", "1/kop", Lower),
    layer("client.inflight_timeouts", "count", Lower),
    layer("client.stale_replies_dropped", "count", Lower),
    layer("client.read_p99_us", "us", Lower),
    layer("client.write_p99_us", "us", Lower),
    layer("client.recovery_s", "s", Lower),
    layer("client.post_recovery_ops_per_s", "1/s", Higher),
    // core.data_bucket
    layer("data_bucket.read_ns", "ns", Lower),
    layer("data_bucket.write_ns", "ns", Lower),
    layer("data_bucket.handle_ns_per_op", "ns", Lower),
    layer("data_bucket.degraded_reads", "count", Lower),
    // core.parity_bucket
    layer("parity_bucket.handle_ns_per_op", "ns", Lower),
    layer("parity_bucket.self_ns_per_op", "ns", Lower),
    layer("parity_bucket.acks_per_op", "count", Lower),
    // rs / gf
    layer("rs.delta_ns_per_op", "ns", Lower),
    layer("rs.reconstruct_mb_per_s", "MB/s", Higher),
    layer("gf.xor_mb_per_s", "MB/s", Higher),
    layer("gf.mul_add_mb_per_s", "MB/s", Higher),
    // wal / core.storage
    layer("wal.appends_per_op", "count", Lower),
    layer("wal.ops_per_fsync", "count", Higher),
    layer("wal.snapshots", "count", Lower),
    layer("wal.bytes_per_user_byte", "B/B", Lower),
    layer("wal.disk_bytes_per_user_byte", "B/B", Lower),
    layer("wal.errors", "count", Lower),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.sync_ns", "ns", Lower),
    // core.coordinator
    layer("coordinator.handle_ns_per_op", "ns", Lower),
    layer("coordinator.splits", "count", Lower),
    layer("coordinator.overflow_reports", "count", Lower),
    layer("coordinator.registry_broadcasts", "count", Lower),
    layer("coordinator.recoveries_completed", "count", Lower),
    layer("coordinator.recovery_shards", "count", Lower),
    layer("coordinator.recovery_bytes_moved", "B", Lower),
    layer("coordinator.recovery_detect_s", "s", Lower),
    layer("coordinator.recovery_rebuild_s", "s", Lower),
    // the budget
    layer("budget.walk_ns_per_op", "ns", Lower),
    layer("budget.explained_share", "share", Higher),
    layer("trace.ops_per_s", "1/s", Higher),
    layer("trace.cpu_us_per_op", "us", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans", "count", Higher),
    layer("trace.walk_ops", "count", Higher),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn well_formed_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(well_formed_name(name), "{name}");
            assert!(well_formed_unit(unit), "{name}: {unit}");
            assert!(names.insert(name), "{name} used twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().render_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_what_the_tables_render() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&text).unwrap(),
            benchmark_json(),
            "regenerate with `lhrs-benchmark spec > BENCHMARK.json`"
        );
    }
}
