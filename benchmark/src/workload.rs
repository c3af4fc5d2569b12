//! The four workloads: what each offers the file, on which cluster shape,
//! and why it exists.

use lhrs_core::{Config, FsyncPolicy};

use crate::cluster::ProcPlan;
use crate::opstream::Mix;

/// How the nodes of a cluster are spread over `lhrs-netd` processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `netd-a` hosts the coordinator and the even server ids, `netd-b` the
    /// odd ones: every parity group has members in both processes.
    EvenOdd,
    /// `netd-victim` hosts nodes 2 and 3 — bucket 0 and the first parity
    /// column of its group under `ClusterSpec::layout()` — and `netd-main`
    /// everything else.
    Victim,
}

/// The name of the process [`Shape::Victim`] sets apart to be killed.
pub const VICTIM: &str = "netd-victim";

/// What ends the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// The window is `--seconds` long.
    Time,
    /// The window is a fixed number of operations, `ops_per_second` for
    /// each second of `--seconds`, so that a file that grows during the
    /// window ends at the same size on every commit.
    Ops { ops_per_second: u64 },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Parity buckets per group.
    pub k: usize,
    /// Bytes per record payload (`record_len`).
    pub payload_len: usize,
    pub bucket_capacity: usize,
    /// Keys inserted during set-up.
    pub preload: u32,
    pub mix: Mix,
    /// Callers of the closed loop.
    pub window: usize,
    /// `wal_fsync batch` and `--data-dir`.
    pub durable: bool,
    /// Nodes in the spec (coordinator, client and the server pool).
    pub nodes: u32,
    pub shape: Shape,
    pub extent: Extent,
    /// `SIGKILL` [`VICTIM`] after the measured window and ride through the
    /// recovery.
    pub kill: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_small",
        why: "32-byte records, 95% lookups, window 64: per-message cost (wire, frame, transport, host dispatch, LH* addressing) is nearly all the work; coding and logging must not move it",
        k: 1,
        payload_len: 32,
        bucket_capacity: 4096,
        preload: 50_000,
        mix: Mix {
            lookup_pct: 95,
            update_pct: 5,
            insert_pct: 0,
        },
        window: 64,
        durable: false,
        nodes: 40,
        shape: Shape::EvenOdd,
        extent: Extent::Time,
        kill: false,
    },
    Workload {
        name: "write_large_k2",
        why: "1 KiB records, 90% updates, k=2, window 64: every update ships a 1 KiB delta to two parity columns, one through the GF multiply path; rs, gf, parity buckets and payload copies do most of the work",
        k: 2,
        payload_len: 1024,
        bucket_capacity: 2048,
        preload: 20_000,
        mix: Mix {
            lookup_pct: 10,
            update_pct: 90,
            insert_pct: 0,
        },
        window: 64,
        durable: false,
        nodes: 48,
        shape: Shape::EvenOdd,
        extent: Extent::Time,
        kill: false,
    },
    Workload {
        name: "durable_grow",
        why: "WAL with batched fsync on a real disk, 75% inserts into a file that starts empty and splits all through the window: wal append and group commit dominate, and LH* growth is inside the measurement",
        k: 1,
        payload_len: 256,
        bucket_capacity: 4096,
        preload: 0,
        mix: Mix {
            lookup_pct: 25,
            update_pct: 0,
            insert_pct: 75,
        },
        window: 64,
        durable: true,
        nodes: 64,
        shape: Shape::EvenOdd,
        extent: Extent::Ops {
            ops_per_second: 10_000,
        },
        kill: false,
    },
    Workload {
        name: "kill_recover",
        why: "window 1, k=2: unloaded latency, set by transport wake-ups per hop; then kill -9 of bucket 0 and a parity column: probing, shard transfer and a two-erasure RS decode stand between client and data",
        k: 2,
        payload_len: 256,
        bucket_capacity: 4096,
        preload: 50_000,
        mix: Mix {
            lookup_pct: 50,
            update_pct: 50,
            insert_pct: 0,
        },
        window: 1,
        durable: false,
        nodes: 40,
        shape: Shape::Victim,
        extent: Extent::Time,
        kill: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The file configuration every process of this workload's cluster
    /// parses. Protocol timers are pinned: the 10 ms default client
    /// timeout sits below the TCP path's tail latency, so default timers
    /// would measure spurious retries.
    pub fn config(&self) -> Config {
        Config {
            group_size: 4,
            initial_k: self.k,
            bucket_capacity: self.bucket_capacity,
            record_len: self.payload_len,
            ack_writes: true,
            ack_parity: true,
            client_timeout_us: 200_000,
            client_retries: 3,
            retry_backoff_cap_us: 400_000,
            delta_retransmit_us: 200_000,
            probe_timeout_us: 100_000,
            coord_retransmit_us: 150_000,
            coord_retries: 20,
            client_window: self.window,
            // Only read by daemons launched with `--data-dir`.
            wal_fsync: FsyncPolicy::Batch,
            // What `ClusterSpec::parse` derives from the node list.
            node_pool: self.nodes as usize,
            ..Config::default()
        }
    }

    /// Which process hosts which node.
    pub fn procs(&self) -> Vec<ProcPlan> {
        let servers = 2..self.nodes;
        match self.shape {
            Shape::EvenOdd => vec![
                ProcPlan {
                    name: "netd-a",
                    nodes: std::iter::once(0)
                        .chain(servers.clone().filter(|id| id % 2 == 0))
                        .collect(),
                },
                ProcPlan {
                    name: "netd-b",
                    nodes: servers.filter(|id| id % 2 == 1).collect(),
                },
            ],
            Shape::Victim => vec![
                ProcPlan {
                    name: "netd-main",
                    nodes: std::iter::once(0)
                        .chain(servers.filter(|id| *id >= 4))
                        .collect(),
                },
                ProcPlan {
                    name: VICTIM,
                    nodes: vec![2, 3],
                },
            ],
        }
    }

    /// The process that hosts node `id` (the client's own node aside).
    pub fn proc_of(&self, id: u32) -> Option<&'static str> {
        self.procs()
            .into_iter()
            .find(|p| p.nodes.contains(&id))
            .map(|p| p.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::fresh_spec;

    #[test]
    fn every_node_but_the_client_is_hosted_exactly_once() {
        for w in &WORKLOADS {
            let mut hosted: Vec<u32> = w.procs().into_iter().flat_map(|p| p.nodes).collect();
            hosted.sort_unstable();
            let expect: Vec<u32> = std::iter::once(0).chain(2..w.nodes).collect();
            assert_eq!(hosted, expect, "{}", w.name);
        }
    }

    #[test]
    fn the_victim_hosts_bucket_zero_and_its_first_parity_column() {
        let w = find("kill_recover").unwrap();
        let spec = fresh_spec(w.config(), w.nodes).unwrap();
        let (bucket0, parity, _) = spec.layout();
        assert_eq!(w.proc_of(bucket0.0), Some(VICTIM));
        assert_eq!(w.proc_of(parity[0].0), Some(VICTIM));
        assert_eq!(w.proc_of(parity[1].0), Some("netd-main"));
        assert_eq!(w.proc_of(0), Some("netd-main"));
    }

    #[test]
    fn rendered_config_pins_the_timers() {
        let w = find("durable_grow").unwrap();
        let spec = fresh_spec(w.config(), w.nodes).unwrap();
        let text = spec.render();
        for line in [
            "config client_timeout_us 200000",
            "config client_retries 3",
            "config retry_backoff_cap_us 400000",
            "config delta_retransmit_us 200000",
            "config probe_timeout_us 100000",
            "config coord_retransmit_us 150000",
            "config coord_retries 20",
            "config ack_writes true",
            "config ack_parity true",
            "config group_size 4",
            "config wal_fsync batch",
            "config record_len 256",
        ] {
            assert!(text.contains(line), "missing {line:?} in\n{text}");
        }
    }
}
