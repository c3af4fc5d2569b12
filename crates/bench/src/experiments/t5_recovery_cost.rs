//! **T5 — Bucket recovery cost vs failure count.**
//!
//! Rebuilding f ≤ k failed buckets of one group costs: a probe round over
//! the group, one shard transfer per surviving column consulted, the
//! decode, and one install per spare — messages ∝ group size, bytes ∝
//! bucket contents, with simulated wall-clock dominated by the transfers.

use lhrs_baselines::{ReplicatedLh, Scheme};
use lhrs_core::{Config, LhrsFile};
use lhrs_sim::LatencyModel;

use crate::table::f2;
use crate::{payload_of, uniform_keys, Table};

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "T5: group recovery cost vs failures f (m = 4, b = 32, 64 B payloads)",
        &[
            "k", "f", "mix", "msgs", "probe", "xfer", "install", "KB moved", "sim ms",
        ],
    );
    for &k in &[1usize, 2, 3] {
        for f in 1..=k {
            for &(mix, parity_in_mix) in &[("data", 0usize), ("mixed", 1usize)] {
                if parity_in_mix >= f && mix == "mixed" {
                    continue; // mixed needs at least one data + one parity
                }
                let cfg = Config {
                    group_size: 4,
                    initial_k: k,
                    bucket_capacity: 32,
                    record_len: 64,
                    latency: LatencyModel::default(),
                    node_pool: 2048,
                    ..Config::default()
                };
                let mut file = LhrsFile::new(cfg).expect("config");
                let keys = uniform_keys(2000, 0x75 + (k * 10 + f) as u64);
                file.insert_batch(keys.iter().map(|&key| (key, payload_of(key, 64))))
                    .expect("bulk");

                let group = 1u64;
                let data_kills = f - parity_in_mix;
                for d in 0..data_kills {
                    file.crash_data_bucket(group * 4 + d as u64);
                }
                for q in 0..parity_in_mix {
                    file.crash_parity_bucket(group, q);
                }
                let mut duration = 0;
                let cost = file.cost_of(|fl| {
                    let report = fl.check_group(group);
                    assert!(report.recovered, "recovery must succeed: {report:?}");
                    duration = report.duration_us;
                });
                table.row(vec![
                    k.to_string(),
                    f.to_string(),
                    mix.to_string(),
                    cost.total_messages().to_string(),
                    (cost.count("probe") + cost.count("probe-ack")).to_string(),
                    (cost.count("transfer-req") + cost.count("transfer-data")).to_string(),
                    (cost.count("install") + cost.count("install-ack")).to_string(),
                    f2(cost.total_bytes() as f64 / 1024.0),
                    f2(duration as f64 / 1000.0),
                ]);
            }
        }
    }
    table.note(
        "mix = which shards were killed: 'data' = data buckets only, 'mixed' = data + parity",
    );
    table.note("expected shape: transfers flat in f (always m shards consulted); installs and bytes grow with f; k only gates how large f may get");

    // Bucket-size sweep: messages stay flat, bytes and time scale with b.
    let mut sweep = Table::new(
        "T5b: recovery cost vs bucket size b (m = 4, k = 2, f = 1, 64 B payloads)",
        &["b", "records lost", "msgs", "KB moved", "sim ms"],
    );
    for &b in &[8usize, 32, 128] {
        let cfg = Config {
            group_size: 4,
            initial_k: 2,
            bucket_capacity: b,
            record_len: 64,
            latency: LatencyModel::default(),
            node_pool: 2048,
            ..Config::default()
        };
        let mut file = LhrsFile::new(cfg).expect("config");
        let keys = uniform_keys(40 * b, 0x75B + b as u64);
        file.insert_batch(keys.iter().map(|&key| (key, payload_of(key, 64))))
            .expect("bulk");
        let group = 1u64;
        let victim = group * 4;
        let lost = (0..40 * b as u64)
            .filter(|i| file.address_of(keys[*i as usize]) == victim)
            .count();
        file.crash_data_bucket(victim);
        let mut duration = 0;
        let cost = file.cost_of(|fl| {
            let report = fl.check_group(group);
            assert!(report.recovered);
            duration = report.duration_us;
        });
        sweep.row(vec![
            b.to_string(),
            lost.to_string(),
            cost.total_messages().to_string(),
            f2(cost.total_bytes() as f64 / 1024.0),
            f2(duration as f64 / 1000.0),
        ]);
    }
    sweep.note("expected shape: message count flat in b (bulk shard transfers), bytes ∝ records per bucket, time follows bytes through the bandwidth term");

    // Cross-scheme comparison: rebuilding ONE lost server.
    let mut schemes = Table::new(
        "T5c: one-server rebuild across schemes (b = 32, 64 B payloads, ~2000 records)",
        &[
            "scheme",
            "partners read",
            "msgs",
            "KB moved",
            "needs decode",
        ],
    );
    {
        let mut f = ReplicatedLh::mirror(32, 2048, LatencyModel::default());
        for &key in uniform_keys(2000, 0x75C).iter() {
            f.insert(key, payload_of(key, 64));
        }
        f.crash_replica(3, 0);
        let before = f.stats();
        assert!(f.recover_replica(3, 0));
        let cost = f.stats().since(&before);
        schemes.row(vec![
            "LH*m (copy)".into(),
            "1 (the mirror)".into(),
            cost.total_messages().to_string(),
            f2(cost.total_bytes() as f64 / 1024.0),
            "no".into(),
        ]);
    }
    {
        let mut f = ReplicatedLh::stripe(4, 32, 4096, LatencyModel::default());
        for &key in uniform_keys(2000, 0x75C).iter() {
            f.insert(key, payload_of(key, 64));
        }
        f.crash_replica(3, 1);
        let before = f.stats();
        assert!(f.recover_replica(3, 1));
        let cost = f.stats().since(&before);
        schemes.row(vec![
            "LH*s (XOR)".into(),
            "m = 4 stripe peers".into(),
            cost.total_messages().to_string(),
            f2(cost.total_bytes() as f64 / 1024.0),
            "XOR only".into(),
        ]);
    }
    for k in [1usize, 2] {
        let cfg = Config {
            group_size: 4,
            initial_k: k,
            bucket_capacity: 32,
            record_len: 64,
            latency: LatencyModel::default(),
            node_pool: 2048,
            ..Config::default()
        };
        let mut file = LhrsFile::new(cfg).expect("config");
        for &key in uniform_keys(2000, 0x75C).iter() {
            file.insert(key, payload_of(key, 64)).expect("insert");
        }
        file.crash_data_bucket(4);
        let cost = file.cost_of(|fl| {
            let rep = fl.check_group(1);
            assert!(rep.recovered);
        });
        schemes.row(vec![
            format!("LH*RS k={k} (RS decode)"),
            "m = 4 group shards".into(),
            cost.total_messages().to_string(),
            f2(cost.total_bytes() as f64 / 1024.0),
            if k == 1 {
                "XOR only".into()
            } else {
                "GF(2^8) decode".into()
            },
        ]);
    }
    schemes.row(vec![
        "LH*g ins-bound (analytic)".into(),
        "entire file".into(),
        "≈ 0.7·b·(2m−1) + M_parity".into(),
        "-".into(),
        "XOR only".into(),
    ]);
    schemes.note("LH*m recovers with one bulk copy but pays 100% storage; LH*s and LH*RS read m partners; insertion-bound LH*g (predecessor §3.3 formula) must scan the parity file and chase scattered members — the locality LH*RS's bucket-bound groups restore");
    vec![table, sweep, schemes]
}
