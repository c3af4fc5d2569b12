//! Quickstart: create an LH*RS file, store data, survive a failure.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lhrs_repro::prelude::*;

/// Workload written against the unified [`KvClient`] trait: the same code
/// drives the in-process simulator here and a real TCP cluster through
/// `NetClient` (see `examples/net_cluster.rs`).
fn ingest<C: KvClient>(client: &mut C, keys: u64) -> u64 {
    let mut stored = 0;
    for key in 0..keys {
        let payload = format!("record number {key}").into_bytes();
        if client.insert(lhrs_lh::scramble(key), payload).is_ok() {
            stored += 1;
        }
    }
    stored
}

fn main() {
    // An LH*RS file: bucket groups of m = 4 data buckets, each protected by
    // k = 2 Reed-Solomon parity buckets → any 2 server losses per group are
    // harmless. Fields left out keep their defaults; `LhrsFile::new` runs
    // `Config::validate` and rejects invalid combinations up front.
    let cfg = Config {
        group_size: 4,
        initial_k: 2,
        bucket_capacity: 32,
        record_len: 128,
        ..Config::default()
    };
    let mut file = LhrsFile::new(cfg).expect("valid configuration");

    // Insert records; the file splits and spreads over more (simulated)
    // servers automatically, with constant per-op messaging.
    let stored = ingest(&mut file, 2_000);
    println!(
        "loaded {stored} records into M = {} data buckets across {} groups (k = {})",
        file.bucket_count(),
        file.group_count(),
        file.k_file(),
    );

    // Ordinary reads cost ~2 messages each, no matter how large the file got.
    let key = lhrs_lh::scramble(1234);
    let value = file.lookup(key).expect("lookup").expect("present");
    println!("lookup(1234) -> {:?}", String::from_utf8_lossy(&value));

    // Kill the server holding this record's bucket plus a second member of
    // its group — within the availability level — and read straight through
    // the failure.
    let bucket = file.address_of(key);
    let group = bucket / 4;
    let sibling = group * 4 + (bucket + 1) % 4;
    file.crash_data_bucket(bucket);
    file.crash_data_bucket(sibling);
    println!("crashed data buckets {bucket} and {sibling}");

    let value = file
        .lookup(key)
        .expect("degraded lookup")
        .expect("still readable");
    println!(
        "degraded lookup(1234) -> {:?} (served from parity, rebuild running)",
        String::from_utf8_lossy(&value)
    );

    // The coordinator rebuilt both buckets onto hot spares in the background.
    file.verify_integrity()
        .expect("parity consistent after recovery");
    println!("integrity verified after recovery ✔");

    // Observability is built in: counters, latency histograms, and a
    // structured trace, all under the simulator's logical clock.
    let snap = file.metrics().snapshot();
    println!(
        "splits: {}, recoveries: {} (shards rebuilt: {}), degraded reads: {}",
        snap.counter("splits_completed", ""),
        snap.counter("recoveries_completed", ""),
        snap.counter("recovery_shards_rebuilt", ""),
        snap.counter("degraded_reads", ""),
    );
    let report = RecoveryReport::from_metrics("quickstart", file.metrics());
    println!("recovery report: {}", report.to_json());

    // Message accounting — the paper's primary metric — is built in too.
    let stats = file.stats();
    println!(
        "total network messages: {} ({} kinds tracked)",
        stats.total_messages(),
        stats.messages_by_kind().count()
    );
}
