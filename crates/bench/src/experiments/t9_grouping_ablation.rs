//! **T9 — Grouping-binding ablation: insertion-bound (LH\*g) vs
//! bucket-bound (LH\*RS) record groups.**
//!
//! The design decision LH\*RS flipped relative to its predecessor:
//!
//! * *Insertion-bound* groups (LH\*g): a record keeps its `(g, r)` stamp
//!   forever, so **splits cost zero parity messages** — but group members
//!   scatter across the file, so reconstructing one record costs a **scan
//!   of the whole parity file** plus key searches that may land anywhere,
//!   and bucket recovery cannot bulk-read from a fixed partner set.
//! * *Bucket-bound* groups (LH\*RS): every split retracts movers from the
//!   old group's parity and enrols them in the new one (**2k batch
//!   messages per split**) — but all recovery partners sit in one known
//!   group of `m + k` servers, enabling one-lookup record location and
//!   bulk bucket rebuild, and generalising beyond k = 1.
//!
//! Both sides run the same workload at 1-availability (XOR parity).

use lhrs_baselines::GroupedLh;
use lhrs_core::{Config, LhrsFile};
use lhrs_sim::LatencyModel;

use crate::table::f2;
use crate::{payload_of, uniform_keys, Table};

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let n = 2000usize;
    let m = 4usize;
    let keys = uniform_keys(n, 0x79);

    // --- insertion-bound (LH*g) ---
    let mut g = GroupedLh::new(m, 32, 64, 4096, LatencyModel::default());
    for &key in &keys {
        g.insert(key, payload_of(key, 64));
    }
    let g_load = g.stats();
    let g_splits = g_load.count("split");
    // Record recovery cost.
    let before = g.stats();
    let got = g.recover_record(keys[123]);
    assert_eq!(got.unwrap(), payload_of(keys[123], 64));
    let g_rec = g.stats().since(&before);

    // --- bucket-bound (LH*RS, k = 1) ---
    let cfg = Config {
        group_size: m,
        initial_k: 1,
        bucket_capacity: 32,
        record_len: 64,
        latency: LatencyModel::default(),
        node_pool: 4096,
        ..Config::default()
    };
    let mut rs = LhrsFile::new(cfg).expect("config");
    for &key in &keys {
        rs.insert(key, payload_of(key, 64)).expect("insert");
    }
    let rs_load = rs.stats();
    let rs_splits = rs_load.count("split");
    // Record recovery (degraded read) cost: crash the bucket, read the key.
    let victim = keys[123];
    let bucket = rs.address_of(victim);
    rs.crash_data_bucket(bucket);
    let before = rs.stats();
    let got = rs.lookup(victim).expect("degraded lookup");
    assert_eq!(got.unwrap(), payload_of(victim, 64));
    let rs_rec = rs.stats().since(&before);
    let rs_rec_record_only = rs_rec.count("find-record")
        + rs_rec.count("find-record-reply")
        + rs_rec.count("read-cell")
        + rs_rec.count("cell-data")
        + 2; // suspect + reply

    let mut table = Table::new(
        format!("T9: grouping-binding ablation, m = {m}, XOR parity (k = 1), {n} loads"),
        &["metric", "insertion-bound (LH*g)", "bucket-bound (LH*RS)"],
    );
    table.row(vec![
        "splits during load".into(),
        g_splits.to_string(),
        rs_splits.to_string(),
    ]);
    table.row(vec![
        "parity msgs from splits".into(),
        "0 (by construction)".into(),
        format!("{} (2k per split)", rs_load.count("parity-batch")),
    ]);
    table.row(vec![
        "total load msgs/insert".into(),
        f2(g_load.total_messages() as f64 / n as f64),
        f2(rs_load.total_messages() as f64 / n as f64),
    ]);
    table.row(vec![
        "record-recovery msgs".into(),
        format!(
            "{} (scan {} parity buckets + {} member fetches)",
            g_rec.total_messages(),
            g.parity_buckets(),
            g_rec.count("fetch-cell"),
        ),
        format!("{rs_rec_record_only} (1 parity probe + m cell reads)"),
    ]);
    table.row(vec![
        "recovery partner set".into(),
        "entire file (members scatter)".into(),
        format!("one group of {} servers", m + 1),
    ]);
    table.row(vec![
        "max availability".into(),
        "1 (single XOR parity)".into(),
        "k (Reed-Solomon, any k)".into(),
    ]);
    table.note("record recovery for insertion-bound grouping grows with the parity file (≈ M/m scan messages); bucket-bound is O(m), flat in file size — why LH*RS re-bound groups to buckets");
    table.note("the split-cost column is the price LH*RS pays for that: 2k parity batches per split (bulk, one message per parity bucket)");
    vec![table]
}
