//! The record stores cost what the paper's storage model says, plus the
//! few bytes beside each cell that the slab layout names: a data record
//! is its cell plus key and rank words, with 4 B per rank for the rank
//! map, and a parity rank is its cell plus `m` key slots.

use lhrs_core::{Config, LhrsFile};
use lhrs_sim::LatencyModel;

/// The preload of the benchmark's `read_small` workload, in the
/// simulator: m 4, k 1, capacity 4,096, 50,000 records of 32 B, acks on,
/// 64 inserts in flight at a time.
#[test]
fn record_stores_stay_within_the_slab_budget() {
    let (m, capacity, records, len) = (4usize, 4096usize, 50_000u64, 32usize);
    let window = 64;
    let mut file = LhrsFile::new(Config {
        group_size: m,
        initial_k: 1,
        bucket_capacity: capacity,
        record_len: len,
        ack_writes: true,
        ack_parity: true,
        latency: LatencyModel::instant(),
        node_pool: 64,
        ..Config::default()
    })
    .unwrap();
    let keys: Vec<u64> = (1..=records).collect();
    for batch in keys.chunks(window) {
        let items = batch.iter().map(|&key| (key, vec![key as u8; len]));
        assert_eq!(file.insert_batch(items).unwrap(), batch.len());
    }
    let r = file.storage_report();
    assert_eq!(r.data_records, records as usize);
    assert_eq!(r.data_bytes, records as usize * len);

    // Ranks are handed out smallest-free-first, so no bucket's ranks
    // outnumber the most records it held at once: its capacity, plus the
    // inserts that reach it while its split is under way.
    let cell_len = len + 4;
    let ranks = |buckets: usize| buckets * (capacity + window);
    let data_budget = r.data_records * (cell_len + 24) + ranks(r.data_buckets) * 4;
    let parity_budget = ranks(r.parity_buckets) * (cell_len + 16 * m);
    assert!(
        r.data_store_bytes <= data_budget,
        "data stores {} B over their budget {} B",
        r.data_store_bytes,
        data_budget
    );
    assert!(
        r.parity_store_bytes <= parity_budget,
        "parity stores {} B over their budget {} B",
        r.parity_store_bytes,
        parity_budget
    );
    // The stores hold at least the cells the model counts.
    assert!(r.data_store_bytes >= r.data_records * cell_len);
    assert!(r.parity_store_bytes >= r.parity_records * cell_len);
    println!(
        "store bytes at read_small's shape: data {} B, parity {} B",
        r.data_store_bytes, r.parity_store_bytes
    );
}
