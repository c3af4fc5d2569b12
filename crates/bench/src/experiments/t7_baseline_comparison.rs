//! **T7 — Scheme comparison: LH\*, LH\*m, LH\*s, LH\*g, LH\*RS.**
//!
//! The positioning table: for the same workload on the same simulator,
//! what does each high-availability approach pay in servers, storage,
//! insert messages, and search messages — and what does it buy in
//! availability? LH\*RS's claim is the best overhead/availability frontier
//! with LH\*-grade search cost.

use lhrs_baselines::{GroupedLh, LhrsScheme, ReplicatedLh, Scheme};
use lhrs_core::Config;
use lhrs_sim::LatencyModel;

use crate::table::{f2, f4};
use crate::{payload_of, uniform_keys, Table};

const N_LOAD: usize = 2000;
const N_MEASURE: usize = 200;
const PAYLOAD: usize = 64;

struct Row {
    name: &'static str,
    servers: u64,
    data_buckets: u64,
    byte_overhead: f64,
    insert_msgs: f64,
    search_msgs: f64,
    tolerates: usize,
    availability: f64,
}

fn measure(scheme: &mut dyn Scheme, seed: u64) -> Row {
    let keys = uniform_keys(N_LOAD + 2 * N_MEASURE, seed);
    for &key in &keys[..N_LOAD] {
        scheme.insert(key, payload_of(key, PAYLOAD));
    }
    // Warm the client image.
    for &key in &keys[..100] {
        scheme.lookup(key);
    }
    // Steady-state inserts (strip structural kinds).
    let before = scheme.stats();
    for &key in &keys[N_LOAD..N_LOAD + N_MEASURE] {
        scheme.insert(key, payload_of(key, PAYLOAD));
    }
    let cost = scheme.stats().since(&before);
    let structural: u64 = [
        "overflow",
        "split",
        "split-load",
        "split-done",
        "init-data",
        "init-parity",
        "parity-batch",
    ]
    .iter()
    .map(|k| cost.count(k))
    .sum();
    let insert_msgs = (cost.total_messages() - structural) as f64 / N_MEASURE as f64;

    let before = scheme.stats();
    for &key in &keys[..N_MEASURE] {
        assert!(scheme.lookup(key).is_some());
    }
    let cost = scheme.stats().since(&before);
    let search_msgs = cost.total_messages() as f64 / N_MEASURE as f64;

    let (primary, redundant) = scheme.storage_bytes();
    Row {
        name: scheme.name(),
        servers: scheme.total_servers(),
        data_buckets: scheme.data_buckets(),
        byte_overhead: redundant as f64 / primary as f64,
        insert_msgs,
        search_msgs,
        tolerates: scheme.tolerates(),
        availability: scheme.availability(0.99),
    }
}

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let latency = LatencyModel::instant();
    let cap = 32usize;
    let pool = 4096usize;
    let lhrs_cfg = |k: usize| Config {
        group_size: 4,
        initial_k: k,
        bucket_capacity: cap,
        record_len: PAYLOAD,
        latency,
        node_pool: pool,
        ..Config::default()
    };

    let rows = vec![
        measure(&mut ReplicatedLh::plain(cap, pool, latency), 0x77),
        measure(&mut ReplicatedLh::mirror(cap, pool, latency), 0x77),
        measure(&mut ReplicatedLh::stripe(4, cap, pool, latency), 0x77),
        measure(&mut GroupedLh::new(4, cap, PAYLOAD, pool, latency), 0x77),
        measure(&mut LhrsScheme::new("LH*g (RS k=1)", lhrs_cfg(1)), 0x77),
        measure(&mut LhrsScheme::new("LH*RS k=2", lhrs_cfg(2)), 0x77),
        measure(&mut LhrsScheme::new("LH*RS k=3", lhrs_cfg(3)), 0x77),
    ];

    let mut table = Table::new(
        format!(
            "T7: scheme comparison — {N_LOAD} loads + {N_MEASURE} measured ops, {PAYLOAD} B payloads, b = {cap}, m = 4, p = 0.99"
        ),
        &[
            "scheme",
            "servers",
            "M",
            "byte-ovh",
            "ins msg",
            "srch msg",
            "tolerates",
            "P(file up)",
        ],
    );
    for r in rows {
        table.row(vec![
            r.name.to_string(),
            r.servers.to_string(),
            r.data_buckets.to_string(),
            f2(r.byte_overhead),
            f2(r.insert_msgs),
            f2(r.search_msgs),
            r.tolerates.to_string(),
            f4(r.availability),
        ]);
    }
    table.note("expected shape: LH* cheapest but P→0; LH*m pays 100% storage + 2-msg inserts; LH*s pays 2m-msg searches; LH*RS holds 2-msg searches at k/m overhead with tunable k");
    vec![table]
}
