//! **T10 — Retry overhead vs message loss rate.**
//!
//! The paper's cost model assumes a reliable network; the hardened stack
//! keeps that cost *exactly* on a clean network (timers are armed and
//! cancelled, never sent) and pays for reliability only when faults fire.
//! This experiment measures the per-operation message surcharge of the
//! retransmission machinery (client retry, Go-Back-N Δ resend, parity
//! acks, coordinator re-probes) as the random loss rate rises, against the
//! acked-mode baseline of `1 + 2k` messages per insert.

use lhrs_core::{Config, FaultPlan, LhrsFile};
use lhrs_sim::LatencyModel;

use crate::table::f2;
use crate::{payload_of, uniform_keys, Table};

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "T10: retry overhead vs loss rate (m = 4, k = 2, acked writes + parity)",
        &[
            "loss %",
            "msgs/op",
            "overhead %",
            "lost",
            "suspects",
            "ops failed",
        ],
    );
    let n = 400usize;
    let mut baseline = None;
    for &permille in &[0u64, 5, 10, 30, 50] {
        let cfg = Config {
            group_size: 4,
            initial_k: 2,
            bucket_capacity: 32,
            record_len: 64,
            ack_writes: true,
            ack_parity: true,
            latency: LatencyModel::instant(),
            node_pool: 2048,
            ..Config::default()
        };
        let mut file = LhrsFile::new(cfg).expect("config");
        // Warm past the first splits so steady-state costs dominate.
        let warm = uniform_keys(200, 0xA0);
        file.insert_batch(warm.iter().map(|&k| (k, payload_of(k, 32))))
            .expect("warm");
        if permille > 0 {
            file.set_fault_plan(FaultPlan::new(permille).drop_permille(permille));
        }
        let keys = uniform_keys(n, 0xB7 + permille);
        let mut failed = 0usize;
        let cost = file.cost_of(|f| {
            for &key in &keys {
                if f.insert(key, payload_of(key, 32)).is_err() {
                    failed += 1;
                }
            }
        });
        file.clear_fault_plan();
        file.verify_integrity().expect("parity exact after loss");
        let per_op = cost.total_messages() as f64 / n as f64;
        let base = *baseline.get_or_insert(per_op);
        table.row(vec![
            f2(permille as f64 / 10.0),
            f2(per_op),
            f2((per_op / base - 1.0) * 100.0),
            cost.counter("fault_dropped", "").to_string(),
            cost.count("suspect").to_string(),
            failed.to_string(),
        ]);
    }
    table.note("baseline (0 % loss) is the paper's acked insert cost: 1 + 2k messages plus split surcharge — the fault machinery is free when the network is clean");
    table.note("parity verified exact after every run: retransmission never double-applies a Δ");
    vec![table]
}
