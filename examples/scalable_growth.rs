//! Scalable availability in action: watch k rise with the file so that
//! file-level availability stays flat while a fixed-k file would decay.
//!
//! ```sh
//! cargo run --release --example scalable_growth
//! ```

use lhrs_core::availability::{file_availability, group_availability};
use lhrs_core::{Config, LhrsFile, UpgradeMode};
use lhrs_obs::Event;
use lhrs_sim::LatencyModel;

fn main() {
    let p = 0.99; // per-server availability
    let mut file = LhrsFile::new(Config {
        group_size: 4,
        initial_k: 1,
        scale_thresholds: vec![8, 48, 200],
        upgrade_mode: UpgradeMode::Eager,
        bucket_capacity: 32,
        record_len: 64,
        latency: LatencyModel::instant(),
        node_pool: 8192,
        ..Config::default()
    })
    .expect("config");

    println!("growing a file under the rule k: 1 → 2 (M>8) → 3 (M>48) → 4 (M>200), p = {p}");
    println!(
        "{:>8} {:>4} {:>8} {:>10} {:>10}",
        "M", "k", "parity", "P(scaled)", "P(k=1)"
    );

    let mut key = 0u64;
    for target in [4u64, 8, 16, 32, 64, 128, 256] {
        while file.bucket_count() < target {
            file.insert(lhrs_lh::scramble(key), vec![0xAB; 64])
                .expect("insert");
            key += 1;
        }
        let m_now = file.bucket_count();
        let mut p_scaled = 1.0;
        for g in 0..file.group_count() as u64 {
            let cols = (m_now.saturating_sub(g * 4)).min(4) as usize;
            if cols > 0 {
                p_scaled *= group_availability(cols, file.group_k(g), p);
            }
        }
        println!(
            "{:>8} {:>4} {:>8} {:>10.4} {:>10.4}",
            m_now,
            file.k_file(),
            file.storage_report().parity_buckets,
            p_scaled,
            file_availability(m_now, 4, 1, p)
        );
    }

    let upgrades = file.metrics().counter_kind("events", "group_upgraded");
    let k_bumps: Vec<u64> = file
        .events()
        .iter()
        .filter_map(|e| match e.event {
            Event::KRaised { k } => Some(k),
            _ => None,
        })
        .collect();
    println!(
        "\n{} group upgrades executed as k stepped through {:?}; {} records stored",
        upgrades,
        k_bumps,
        file.storage_report().data_records
    );
    file.verify_integrity()
        .expect("all upgraded groups consistent");
    println!("integrity across every upgraded group ✔");
}
