//! **F3 — Scalable availability: k growing with the file.**
//!
//! The file starts at k = 1 and raises k when M crosses thresholds, keeping
//! availability roughly flat while fixed-k files decay. Also ablates the
//! upgrade policy: eager (every group immediately) vs lazy (on next touch).

use lhrs_core::availability::file_availability;
use lhrs_core::{Config, LhrsFile, UpgradeMode};
use lhrs_sim::LatencyModel;

use crate::table::{f2, f4};
use crate::{payload_of, uniform_keys, Table};

/// Run the experiment.
pub fn run() -> Vec<Table> {
    let p = 0.99f64;
    let thresholds = vec![8u64, 48];
    let mut series = Table::new(
        "F3a: growth under the scaling rule k: 1→2 (M>8) →3 (M>48), eager upgrades (m=4, p=0.99)",
        &["M", "k_file", "parity", "overhead", "P(scaled)", "P(k=1)"],
    );
    let cfg = Config {
        group_size: 4,
        initial_k: 1,
        bucket_capacity: 32,
        record_len: 64,
        scale_thresholds: thresholds.clone(),
        upgrade_mode: UpgradeMode::Eager,
        latency: LatencyModel::instant(),
        node_pool: 4096,
        ..Config::default()
    };
    let mut file = LhrsFile::new(cfg).expect("config");
    let keys = uniform_keys(6000, 0xF3);
    let checkpoints = [4u64, 8, 16, 32, 64, 128];
    let mut fed = 0usize;
    for &target in &checkpoints {
        while file.bucket_count() < target && fed < keys.len() {
            let key = keys[fed];
            file.insert(key, payload_of(key, 64)).expect("insert");
            fed += 1;
        }
        let r = file.storage_report();
        let m_now = file.bucket_count();
        // Availability of the actual mixed-k file: product over groups.
        let mut p_scaled = 1.0;
        for g in 0..file.group_count() as u64 {
            let cols = (m_now.saturating_sub(g * 4)).min(4) as usize;
            if cols == 0 {
                continue;
            }
            p_scaled *= lhrs_core::availability::group_availability(cols, file.group_k(g), p);
        }
        series.row(vec![
            m_now.to_string(),
            file.k_file().to_string(),
            r.parity_buckets.to_string(),
            f2(r.storage_overhead),
            f4(p_scaled),
            f4(file_availability(m_now, 4, 1, p)),
        ]);
    }
    series.note(
        "expected shape: P(scaled) stays ≈ flat across threshold crossings while P(k=1) decays",
    );

    // Ablation: eager vs lazy upgrade cost and lag.
    let mut ablation = Table::new(
        "F3b: upgrade-policy ablation (grow to M ≈ 64 under the same rule)",
        &[
            "policy",
            "upgrades",
            "xfer msgs",
            "lagging groups",
            "min k",
            "total msgs",
        ],
    );
    for &(mode, label) in &[(UpgradeMode::Eager, "eager"), (UpgradeMode::Lazy, "lazy")] {
        let cfg = Config {
            group_size: 4,
            initial_k: 1,
            bucket_capacity: 32,
            record_len: 64,
            scale_thresholds: thresholds.clone(),
            upgrade_mode: mode,
            latency: LatencyModel::instant(),
            node_pool: 4096,
            ..Config::default()
        };
        let mut file = LhrsFile::new(cfg).expect("config");
        let keys = uniform_keys(3000, 0xF3B);
        file.insert_batch(keys.iter().map(|&key| (key, payload_of(key, 64))))
            .expect("bulk");
        let stats = file.stats();
        let upgrades = stats.counter("events", "group_upgraded");
        let k_file = file.k_file();
        let lagging = (0..file.group_count() as u64)
            .filter(|&g| file.group_k(g) < k_file)
            .count();
        let min_k = (0..file.group_count() as u64)
            .map(|g| file.group_k(g))
            .min()
            .unwrap_or(0);
        ablation.row(vec![
            label.to_string(),
            upgrades.to_string(),
            (stats.count("transfer-req") + stats.count("transfer-data")).to_string(),
            lagging.to_string(),
            min_k.to_string(),
            stats.total_messages().to_string(),
        ]);
    }
    ablation.note("expected: eager upgrades immediately; lazy defers until a split touches the group — under sustained growth every group is touched soon, so the totals converge and only the upgrade *timing* differs");
    vec![series, ablation]
}
