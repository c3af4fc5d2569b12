//! One module per table/figure of the evaluation. Each `run()` returns the
//! tables it regenerates; `all_experiments` calls these.

pub mod f1_image_convergence;
pub mod f2_availability_curves;
pub mod f3_scalable_availability;
pub mod f4_split_throughput;
pub mod t10_fault_overhead;
pub mod t12_restart_cost;
pub mod t1_storage_overhead;
pub mod t2_search_cost;
pub mod t3_insert_cost;
pub mod t5_recovery_cost;
pub mod t6_record_recovery;
pub mod t7_baseline_comparison;
pub mod t8_update_cost;
pub mod t9_grouping_ablation;

/// An experiment entry point: returns the tables it regenerates.
pub type Runner = fn() -> Vec<crate::Table>;

/// `(experiment id, runner)` for every experiment, in report order.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("t1_storage_overhead", t1_storage_overhead::run),
        ("t2_search_cost", t2_search_cost::run),
        ("t3_insert_cost", t3_insert_cost::run),
        ("f1_image_convergence", f1_image_convergence::run),
        ("t5_recovery_cost", t5_recovery_cost::run),
        ("f2_availability_curves", f2_availability_curves::run),
        ("t6_record_recovery", t6_record_recovery::run),
        ("f3_scalable_availability", f3_scalable_availability::run),
        ("t7_baseline_comparison", t7_baseline_comparison::run),
        ("f4_split_throughput", f4_split_throughput::run),
        ("t8_update_cost", t8_update_cost::run),
        ("t9_grouping_ablation", t9_grouping_ablation::run),
        ("t10_fault_overhead", t10_fault_overhead::run),
        ("t12_restart_cost", t12_restart_cost::run),
    ]
}
