//! What the driver prints and writes: the per-workload tables for people,
//! the result file `compare` reads, and the one-line result for a harness.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{median, quartile_spread};

/// The named values of one run of one workload.
pub struct Row {
    pub seed: u64,
    pub attempted: u64,
    /// Ended `Failed` or timed out.
    pub failed: u64,
    /// Returned a value the oracle rejects.
    pub rejected: u64,
    /// From the untraced run. Empty when only a traced run was asked for.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// From the traced run and the layer walk. Empty when not traced.
    pub per_layer: Vec<(&'static str, f64)>,
    pub info: Vec<(String, Json)>,
}

impl Row {
    /// Operations that failed or returned a rejected value ÷ attempted.
    pub fn fail_share(&self) -> f64 {
        (self.failed + self.rejected) as f64 / self.attempted.max(1) as f64
    }

    fn value(values: &[(&'static str, f64)], name: &str) -> Option<f64> {
        values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The single line a harness reads: `correct`, `attempted`, `failed`
    /// and every end-to-end metric (`traced` false) or every per-layer
    /// metric (`traced` true) by name. A per-layer metric that does not
    /// apply to the workload reads 0; an end-to-end metric that could not
    /// be computed is an error, not a number.
    pub fn harness_line(&self, traced: bool) -> Result<String, String> {
        let names_units: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = Vec::new();
        for (name, unit) in names_units {
            let value = if traced {
                Row::value(&self.per_layer, name).unwrap_or(0.0)
            } else {
                Row::value(&self.end_to_end, name).unwrap_or(f64::NAN)
            };
            if !value.is_finite() {
                return Err(format!("{name} has no value in this run"));
            }
            metrics.push((
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.rejected == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num((self.failed + self.rejected) as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render())
    }
}

/// The run a single-run result file holds for `workload`: how a parent
/// driver takes over what a child driver measured.
pub fn row_from_result_file(doc: &Json, workload: &str) -> Result<Row, String> {
    let w = doc
        .get("workloads")
        .and_then(|all| all.get(workload))
        .ok_or_else(|| format!("the result file has no workload {workload}"))?;
    let count = |key: &str| {
        w.get(key)
            .and_then(Json::as_f64)
            .map(|n| n as u64)
            .ok_or_else(|| format!("{workload}: no {key}"))
    };
    fn values<T: Copy>(
        section: Option<&Json>,
        table: &[T],
        name_of: impl Fn(&T) -> &'static str,
    ) -> Vec<(&'static str, f64)> {
        table
            .iter()
            .map(name_of)
            .filter_map(|name| {
                let value = section?.get(name)?.get("value")?.as_f64()?;
                Some((name, value))
            })
            .collect()
    }
    let info = w
        .get("info")
        .and_then(Json::as_arr)
        .and_then(<[Json]>::first)
        .and_then(Json::as_obj)
        .unwrap_or(&[]);
    Ok(Row {
        seed: info
            .iter()
            .find(|(key, _)| key == "seed")
            .and_then(|(_, v)| v.as_f64())
            .map_or(0, |s| s as u64),
        attempted: count("attempted")?,
        failed: count("failed")? - count("rejected")?,
        rejected: count("rejected")?,
        end_to_end: values(w.get("end_to_end"), END_TO_END, |m| m.name),
        per_layer: values(w.get("per_layer"), PER_LAYER, |m| m.name),
        info: info
            .iter()
            .filter(|(key, _)| key != "seed")
            .cloned()
            .collect(),
    })
}

/// Every run of one workload.
pub struct WorkloadRows {
    pub name: &'static str,
    pub rows: Vec<Row>,
}

/// The median over the runs of each named value, with the values behind it
/// and — from two runs on — their quartile spread.
fn summarize(
    rows: &[Row],
    pick: impl Fn(&Row) -> &[(&'static str, f64)],
    unit_of: impl Fn(&str) -> &'static str,
) -> Json {
    let Some(first) = rows.first() else {
        return Json::obj::<&str>([]);
    };
    Json::obj(pick(first).iter().map(|(name, _)| {
        let values: Vec<f64> = rows
            .iter()
            .filter_map(|row| Row::value(pick(row), name))
            .collect();
        let mut entry = vec![
            ("value", Json::Num(median(&values).unwrap_or(f64::NAN))),
            ("unit", Json::str(unit_of(name))),
        ];
        if values.len() > 1 {
            entry.push((
                "values",
                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
            ));
            entry.push((
                "spread",
                quartile_spread(&values).map_or(Json::Null, Json::Num),
            ));
        }
        (*name, Json::obj(entry))
    }))
}

fn unit_of_end_to_end(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn unit_of_per_layer(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// The result file: one document for everything a driver invocation ran.
pub fn result_file(seed: u64, seconds: u64, workloads: &[WorkloadRows]) -> Json {
    Json::obj([
        ("benchmark", Json::str("lhrs-benchmark")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        // A shortened run measures a different amount of work; `compare`
        // refuses it.
        ("comparable", Json::Bool(seconds == RUN_SECONDS)),
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "workloads",
            Json::obj(workloads.iter().map(|w| {
                let attempted: u64 = w.rows.iter().map(|r| r.attempted).sum();
                let bad: u64 = w.rows.iter().map(|r| r.failed + r.rejected).sum();
                (
                    w.name,
                    Json::obj([
                        ("runs", Json::Num(w.rows.len() as f64)),
                        ("attempted", Json::Num(attempted as f64)),
                        ("failed", Json::Num(bad as f64)),
                        (
                            "rejected",
                            Json::Num(w.rows.iter().map(|r| r.rejected).sum::<u64>() as f64),
                        ),
                        (
                            "fail_share",
                            Json::Num(bad as f64 / attempted.max(1) as f64),
                        ),
                        (
                            "end_to_end",
                            summarize(&w.rows, |r| &r.end_to_end, unit_of_end_to_end),
                        ),
                        (
                            "per_layer",
                            summarize(&w.rows, |r| &r.per_layer, unit_of_per_layer),
                        ),
                        (
                            "info",
                            Json::Arr(
                                w.rows
                                    .iter()
                                    .map(|r| {
                                        Json::obj(
                                            std::iter::once((
                                                "seed".to_string(),
                                                Json::Num(r.seed as f64),
                                            ))
                                            .chain(r.info.iter().cloned()),
                                        )
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })),
        ),
    ])
}

fn print_values(title: &str, values: &[(&'static str, f64)], unit_of: fn(&str) -> &'static str) {
    if values.is_empty() {
        return;
    }
    println!("  {title}");
    for (name, value) in values {
        println!("    {name:<36} {value:>16.4} {}", unit_of(name));
    }
}

/// Print one run for a person (before the result line, which is last).
pub fn print_row(workload: &str, row: &Row) {
    println!(
        "{workload} (seed {}): attempted {} failed {} rejected {} fail_share {}",
        row.seed,
        row.attempted,
        row.failed,
        row.rejected,
        row.fail_share()
    );
    print_values(
        "end to end (untraced run)",
        &row.end_to_end,
        unit_of_end_to_end,
    );
    print_values(
        "per layer (traced run + layer walk)",
        &row.per_layer,
        unit_of_per_layer,
    );
    for (key, value) in &row.info {
        println!("    {key:<36} {}", value.render());
    }
}

/// Print, for a set of runs, each end-to-end metric's median and spread
/// against its bound.
pub fn print_spreads(workloads: &[WorkloadRows]) {
    for w in workloads.iter().filter(|w| w.rows.len() > 1) {
        println!("{}: {} runs", w.name, w.rows.len());
        for m in END_TO_END {
            let values: Vec<f64> = w
                .rows
                .iter()
                .filter_map(|r| Row::value(&r.end_to_end, m.name))
                .collect();
            let (Some(mid), Some(spread)) = (median(&values), quartile_spread(&values)) else {
                continue;
            };
            println!(
                "    {:<16} median {mid:>14.4} {:<4} spread {spread:.4} of bound {:.2} ({} is better){}",
                m.name,
                m.unit,
                m.bound,
                match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                },
                if spread > m.bound { "  <-- wider than the bound" } else { "" }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(seed: u64, ops: f64) -> Row {
        Row {
            seed,
            attempted: 1000,
            failed: 1,
            rejected: 0,
            end_to_end: END_TO_END.iter().map(|m| (m.name, ops)).collect(),
            per_layer: vec![("lh.address_ns", 2.5)],
            info: vec![("buckets".to_string(), Json::Num(16.0))],
        }
    }

    #[test]
    fn harness_line_names_exactly_the_tables_metrics() {
        let r = row(1, 1234.5678);
        let line = crate::json::parse(&r.harness_line(false).unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(1.0));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (m, (name, entry)) in END_TO_END.iter().zip(metrics) {
            assert_eq!(name, m.name);
            assert_eq!(entry.get("value").unwrap().as_f64(), Some(1234.5678));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit));
        }
        // Traced: every per-layer metric, the inapplicable ones as 0.
        let line = crate::json::parse(&r.harness_line(true).unwrap()).unwrap();
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| {
            line.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("lh.address_ns"), Some(2.5));
        assert_eq!(value("wal.errors"), Some(0.0));
    }

    #[test]
    fn a_missing_end_to_end_value_is_an_error_not_a_number() {
        let mut r = row(1, 1.0);
        r.end_to_end.pop();
        assert!(r.harness_line(false).is_err());
        r.end_to_end.push(("setup_s", f64::NAN));
        assert!(r.harness_line(false).is_err());
    }

    #[test]
    fn a_rejected_value_makes_the_run_incorrect() {
        let mut r = row(1, 1.0);
        r.rejected = 2;
        let line = crate::json::parse(&r.harness_line(false).unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn a_single_run_file_reads_back_as_the_row_it_was_written_from() {
        let doc = result_file(
            7,
            RUN_SECONDS,
            &[WorkloadRows {
                name: "read_small",
                rows: vec![row(7, 1234.5678)],
            }],
        );
        let doc = crate::json::parse(&doc.render_pretty()).unwrap();
        let back = row_from_result_file(&doc, "read_small").unwrap();
        assert_eq!(back.seed, 7);
        assert_eq!((back.attempted, back.failed, back.rejected), (1000, 1, 0));
        assert_eq!(back.end_to_end, row(7, 1234.5678).end_to_end);
        assert_eq!(back.per_layer, vec![("lh.address_ns", 2.5)]);
        assert_eq!(back.info, vec![("buckets".to_string(), Json::Num(16.0))]);
        assert!(row_from_result_file(&doc, "kill_recover").is_err());
    }

    #[test]
    fn result_file_reports_medians_and_spread_over_runs() {
        let rows = WorkloadRows {
            name: "read_small",
            rows: (1..=10).map(|i| row(i, i as f64)).collect(),
        };
        let doc = result_file(1, RUN_SECONDS, &[rows]);
        assert_eq!(doc.get("comparable"), Some(&Json::Bool(true)));
        let ops = doc
            .get("workloads")
            .and_then(|w| w.get("read_small"))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get("ops_per_s"))
            .unwrap();
        assert_eq!(ops.get("value").unwrap().as_f64(), Some(5.5));
        assert_eq!(ops.get("spread").unwrap().as_f64(), Some(1.0));
        assert_eq!(ops.get("values").unwrap().as_arr().unwrap().len(), 10);
        let short = result_file(1, RUN_SECONDS - 1, &[]);
        assert_eq!(short.get("comparable"), Some(&Json::Bool(false)));
    }
}
