//! `lhrs-benchmark compare <a.json> <b.json>`: per workload and end-to-end
//! metric, both values, their ratio with its base, and a verdict against
//! the bound stored in `BENCHMARK.json`.

use crate::json::{self, Json};

/// One metric's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// A side's own run-to-run spread is wider than the bound: the two
    /// values cannot be told apart at this bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the direction
/// that counts as worse (negative = better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

pub fn verdict(a: f64, b: f64, spreads: [Option<f64>; 2], better: &str, bound: f64) -> Verdict {
    if spreads.iter().flatten().any(|s| *s > bound) {
        Verdict::Unresolved
    } else if worsening(a, b, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two result files. Returns the rendered table and whether any
/// metric is worse; an error when the files cannot be compared at all.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (side, doc) in [("a", a), ("b", b)] {
        if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{side} is stamped \"comparable\": false (a shortened run measures a different amount of work)"
            ));
        }
    }
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("a has no workloads")?;
    let mut out = format!(
        "{:<16} {:<14} {:>14} {:>14} {:>20} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "b/a (base a)", "bound"
    );
    let mut any_worse = false;
    for (workload, a_w) in workloads {
        let Some(b_w) = b.get("workloads").and_then(|w| w.get(workload)) else {
            out.push_str(&format!("{workload:<16} (not in b)\n"));
            continue;
        };
        for m in metrics {
            let field = |key: &str| m.get(key).and_then(Json::as_str).unwrap_or("");
            let (name, unit, better) = (field("name"), field("unit"), field("better"));
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let entry = |w: &Json| w.get("end_to_end").and_then(|e| e.get(name)).cloned();
            let (Some(ea), Some(eb)) = (entry(a_w), entry(b_w)) else {
                continue;
            };
            let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (num(&ea, "value"), num(&eb, "value")) else {
                continue;
            };
            let v = verdict(
                va,
                vb,
                [num(&ea, "spread"), num(&eb, "spread")],
                better,
                bound,
            );
            any_worse |= v == Verdict::Worse;
            out.push_str(&format!(
                "{workload:<16} {name:<14} {va:>14.4} {vb:>14.4} {:>9.4} of {va:<9.4} {bound:>5.2}  {} ({unit}, {better} is better)\n",
                vb / va,
                v.as_str(),
            ));
        }
    }
    Ok((out, any_worse))
}

/// The `compare` subcommand: exit code 0 when nothing is worse, 1 when a
/// metric is, 2 when the files cannot be compared.
pub fn main(a_path: &str, b_path: &str) -> i32 {
    let run = || -> Result<(String, bool), String> {
        compare(&load("BENCHMARK.json")?, &load(a_path)?, &load(b_path)?)
    };
    match run() {
        Ok((table, any_worse)) => {
            print!("{table}");
            i32::from(any_worse)
        }
        Err(e) => {
            eprintln!("lhrs-benchmark compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{benchmark_json, END_TO_END, RUN_SECONDS};
    use crate::report::{result_file, Row, WorkloadRows};

    #[test]
    fn verdicts() {
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(100.0, 109.0, [None, None], "lower", 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(100.0, 111.0, [None, None], "lower", 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 50.0, [None, None], "lower", 0.10),
            Verdict::Ok
        );
        // Higher is better.
        assert_eq!(
            verdict(100.0, 91.0, [None, None], "higher", 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(100.0, 89.0, [None, None], "higher", 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 200.0, [None, None], "higher", 0.10),
            Verdict::Ok
        );
        // A side whose own spread exceeds the bound resolves nothing.
        assert_eq!(
            verdict(100.0, 150.0, [Some(0.02), Some(0.12)], "lower", 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 150.0, [Some(0.02), Some(0.03)], "lower", 0.10),
            Verdict::Worse
        );
    }

    fn rows(scale: f64, runs: u64) -> Vec<WorkloadRows> {
        vec![WorkloadRows {
            name: "read_small",
            rows: (0..runs)
                .map(|i| Row {
                    seed: i,
                    attempted: 10,
                    failed: 0,
                    rejected: 0,
                    end_to_end: END_TO_END
                        .iter()
                        .map(|m| (m.name, scale * (100.0 + i as f64 * 0.1)))
                        .collect(),
                    per_layer: Vec::new(),
                    info: Vec::new(),
                })
                .collect(),
        }]
    }

    #[test]
    fn emitted_result_files_round_trip_through_compare() {
        // Render to text and parse back, as the files on disk are.
        let file = |scale, runs| {
            json::parse(&result_file(1, RUN_SECONDS, &rows(scale, runs)).render_pretty()).unwrap()
        };
        let spec = json::parse(&benchmark_json().render_pretty()).unwrap();
        let (table, worse) = compare(&spec, &file(1.0, 5), &file(1.05, 5)).unwrap();
        assert!(!worse, "{table}");
        assert_eq!(table.matches(" ok ").count(), END_TO_END.len(), "{table}");
        // 30 % up: worse for every lower-is-better metric, fine for ops/s.
        let (table, worse) = compare(&spec, &file(1.0, 1), &file(1.3, 1)).unwrap();
        assert!(worse);
        assert_eq!(
            table.matches(" worse ").count(),
            END_TO_END.len() - 1,
            "{table}"
        );
        assert!(table.contains("1.3000 of 100.0000"), "{table}");
    }

    #[test]
    fn a_shortened_run_is_refused() {
        let spec = benchmark_json();
        let full = result_file(1, RUN_SECONDS, &rows(1.0, 1));
        let short = result_file(1, 3, &rows(1.0, 1));
        assert!(compare(&spec, &full, &short).is_err());
        assert!(compare(&spec, &short, &full).is_err());
    }
}
