//! Experiment harness regenerating every table and figure of the LH\*RS
//! evaluation (see `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for recorded results).
//!
//! Each experiment lives in [`experiments`] as a function returning
//! [`Table`]s; the one binary, `all_experiments`, runs the whole suite and
//! writes `bench_out/*.txt`. Every table counts messages, records or bytes
//! in the deterministic simulator, so a rerun reproduces the committed files
//! byte for byte; wall-clock throughput is measured by `benchmark/` instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod table;
mod workload;

pub use table::Table;
pub use workload::{payload_of, uniform_keys};

use std::io::Write as _;
use std::path::PathBuf;

/// Where experiment outputs are written (`bench_out/` under the workspace
/// root or the current directory).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var_os("LHRS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_out"));
    std::fs::create_dir_all(&dir).expect("create bench_out");
    dir
}

/// Print tables to stdout and persist them under `bench_out/<id>.txt`.
pub fn emit(id: &str, tables: &[Table]) {
    let mut text = String::new();
    for t in tables {
        text.push_str(&t.render());
        text.push('\n');
    }
    print!("{text}");
    let path = out_dir().join(format!("{id}.txt"));
    let mut f = std::fs::File::create(&path).expect("create output file");
    f.write_all(text.as_bytes()).expect("write output file");
    eprintln!("[saved {}]", path.display());
}
