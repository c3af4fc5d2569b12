//! `lhrs-benchmark`: run the workloads, or compare two result files.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use lhrs_benchmark::inproc;
use lhrs_benchmark::json::{self, Json};
use lhrs_benchmark::metrics::{benchmark_json, RUN_SECONDS};
use lhrs_benchmark::report::{
    print_row, print_spreads, result_file, row_from_result_file, Row, WorkloadRows,
};
use lhrs_benchmark::run::{self, Env, Span};
use lhrs_benchmark::stats::median;
use lhrs_benchmark::workload::{find, Workload, WORKLOADS};
use lhrs_benchmark::{compare, signal};

/// `setup_s` is the median over the clusters an untraced run sets up: at
/// least [`MIN_SETUPS`], and more — up to [`MAX_SETUPS`] — while they are
/// so cheap that together they took less than [`SETUP_BUDGET_S`], because a
/// set-up of a few milliseconds needs more samples to repeat.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;

const USAGE: &str = "\
usage: lhrs-benchmark [run] [--workload <name>]... [--seed <n>] [--seconds <n>]
                      [--trace <0|1>] [--traced] [--runs <n>] [--out <file>]
                      [--netd <path>]
       lhrs-benchmark compare <a.json> <b.json>
       lhrs-benchmark spec
       lhrs-benchmark setup --workload <name> [--seed <n>] [--out <file>] [--netd <path>]

  --workload   run only this workload (repeatable); with exactly one, the last
               line printed is the one-line JSON result a harness reads
  --seed       seed of the op stream and payloads (default 1)
  --seconds    length of the measured window (default: run_seconds of
               BENCHMARK.json); --measure-s is the same switch. A result from
               any other length is stamped \"comparable\": false
  --trace 1    report the per-layer metrics (traced run + layer walk) in the
               result line instead of the end-to-end ones
  --traced     run both: end-to-end from the untraced run, per-layer from the
               traced run
  --runs       repeat each workload with seeds seed, seed+1, ... and report
               medians and quartile spreads
  --out        result file (default benchmark/out/result.json)
  --netd       the lhrs-netd binary (default: beside this executable)";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    /// Report end-to-end metrics (untraced run, repeated set-ups).
    end_to_end: bool,
    /// Report per-layer metrics (traced run, layer walk).
    per_layer: bool,
    /// `--trace` was given: the result line carries one metric class.
    trace_flag: Option<bool>,
    runs: u64,
    out: PathBuf,
    netd: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        end_to_end: true,
        per_layer: false,
        trace_flag: None,
        runs: 1,
        out: PathBuf::from("benchmark/out/result.json"),
        netd: None,
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg}: {text:?} is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed
                    .workloads
                    .push(find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" | "--measure-s" => {
                parsed.seconds = number(value()?)?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err(format!("{arg} must be 1 to 60"));
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => parsed.trace_flag = Some(false),
                "1" => parsed.trace_flag = Some(true),
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--traced" => parsed.per_layer = true,
            "--runs" => parsed.runs = number(value()?)?.max(1),
            "--out" => parsed.out = PathBuf::from(value()?),
            "--netd" => parsed.netd = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(traced) = parsed.trace_flag {
        parsed.end_to_end = !traced;
        parsed.per_layer = traced;
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().collect();
    }
    Ok(parsed)
}

/// The daemon `run.sh` built into the same target directory as the driver.
fn sibling_netd() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let netd = exe.with_file_name("lhrs-netd");
    if netd.is_file() {
        Ok(netd)
    } else {
        Err(format!(
            "{netd:?} not found: build it with `cargo build --release -p lhrs-net --bin lhrs-netd` (benchmark/run.sh does) or pass --netd"
        ))
    }
}

fn write_trace(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::new();
    for span in spans {
        text.push_str(
            &Json::obj([
                ("name", Json::str(span.name)),
                ("op", Json::Num(span.op as f64)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ])
            .render(),
        );
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("write {path:?}: {e}"))
}

/// Time one more set-up of `w` in a process of its own. `TcpTransport` has
/// no shutdown: the accept and reader-shard threads of every client this
/// process ever started keep polling until it exits, so set-ups repeated
/// in-process would each be timed against more background wake-ups.
fn set_up_in_child(w: &Workload, env: &Env, args: &Args, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["setup", "--workload", w.name, "--seed", &seed.to_string()])
        .arg("--netd")
        .arg(&env.netd)
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn a set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!("set-up process failed ({}): {text}", out.status)),
    }
}

/// One seed of one workload, in this process: the untraced run (and the
/// extra set-ups after it) when end-to-end metrics are wanted, the traced
/// run and the layer walk when per-layer metrics are.
fn bench(w: &'static Workload, env: &Env, args: &Args, seed: u64) -> Result<Row, String> {
    eprintln!("[{}] untraced run, seed {seed}, {} s", w.name, args.seconds);
    let untraced = run::run(w, env, seed, args.seconds, false)?;
    let mut row = Row {
        seed,
        attempted: untraced.attempted,
        failed: untraced.failed,
        rejected: untraced.rejected,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        info: untraced
            .info
            .iter()
            .map(|(key, value)| (key.to_string(), value.clone()))
            .collect(),
    };
    if args.end_to_end {
        let mut setups = vec![untraced.end_to_end("setup_s")];
        while setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            setups.push(set_up_in_child(w, env, args, seed)?);
        }
        row.end_to_end = untraced.end_to_end.clone();
        for (name, value) in &mut row.end_to_end {
            if *name == "setup_s" {
                *value = median(&setups).unwrap_or(f64::NAN);
            }
        }
        row.info.push((
            "setup_s_samples".to_string(),
            Json::Arr(setups.iter().map(|s| Json::Num(*s)).collect()),
        ));
    }
    if args.per_layer {
        eprintln!("[{}] traced run", w.name);
        let traced = run::run(w, env, seed, args.seconds, true)?;
        eprintln!("[{}] layer walk and loopback run", w.name);
        let layers = inproc::layers(w, seed, args.seconds, &env.work_root, &untraced, &traced)?;
        row.per_layer = layers.rows;
        let trace_path = out_dir(args).join(format!("trace_{}.jsonl", w.name));
        let spans: Vec<Span> = traced.spans.iter().chain(&layers.spans).cloned().collect();
        write_trace(&trace_path, &spans)?;
        row.attempted += traced.attempted;
        row.failed += traced.failed;
        row.rejected += traced.rejected;
        row.info.push((
            "trace_file".to_string(),
            Json::str(trace_path.display().to_string()),
        ));
    }
    Ok(row)
}

/// One seed of one workload in a driver process of its own, so that no run
/// is measured beside the leftovers of an earlier one.
fn bench_in_child(w: &Workload, env: &Env, args: &Args, seed: u64) -> Result<Row, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let file = out_dir(args).join(format!("run_{}_{seed}.json", w.name));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--netd")
        .arg(&env.netd)
        .arg("--out")
        .arg(&file);
    match args.trace_flag {
        Some(traced) => cmd.args(["--trace", if traced { "1" } else { "0" }]),
        None if args.per_layer => cmd.arg("--traced"),
        None => &mut cmd,
    };
    let status = cmd
        .status()
        .map_err(|e| format!("spawn a driver process: {e}"))?;
    if !status.success() {
        return Err(format!("{} seed {seed}: the run failed ({status})", w.name));
    }
    let text = std::fs::read_to_string(&file).map_err(|e| format!("read {file:?}: {e}"))?;
    let _ = std::fs::remove_file(&file);
    row_from_result_file(&json::parse(&text)?, w.name)
}

fn out_dir(args: &Args) -> PathBuf {
    args.out.parent().unwrap_or(Path::new(".")).to_path_buf()
}

fn env_of(args: &Args) -> Result<Env, String> {
    let env = Env {
        netd: match &args.netd {
            Some(path) => path.clone(),
            None => sibling_netd()?,
        },
        work_root: out_dir(args).join("work"),
    };
    std::fs::create_dir_all(&env.work_root)
        .map_err(|e| format!("create {:?}: {e}", env.work_root))?;
    Ok(env)
}

/// The `setup` subcommand: set one cluster up, tear it down, print how
/// long the set-up took.
fn setup_main(args: Args) -> Result<(), String> {
    let [w] = args.workloads.as_slice() else {
        return Err("setup takes exactly one --workload".into());
    };
    println!("{}", run::time_set_up(w, &env_of(&args)?, args.seed)?);
    Ok(())
}

fn run_main(args: Args) -> Result<(), String> {
    let env = env_of(&args)?;
    // One workload, one run: measured here. Anything more: one driver
    // process per run, aggregated here.
    let single = args.workloads.len() == 1 && args.runs == 1;
    let mut results = Vec::new();
    for w in &args.workloads {
        let mut rows = Vec::new();
        for i in 0..args.runs {
            if signal::interrupted() {
                return Err("interrupted".into());
            }
            let seed = args.seed + i;
            if single {
                let row = bench(w, &env, &args, seed)?;
                print_row(w.name, &row);
                rows.push(row);
            } else {
                rows.push(bench_in_child(w, &env, &args, seed)?);
            }
        }
        results.push(WorkloadRows { name: w.name, rows });
    }
    print_spreads(&results);
    let doc = result_file(args.seed, args.seconds, &results);
    std::fs::write(&args.out, doc.render_pretty())
        .map_err(|e| format!("write {:?}: {e}", args.out))?;
    eprintln!("result file: {}", args.out.display());
    if let ([WorkloadRows { rows, .. }], true) = (results.as_slice(), single) {
        // The last line is the harness's.
        if let [row] = rows.as_slice() {
            println!("{}", row.harness_line(args.trace_flag == Some(true))?);
        }
    }
    Ok(())
}

fn main() {
    signal::install();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        },
        Some("spec") => {
            print!("{}", benchmark_json().render_pretty());
            0
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            0
        }
        first => {
            let entry = if first == Some("setup") {
                setup_main
            } else {
                run_main
            };
            if matches!(first, Some("run" | "setup")) {
                argv.remove(0);
            }
            match parse_args(argv.into_iter()).and_then(entry) {
                Ok(()) => 0,
                Err(e) => {
                    // No result is printed for a run that is not valid.
                    eprintln!("lhrs-benchmark: {e}");
                    if signal::interrupted() {
                        130
                    } else {
                        1
                    }
                }
            }
        }
    };
    std::process::exit(code);
}
