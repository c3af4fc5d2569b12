//! Runs the full evaluation suite — every table and figure — writing each
//! to `bench_out/<id>.txt`.

use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    for (id, run) in lhrs_bench::experiments::all() {
        eprintln!("== running {id} ==");
        let t = Instant::now();
        lhrs_bench::emit(id, &run());
        eprintln!("[{id} done in {:.1}s]\n", t.elapsed().as_secs_f64());
    }
    eprintln!("full suite done in {:.1}s", t0.elapsed().as_secs_f64());
}
