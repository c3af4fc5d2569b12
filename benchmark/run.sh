#!/usr/bin/env bash
# Build the daemon of the commit under test and the benchmark driver, then
# run the driver. Arguments go to the driver unchanged:
#
#   benchmark/run.sh                                  # all four workloads
#   benchmark/run.sh --traced                         # ... plus the traced runs and the layer walk
#   benchmark/run.sh --workload read_small --seed 3 --seconds 10 --trace 0
#   benchmark/run.sh compare a.json b.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -d crates/net ]]; then
    echo "benchmark/run.sh: no repository around benchmark/ (Cargo.toml and crates/net are missing): nothing to measure" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The daemon is built from the root workspace, exactly as a user builds it.
cargo build --release --offline -p lhrs-net --bin lhrs-netd >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lhrs-benchmark" "$@"
