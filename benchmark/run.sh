#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                       all three workloads, one process each
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the last line of stdout is
#                                          the result object of BENCHMARK.json's contract
#
# Builds the benchmark (and, through its path dependencies, the product) from
# source first. Everything it writes goes under the cargo target directory:
# $CARGO_TARGET_DIR when set, else the repository's shared `target/`.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/era-benchmark"
export ERA_BENCHMARK_WORK_DIR="$target/era-benchmark-work"

if [ "$#" -gt 0 ]; then
    exec "$bin" run "$@"
fi
status=0
for workload in $("$bin" list); do
    "$bin" run --workload "$workload" || status=$?
done
exit "$status"
