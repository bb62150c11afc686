#!/usr/bin/env bash
# Builds the benchmark (release, offline, its own workspace) and runs it.
#
#   benchmark/run.sh <workload|all> [--seed S] [--seconds T] [--trace] [--smoke] [--out F]
#   benchmark/run.sh --workload <name> --seed S --seconds T --trace 0|1     (the driver's form)
#   benchmark/run.sh --compare a.json b.json
#
# Works from any directory: it changes to the repository root first, which
# is where the binary looks for Cargo.toml, BENCHMARK.json and benchmark/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Cargo resolves a relative CARGO_TARGET_DIR against the current directory,
# the repository root.
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/zkperf-benchmark" "$@"
