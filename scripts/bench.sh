#!/usr/bin/env bash
# Benchmark-regression harness.
#
# Runs the wall-clock benches (kernel micro-benches, including the
# ceremony's phase-2 contribution sweep bn254_contribute_2e12 — the only
# timed ceremony number; the stage rows' setup column is what a
# single-party keygen costs — the PLONK rows bn254_plonk_setup_2e12 and
# bn254_plonk_prove_2e12 and the STARK rows stark_prove_2e14, stark_verify
# and goldilocks_poseidon_x4, plus the combined Groth16 setup+prove path on
# the exponentiation workloads at 2^10..2^14), writes
# BENCH_results.json, and compares against the committed
# BENCH_baseline.json with a configurable threshold:
#
#   scripts/bench.sh                      # full run + comparison
#   ZKPERF_BENCH_THRESHOLD=0.10 scripts/bench.sh
#   scripts/bench.sh --smoke              # kernels only (tier-1 gate)
#   scripts/bench.sh --large              # + MSM 2^18..2^22, NTT 2^18..2^22
#
# --large appends the big-domain sweep (GLV MSM bucket pressure, the
# four-step NTT crossover, the 2^18–2^22 scaling trajectory) to
# BENCH_results.json. The committed baseline is refreshed with --large at
# ZKPERF_THREADS=1, so the big kernels gate like-for-like along with the
# small ones; comparison still only covers entries present in both
# reports, so a --smoke run against the full baseline stays valid.
#
# If no baseline exists yet, the fresh results are seeded as the baseline.
# Exit code 2 means a benchmark regressed past the threshold.

set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD="${ZKPERF_BENCH_THRESHOLD:-0.25}"

echo "==> cargo build --release -p zkperf-bench"
cargo build --release --offline -p zkperf-bench --bin bench_regression

echo "==> bench_regression (threshold ${THRESHOLD})"
./target/release/bench_regression \
    --out BENCH_results.json \
    --baseline BENCH_baseline.json \
    --threshold "${THRESHOLD}" \
    "$@"

if [ ! -f BENCH_baseline.json ]; then
    cp BENCH_results.json BENCH_baseline.json
    echo "==> seeded BENCH_baseline.json from this run"
fi

# 1-vs-N-thread smoke comparison: the same reduced kernel suite at one
# thread and at N (ZKPERF_THREADS if set, else the host's core count).
# The comparison is informational — thread counts differ, so the
# regression gate is skipped by design; it exists to eyeball real
# multicore speedup (flat on a single-core host).
N="${ZKPERF_THREADS:-$(nproc 2>/dev/null || echo 1)}"
if [ "${N}" -gt 1 ]; then
    echo "==> 1-vs-${N}-thread smoke comparison"
    T1_JSON="$(mktemp)"
    trap 'rm -f "${T1_JSON}"' EXIT
    ZKPERF_THREADS=1 ./target/release/bench_regression --smoke --out "${T1_JSON}"
    ZKPERF_THREADS="${N}" ./target/release/bench_regression --smoke \
        --baseline "${T1_JSON}"
else
    echo "==> single-core host (or ZKPERF_THREADS=1): skipping 1-vs-N smoke comparison"
fi
