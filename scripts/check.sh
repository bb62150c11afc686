#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#
#   1. release build of the whole workspace
#   2. the full test suite (unit + integration + property tests)
#   3. clippy with -D warnings
#
# Before any of that, ten grep gates. No kernel crate may read the pool
# size (`current_threads()`), so a hand-rolled "small input or one thread,
# take the serial twin" gate cannot come back — kernels state a grain and
# the pool decides (DESIGN.md §9/§10). And no crate may ask the tracer
# whether a session is recording (`is_active()`) except the five files
# whose test guards a block of trace hooks, nor read a `ZKPERF_NO_*`
# switch: a trace session observes the kernel that ships, so nothing may
# swap in another one under it (DESIGN.md §9). And `zkperf-core` and
# `zkperf-serve` call `groth16::contribute` in one place, the body of
# `ProverBackend::setup_ceremony`: key generation for one's own use is
# `setup_contributed`, which needs no sweep (DESIGN.md §5). And the PLONK
# protocol commits over the SRS's powers (`srs.commit(`) only the three
# quotient pieces — the two opening witnesses go through `srs.open` — so
# a wire, the accumulator or a circuit column cannot quietly go back to
# interpolate-then-commit: data born on the rows commits over the Lagrange
# half (DESIGN.md §5). And the library sources read the environment in six
# files only, the knobs that exist today (thread count, memory budget,
# STARK parameters, sweep bounds, results directory, testkit seed): a new
# knob in a library call path, read afresh on every call, is how a
# measured stage ends up timing getenv or behaving differently from the
# one that ships. And `unsafe` in zkperf-ff and zkperf-ec is written in
# one file, crates/ff/src/lanes.rs, the AVX-512 IFMA kernels under the
# batch-affine bucket add, the NTT passes and PLONK's quotient rows
# (DESIGN.md §17). And the v2 section record —
# preamble, `(id, len, crc32)` header, checksum check — is written and
# parsed in crates/io/src/format.rs alone: the resident and the chunked
# `.zkey` were two proving-key formats because the record layout had two
# implementations, and a second one is how they would drift apart again
# (DESIGN.md §15). And zkperf-plonk names no power of two
# (`next_power_of_two`, `is_power_of_two`): its row count is the least
# domain order of either form, 2^k or 3·2^k, that `Radix2Domain::new`
# picks, so rounding rows up lives in the domain constructor alone. And
# zkperf-poly has one NTT layout: no four-step transform, no transpose,
# no spill to a second path and no memory-budget read — the flat body with
# its cache-tiled bit reversal serves every order at every size, so a
# second layout behind a size or budget switch cannot come back
# (DESIGN.md §12). And no kernel carries a dry-run twin for the tracer
# (`trace_scalar_ops`, `replay_scalar_ops`, a `const WRITE: bool` that
# switches a scalar body's stores off): a traced cell runs the scalar body
# once, the lanes switched off around it, so a lane kernel never re-runs
# its scalar loop for a session (DESIGN.md §17).
#
# Six library crates (zkperf-core, zkperf-groth16, zkperf-io,
# zkperf-plonk, zkperf-pool, zkperf-serve) additionally deny
# clippy::unwrap_used and clippy::expect_used outside #[cfg(test)] via
# attributes at the top of their lib.rs, so step 3 also enforces the
# panic-free-hot-path policy; tests and binaries may still unwrap.
#
# The build environment is fully offline (deps are vendored under
# vendor/), hence --offline everywhere.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> grep gate: no current_threads() in kernel crates"
if grep -rn 'current_threads()' crates/{ff,ec,poly,circuit,groth16,plonk,stark}/src; then
    echo "kernel crates must not branch on the pool size; give the job a grain instead" >&2
    exit 1
fi

echo "==> grep gate: is_active() only around trace hooks, no ZKPERF_NO_* switches"
if grep -rn 'is_active()' crates/{ec,poly,groth16,plonk,io,core,serve}/src ||
    grep -rln 'is_active()' crates/{ff,circuit,stark}/src |
    grep -vxE 'crates/(ff/src/(fp|goldilocks)|circuit/src/(lc|lang)|stark/src/poseidon)\.rs'; then
    echo "a trace session records the kernel that ships: no algorithm may depend on is_active()" >&2
    exit 1
fi
if grep -rn 'env::var("ZKPERF_NO_' crates; then
    echo "no ZKPERF_NO_* switch: a second algorithm behind an env knob is a second code path" >&2
    exit 1
fi

echo "==> grep gate: core and serve run contribute only inside setup_ceremony"
if grep -rn 'contribute::<' crates/{core,serve}/src | grep -v '^crates/core/src/backend.rs:' ||
    awk '/^    fn /{inside = /fn setup_ceremony\(/}
         /contribute::</ && !inside {print FILENAME ":" FNR ":" $0; bad = 1}
         END {exit !bad}' crates/core/src/backend.rs; then
    echo "whoever just needs keys calls B::setup (groth16::setup_contributed): the contribution sweep is the ceremony's" >&2
    exit 1
fi

echo "==> grep gate: plonk commits over the powers only the quotient pieces"
if grep -n 'srs\.commit(' crates/plonk/src/protocol.rs | grep -v 't_polys'; then
    echo "values on the rows commit through commit_evaluations (the Lagrange half of the SRS)" >&2
    exit 1
fi

echo "==> grep gate: environment reads only in the six knob files"
if grep -rln 'env::var' crates/*/src |
    grep -vxE 'crates/(pool/src/(lib|mem)|stark/src/params|core/src/matrix|bench/src/lib|testkit/src/rng)\.rs'; then
    echo "a new environment read in a library crate: take the value as an argument, or resolve it once beside the existing knobs" >&2
    exit 1
fi

echo "==> grep gate: unsafe in zkperf-ff and zkperf-ec only in ff/src/lanes.rs"
if grep -rnw 'unsafe' crates/{ff,ec}/src | grep -v '^crates/ff/src/lanes\.rs:'; then
    echo "zkperf-ff and zkperf-ec keep unsafe in one module, the IFMA lanes: write the new code safely" >&2
    exit 1
fi

echo "==> grep gate: the container record layout lives in io/src/format.rs"
if grep -rnE 'crc32\(|read_u(32|64)\(|VERSION\.to_le_bytes\(\)' crates/io/src |
    grep -vE '^crates/io/src/(format|checksum)\.rs:'; then
    echo "frame sections through zkperf-io's format module (write_section, read_section_header, read_payload)" >&2
    exit 1
fi

echo "==> grep gate: zkperf-plonk rounds rows only through the domain constructor"
if grep -rnE 'next_power_of_two|is_power_of_two' crates/plonk/src; then
    echo "PLONK domains have order 2^k or 3·2^k: take n from Radix2Domain::new, check an order with zkperf_poly::root_of_unity" >&2
    exit 1
fi

echo "==> grep gate: one NTT layout in zkperf-poly"
if grep -rnE 'four_step|transpose_into|spill_to_flat|mem::budget' crates/poly/src; then
    echo "zkperf-poly has one transform body for every order and size: tile the pass that misses cache instead of adding a layout" >&2
    exit 1
fi

echo "==> grep gate: no scalar replay or dry-run body for the tracer"
if grep -rnE 'trace_scalar_ops|replay_scalar_ops|const WRITE: bool' crates; then
    echo "a traced cell runs the scalar body once (lanes::with_scalar_body around measure_stage): no kernel replays its scalar loop for a session" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test -q --workspace --offline

# Proofs and measurements must be byte-identical at any pool size, so the
# determinism suites run twice: once serial, once on a 4-thread pool.
# (Tests that need other counts call pool::set_threads explicitly.)
# thread_determinism also holds traced_op_counts_are_thread_count_invariant:
# per-stage op counts of a traced run on all three backends at 1/2/4 threads.
echo "==> determinism suites (proof bytes and traced op counts) at ZKPERF_THREADS=1 and 4"
ZKPERF_THREADS=1 cargo test -q --offline --test determinism --test thread_determinism
ZKPERF_THREADS=4 cargo test -q --offline --test determinism --test thread_determinism

# Fixed-seed differential fuzz smoke tier: every optimized kernel against
# its slow in-tree reference plus the soundness-negative mutation audit.
# The seed is pinned (fuzz_lite's built-in default) so this tier is fully
# deterministic; on divergence fuzz_lite prints a ready-to-paste
# ZKPERF_TESTKIT_SEED=... replay command for the single failing case.
# Deeper runs: ZKPERF_TESTKIT_SEED=$RANDOM ./target/release/fuzz_lite --iters 64
echo "==> fuzz_lite fixed-seed smoke tier"
if ! ./target/release/fuzz_lite --iters 8; then
    echo "fuzz_lite found diverging cases; paste a replay line from above" >&2
    exit 1
fi

# The GLV lattice decomposition guards every scalar multiplication on the
# G1 groups, so its oracles get a deeper dedicated pass: decompose
# identity (k1 + λ·k2 ≡ k mod r) on boundary scalars, GLV MSM, the
# mul_windowed Straus route and the shared-scalar scale_points sweep
# against double-and-add and the per-point window loop. The single-stream
# scale_points loop a group without GLV parameters takes is what G2 runs;
# its oracle (scale_points_bn254_g2) is in the smoke tier above.
echo "==> fuzz_lite GLV tier"
if ! ./target/release/fuzz_lite --only glv --iters 16; then
    echo "fuzz_lite found GLV divergences; paste a replay line from above" >&2
    exit 1
fi

# The 8-lane IFMA kernels sit under every BN254 G1 MSM and fixed-base
# table and under every BN254 Fr transform and PLONK quotient, so their
# oracles get a dedicated pass: the lane bucket-add round against the
# scalar body bit for bit on limb-boundary coordinates, every pair kind in
# every lane position, rounds of 1–9 pairs, and MSMs at 1/2/4 threads; an
# Fr butterfly run on table and power twiddles, then transforms at 1/2/4
# threads against the scalar body; a pointwise quotient row through lane
# vectors, then a PLONK proof under both bodies (DESIGN.md §17). On a host
# without IFMA both sides run the scalar body.
echo "==> fuzz_lite lanes tier"
if ! ./target/release/fuzz_lite --only lanes --iters 16; then
    echo "fuzz_lite found lane divergences; paste a replay line from above" >&2
    exit 1
fi

# The twisted-curve pairing engine sits under every Groth16/PLONK
# verification, so its oracles get a dedicated pass: the engine against
# the untwisted reference in zkperf-testkit bit-for-bit, bilinearity,
# non-degeneracy, identity/negated inputs, prepared G2 lines, and the
# mismatched-length truncation contract on both curves.
echo "==> fuzz_lite pairing tier"
if ! ./target/release/fuzz_lite --only pairing --iters 16; then
    echo "fuzz_lite found pairing divergences; paste a replay line from above" >&2
    exit 1
fi

# Chunking must be invisible in the artifacts: one chunk per query,
# budget-sized chunks, the streamed .zkey file, and N-thread streaming
# must all produce the same bytes. The known-answer test holds those
# bytes (recorded before the resident and chunked pipelines were merged)
# and runs at both ambient pool sizes like the determinism suites; the
# stream oracles pin msm_stream folding against msm_naive, budgeted
# against unbudgeted setup/prove, thread-count bit-identity, and the
# on-disk roundtrip.
echo "==> stream tier: Groth16 known-answer test at ZKPERF_THREADS=1 and 4"
ZKPERF_THREADS=1 cargo test -q --offline --test groth16_kat
ZKPERF_THREADS=4 cargo test -q --offline --test groth16_kat
# The .zkey decoder — one reader for resident and streamed keys — under
# seeded mutation: valid BN254 and BLS12-381 keys at 1, 13 and one chunk
# per query take bit flips, truncations, section count/length/id edits,
# stored-checksum flips, and re-sealed header and payload edits. Each must
# give a typed FormatError or a key that re-encodes to the same bytes at
# the header's chunk size; a skipped CRC check fails this tier.
echo "==> fuzz_lite zkey tier"
if ! ./target/release/fuzz_lite --only zkey --iters 64; then
    echo "fuzz_lite found a .zkey decoder divergence; paste a replay line from above" >&2
    exit 1
fi
echo "==> fuzz_lite stream tier"
if ! ./target/release/fuzz_lite --only stream --iters 12; then
    echo "fuzz_lite found streaming divergences; paste a replay line from above" >&2
    exit 1
fi

# PLONK tier: the proof bytes (recorded at one thread, PR 23's protocol
# change; lines on domains of order 3·2^k re-recorded when PLONK stopped
# rounding rows up to a power of two) and the cross-scheme integration
# suite at both ambient pool sizes like the other two known-answer tests
# (the KAT proves each recorded line a second time inside
# lanes::with_scalar_body, so both bodies of the lane kernels run at both
# pool sizes) — beside them the mixed-radix oracles (every domain of order
# 2^k and 3·2^k up to 12 288 points against the O(n²) DFT at 1, 2 and 4
# threads, on both curves' Fr, once through the lanes and once inside
# lanes::with_scalar_body), the test that a commitment from values is the
# commitment of
# their interpolation (both curves, the column shapes a circuit produces)
# and the prover's memory bound — then the mutation audit over the
# nine-point proof layout, at a 2^k and a 3·2^k fixture — every class
# rejected, none by panic.
echo "==> plonk tier: known-answer, integration, mixed-radix, commit-equivalence and memory tests at ZKPERF_THREADS=1 and 4"
for threads in 1 4; do
    ZKPERF_THREADS=$threads cargo test -q --offline --test plonk_proof_kat --test plonk_integration
    ZKPERF_THREADS=$threads cargo test -q --offline -p zkperf-testkit --lib mixed_radix
    ZKPERF_THREADS=$threads cargo test -q --offline -p zkperf-plonk --lib evaluations_commit_like_their_interpolation
    ZKPERF_THREADS=$threads cargo test -q --offline -p zkperf-plonk --test prove_memory
done
echo "==> plonk tier: mutation classes"
cargo test -q --offline -p zkperf-testkit plonk_mutation_classes_all_rejected

# STARK tier: the transparent backend's own gate. The backend-trait
# conformance suite drives the satisfied/unsatisfied acceptance circuits
# through Groth16, PLONK, and STARK (accept/reject parity), then the
# fixed-seed stark differential oracles run — Goldilocks vs BigUint,
# the Goldilocks Poseidon kernel vs the generic permutation, Poseidon
# Merkle vs the shared-nothing reference, FRI fold vs direct polynomial
# evaluation, the transparent roundtrip, and the thread-toggling kernels.
# The known-answer test pins permutation outputs, row digests and proof
# bytes (1/2/4 threads, default and knobbed parameters) to the values
# recorded before the hash kernel existed. The conformance pass runs
# twice: once at the default FRI parameters and once with the
# ZKPERF_STARK_* knobs moved, so the env plumbing (blowup 8, 20 queries)
# is exercised end to end.
echo "==> stark tier: conformance suite at default and knobbed FRI parameters"
cargo test -q --offline --test backend_conformance all_backends_agree_on_the_trait_contract
ZKPERF_STARK_BLOWUP=8 ZKPERF_STARK_QUERIES=20 \
    cargo test -q --offline --test backend_conformance all_backends_agree_on_the_trait_contract
echo "==> stark tier: proof known-answer test"
cargo test -q --offline --test stark_proof_kat
echo "==> stark tier: fuzz_lite fixed-seed stark oracles"
if ! ./target/release/fuzz_lite --only stark --iters 8; then
    echo "fuzz_lite found stark divergences; paste a replay line from above" >&2
    exit 1
fi

# Memory-bounded smoke: a 2^16 circuit proved under a 32 MiB budget —
# smaller than its one-chunk working set — must complete and byte-match
# the unbudgeted run, both resident-budgeted and through the streamed
# .zkey file. Exit code 2 means the streaming pipeline changed the bytes.
echo "==> stream_smoke: 2^16 under a 32 MiB budget"
if ! ./target/release/stream_smoke --log2 16 --budget 32M --threads 1,4; then
    echo "stream_smoke failed: budgeted proving diverged or crashed" >&2
    exit 1
fi

# Serving smoke tier: replay a fixed-seed open-loop trace through the
# zkperf-serve daemon with its fault injector armed. The loadgen exits
# non-zero on any panic, any accepted-but-unaccounted job, any
# deadline-accounting error, any served proof whose bytes differ from
# the serial reference pipeline, or any failed job whose error is not an
# injected fault — the service-level determinism and fault-tolerance
# contract.
echo "==> serve_smoke: loadgen with the server's fault injector at a fixed seed"
if ! ./target/release/loadgen --chaos 20240808 --jobs 32 --seed 42; then
    echo "serve_smoke failed: see loadgen accounting errors above" >&2
    exit 1
fi

# Fault-injection tier: the `chaos` binary at a fixed seed — bit flips and
# truncations of every artifact, and faulty readers and writers around
# every codec (stage-boundary faults are serve_smoke's, above). It exits
# non-zero on any panic and any corrupt artifact that parses cleanly or
# verifies.
echo "==> chaos: fault-injection suite at a fixed seed"
if ! ./target/release/chaos 20240808; then
    echo "chaos found violations; replay with the seed it printed above" >&2
    exit 1
fi

# Regeneration smoke: EXPERIMENTS.md is filled from what `experiments`
# and `real_scaling --backends` (E10, README's backend table) write under
# results/, so the paths the docs depend on run here once, at the smallest
# sizes, into a throwaway directory. Table VI (E7-E9's path) is computed
# from recorded task graphs, micro-op counts only, never from heap
# addresses: two independent runs must write the same bytes.
echo "==> experiments smoke: exec_time, setup_split and table6 (twice, compared) at 2^3..2^4, backends at 2^4..2^5"
smoke_results="$(mktemp -d)"
smoke_again="$(mktemp -d)"
smoke() { # <results dir> <output name> <command...>
    local dir="$1" name="$2"
    shift 2
    if ! ZKPERF_RESULTS_DIR="$dir" ZKPERF_MIN_LOG=3 ZKPERF_MAX_LOG=4 "$@" ||
        [ ! -s "$dir/$name.json" ]; then
        rm -rf "$smoke_results" "$smoke_again"
        echo "experiments smoke failed: $name did not regenerate" >&2
        exit 1
    fi
}
smoke "$smoke_results" exec_time ./target/release/experiments exec_time
smoke "$smoke_results" setup_split ./target/release/experiments setup_split
smoke "$smoke_results" backends ./target/release/real_scaling --backends 4,5
smoke "$smoke_results" table6_parallelism ./target/release/experiments table6_parallelism
smoke "$smoke_again" table6_parallelism ./target/release/experiments table6_parallelism
if ! cmp "$smoke_results/table6_parallelism.json" "$smoke_again/table6_parallelism.json"; then
    rm -rf "$smoke_results" "$smoke_again"
    echo "experiments smoke failed: table6_parallelism.json differs between two runs" >&2
    exit 1
fi
rm -rf "$smoke_results" "$smoke_again"

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint step" >&2
fi

echo "==> all checks passed"
