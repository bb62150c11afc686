//! Measured vs simulated strong scaling — closing the loop on Fig. 6 and
//! Table VI.
//!
//! The experiment binaries predict multicore scaling from op counts: they
//! replay a stage's task graph on [`zkperf_scale::SimCores`] and fit the
//! resulting curve to Amdahl's law. This binary measures the *real* thing:
//! it runs the uninstrumented setup+prove pipeline on the work-stealing
//! pool at growing thread counts, fits the measured wall-clock speedups
//! with the same [`zkperf_scale::fit::amdahl`], and prints both fits side
//! by side.
//!
//! On a single-core host the measured column is honestly flat (speedup
//! ~1.0 everywhere — more workers, same core), while the simulated column
//! still shows the model's prediction for the i9; the point of the report
//! is that both columns come from the same estimator, so on a multicore
//! host they are directly comparable.
//!
//! `--sizes A,B,..` additionally runs the size-scaling trajectory: one
//! setup+prove round per listed `log₂(constraints)` at the current thread
//! count, reporting wall time, per-constraint cost, and the tracking
//! allocator's peak-live bytes — the 2^18–2^22 sweep the out-of-core
//! prover's memory claims are judged by (run it with `ZKPERF_MEM_BUDGET`
//! set to see the streamed path's bounded residency).
//!
//! `--backends A,B,..` runs the three-backend comparison instead: for
//! each listed `log₂(constraints)` the same `exponentiate` workload goes
//! through Groth16, PLONK, and the transparent STARK via the unified
//! `ProverBackend` trait, best of two setup/prove/verify calls each,
//! reporting trusted-setup requirement, key and proof sizes, and
//! per-stage wall time. It prints one markdown table per size (the README
//! comparison table) and writes every row to `backends.{txt,json}` in the
//! results directory (EXPERIMENTS.md E10).
//!
//! usage: `real_scaling [--log2 N] [--sim-log2 N] [--threads A,B,..]
//!         [--sizes A,B,..] [--backends A,B,..] [--out FILE]`
//!
//! Exit codes: 0 ok, 1 usage/IO error.

use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;

use zkperf_bench::emit;
use zkperf_circuit::library::exponentiate;
use zkperf_core::{
    measure_cell, render, stage_task_graph, Curve, Groth16Backend, PlonkBackend, ProverBackend,
    Stage, StarkBackend,
};
use zkperf_ec::Bn254;
use zkperf_ff::{bn254, Field};
use zkperf_groth16::{prove, setup};
use zkperf_machine::CpuProfile;
use zkperf_scale::{fit, ParallelismFit, SimCores};

/// One strong-scaling series plus its Amdahl fit.
#[derive(Debug, Clone, Serialize)]
struct ScalingSeries {
    /// `(threads, speedup)` points, threads ascending.
    points: Vec<(usize, f64)>,
    fit: ParallelismFit,
}

/// One point of the size-scaling trajectory.
#[derive(Debug, Clone, Serialize)]
struct SizeSweepPoint {
    log2_constraints: u32,
    nanos: u64,
    nanos_per_constraint: f64,
    /// Tracking-allocator high-water mark across the round.
    peak_live_bytes: u64,
    /// Bytes moved by the streaming chunk transport (0 unbudgeted).
    streamed_bytes: u64,
}

/// The report written by `--out`.
#[derive(Debug, Clone, Serialize)]
struct ScalingReport {
    schema: u32,
    log2_constraints: u32,
    sim_log2_constraints: u32,
    host_cores: usize,
    measured: ScalingSeries,
    simulated: ScalingSeries,
    /// The `--sizes` trajectory, empty when not requested.
    size_sweep: Vec<SizeSweepPoint>,
}

/// Wall time of one setup+prove round at `n` constraints: `(nanos,
/// peak_live_bytes, streamed_bytes)`.
fn time_setup_prove(n: usize) -> (u64, u64, u64) {
    let circuit = exponentiate::<bn254::Fr>(n);
    let mut rng = zkperf_ff::test_rng();
    let witness = circuit
        .generate_witness(&[bn254::Fr::from_u64(3)], &[])
        .expect("witness generation succeeds");
    zkperf_pool::mem::reset_peak();
    let streamed0 = zkperf_pool::mem::streamed_bytes();
    let start = Instant::now();
    let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).expect("setup succeeds");
    let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &witness, &mut rng).expect("prove succeeds");
    std::hint::black_box(proof);
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (
        nanos,
        zkperf_pool::mem::peak_live_bytes() as u64,
        zkperf_pool::mem::streamed_bytes().saturating_sub(streamed0),
    )
}

/// The `--sizes` trajectory: one round per size at the current thread
/// count, with per-constraint cost and peak-live residency.
fn size_scaling(logs: &[u32]) -> Vec<SizeSweepPoint> {
    let budget = zkperf_pool::mem::budget();
    match budget {
        Some(b) => eprintln!("  size sweep under ZKPERF_MEM_BUDGET={} bytes", b),
        None => eprintln!("  size sweep unbudgeted (in-memory fast path)"),
    }
    logs.iter()
        .map(|&log| {
            let n = 1usize << log;
            let (nanos, peak_live_bytes, streamed_bytes) = time_setup_prove(n);
            let point = SizeSweepPoint {
                log2_constraints: log,
                nanos,
                nanos_per_constraint: nanos as f64 / n as f64,
                peak_live_bytes,
                streamed_bytes,
            };
            eprintln!(
                "  size 2^{log}: {:.3}s ({:.0} ns/constraint), peak-live {:.1} MiB, streamed {:.1} MiB",
                nanos as f64 / 1e9,
                point.nanos_per_constraint,
                peak_live_bytes as f64 / (1u64 << 20) as f64,
                streamed_bytes as f64 / (1u64 << 20) as f64,
            );
            point
        })
        .collect()
}

/// One (size, backend) row of the three-backend comparison.
#[derive(Debug, Clone, Serialize)]
struct BackendRow {
    log2_constraints: u32,
    backend: &'static str,
    transparent_setup: bool,
    setup_ms: f64,
    prove_ms: f64,
    verify_ms: f64,
    key_bytes: usize,
    proof_bytes: usize,
}

/// Runs `f` twice and returns the second value with the faster time in
/// milliseconds: the first call of a stage in a process pays for cold
/// caches and first-use tables (the first pairing alone is ~30 ms).
fn best_of_2<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut timed = || {
        let start = Instant::now();
        (f(), start.elapsed().as_secs_f64() * 1e3)
    };
    let (_, first) = timed();
    let (value, second) = timed();
    (value, first.min(second))
}

/// Setup, prove and verify of `exponentiate 2^log2` through a backend,
/// purely via the unified trait.
fn backend_round<B: ProverBackend>(log2: u32) -> BackendRow {
    use rand::SeedableRng;
    let circuit = exponentiate::<B::Fr>(1usize << log2);
    let witness = circuit
        .generate_witness(&[B::Fr::from_u64(3)], &[])
        .expect("witness generation succeeds");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_cafe);
    let (keys, setup_ms) =
        best_of_2(|| B::setup(circuit.r1cs(), &mut rng).expect("setup succeeds"));
    let (proof, prove_ms) = best_of_2(|| {
        B::prove(&keys, circuit.r1cs(), &witness, &mut rng).expect("prove succeeds")
    });
    let (ok, verify_ms) = best_of_2(|| {
        B::verify(&keys, circuit.r1cs(), &proof, witness.public()).expect("verify well-formed")
    });
    assert!(ok, "{}: comparison proof must verify", B::label());
    BackendRow {
        log2_constraints: log2,
        backend: B::label(),
        transparent_setup: B::transparent_setup(),
        setup_ms,
        prove_ms,
        verify_ms,
        key_bytes: B::keys_size_bytes(&keys),
        proof_bytes: B::proof_size_bytes(&proof),
    }
}

/// The `--backends` mode: the same workload through all three proof
/// systems at each size, printed as the markdown table the README embeds
/// and emitted as `backends.{txt,json}`.
fn backend_comparison(logs: &[u32]) {
    let threads = zkperf_pool::current_threads();
    let ms = |t: f64| format!("{t:.1} ms");
    let kib = |b: usize| {
        if b >= 1 << 20 {
            format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
        } else {
            format!("{:.1} KiB", b as f64 / 1024.0)
        }
    };
    let mut rows = Vec::new();
    for &log2 in logs {
        let at_size = [
            backend_round::<Groth16Backend<Bn254>>(log2),
            backend_round::<PlonkBackend<Bn254>>(log2),
            backend_round::<StarkBackend>(log2),
        ];
        println!("three-backend comparison, exponentiate 2^{log2}, {threads} thread(s):");
        println!();
        println!("| backend | trusted setup | key material | proof size | setup | prove | verify |");
        println!("|---|---|---|---|---|---|---|");
        for r in &at_size {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                r.backend,
                if r.transparent_setup { "none (transparent)" } else { "required (SRS)" },
                kib(r.key_bytes),
                kib(r.proof_bytes),
                ms(r.setup_ms),
                ms(r.prove_ms),
                ms(r.verify_ms),
            );
        }
        println!();
        rows.extend(at_size);
    }
    let table = render::table(
        &[
            "constraints",
            "backend",
            "setup (ms)",
            "prove (ms)",
            "verify (ms)",
            "key bytes",
            "proof bytes",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("2^{}", r.log2_constraints),
                    r.backend.to_string(),
                    render::f(r.setup_ms, 1),
                    render::f(r.prove_ms, 1),
                    render::f(r.verify_ms, 1),
                    r.key_bytes.to_string(),
                    r.proof_bytes.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let text = format!(
        "exponentiate on three backends, {threads} thread(s), best of 2 calls per stage\n{table}"
    );
    emit("backends", &text, &rows);
}

/// Measures real strong scaling: best-of-2 setup+prove wall time at each
/// thread count, normalized to the 1-thread time.
fn measured_scaling(log2: u32, threads: &[usize]) -> ScalingSeries {
    let n = 1usize << log2;
    let mut times = Vec::new();
    for &t in threads {
        zkperf_pool::set_threads(t);
        let ns = time_setup_prove(n).0.min(time_setup_prove(n).0);
        eprintln!(
            "  measured {t:>2} thread(s): setup+prove 2^{log2} in {:.3}s",
            ns as f64 / 1e9
        );
        times.push((t, ns));
    }
    zkperf_pool::set_threads(1);
    let t1 = times
        .iter()
        .find(|&&(t, _)| t == 1)
        .map_or_else(|| times[0].1, |&(_, ns)| ns);
    let points: Vec<(usize, f64)> = times
        .iter()
        .map(|&(t, ns)| (t, t1 as f64 / ns.max(1) as f64))
        .collect();
    let fit = fit::amdahl(&points);
    ScalingSeries { points, fit }
}

/// Simulated strong scaling for the same pipeline: instruments one
/// setup+prove cell on the simulated i9, replays both stage task graphs
/// on `SimCores`, and combines them (the measured side times the two
/// stages back to back, so the simulated side must too).
fn simulated_scaling(sim_log2: u32, threads: &[usize]) -> ScalingSeries {
    let ms = measure_cell(
        Curve::Bn128,
        &CpuProfile::i9_13900k(),
        1 << sim_log2,
        &[Stage::Setup, Stage::Proving],
    )
    .expect("simulated setup+prove cell succeeds");
    let graphs: Vec<_> = ms.iter().map(stage_task_graph).collect();
    let machine = SimCores::i9_13900k();
    let total_at = |t: usize| -> f64 { graphs.iter().map(|g| machine.simulate(g, t)).sum() };
    let t1 = total_at(1);
    let points: Vec<(usize, f64)> = threads.iter().map(|&t| (t, t1 / total_at(t))).collect();
    let fit = fit::amdahl(&points);
    ScalingSeries { points, fit }
}

/// A comma-separated list with every element in `range` (an empty
/// string has one element that does not parse).
fn parse_list<T: std::str::FromStr + PartialOrd>(
    value: &str,
    range: std::ops::RangeInclusive<T>,
) -> Option<Vec<T>> {
    value
        .split(',')
        .map(|s| s.trim().parse().ok().filter(|v| range.contains(v)))
        .collect()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: real_scaling [--log2 N] [--sim-log2 N] [--threads A,B,..] \
         [--sizes A,B,..] [--backends A,B,..] [--out FILE]"
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let mut log2 = 14u32;
    let mut sim_log2 = 10u32;
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut sizes: Vec<u32> = Vec::new();
    let mut backends: Vec<u32> = Vec::new();
    let mut out_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage();
        };
        match args[i].as_str() {
            "--log2" => match value.parse() {
                // 2^22 constraints needs a 2^23 quotient domain — well
                // inside BN254's 2^28 two-adicity, and large enough to
                // drive the four-step NTT and GLV MSM paths end to end.
                Ok(v) if (4..=22).contains(&v) => log2 = v,
                _ => return usage(),
            },
            "--sim-log2" => match value.parse() {
                Ok(v) if (4..=16).contains(&v) => sim_log2 = v,
                _ => return usage(),
            },
            "--threads" => match parse_list(value, 1..=64) {
                Some(list) if list.len() >= 2 => threads = list,
                _ => return usage(),
            },
            "--sizes" => match parse_list(value, 4..=22) {
                Some(list) => sizes = list,
                None => return usage(),
            },
            // 2^18 STARK traces at blowup 4 stay inside Goldilocks' 2^32
            // two-adicity with plenty of headroom; the cap keeps the
            // comparison interactive.
            "--backends" => match parse_list(value, 4..=18) {
                Some(list) => backends = list,
                None => return usage(),
            },
            "--out" => out_path = Some(value.clone()),
            _ => return usage(),
        }
        i += 2;
    }

    if !backends.is_empty() {
        backend_comparison(&backends);
        return ExitCode::SUCCESS;
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!(
        "real_scaling: bn254 setup+prove, measured at 2^{log2}, simulated at 2^{sim_log2}, \
         host has {host_cores} core(s)"
    );

    let size_sweep = if sizes.is_empty() {
        Vec::new()
    } else {
        eprintln!("  size-scaling trajectory at {} thread(s)...", zkperf_pool::current_threads());
        size_scaling(&sizes)
    };

    let measured = measured_scaling(log2, &threads);
    eprintln!("  simulating i9 cell at 2^{sim_log2}...");
    let simulated = simulated_scaling(sim_log2, &threads);

    println!("strong scaling, bn254 setup+prove ({host_cores}-core host):");
    println!("  threads | measured speedup | simulated speedup (i9 model)");
    for (&(t, m), &(_, s)) in measured.points.iter().zip(&simulated.points) {
        println!("  {t:>7} | {m:>16.2} | {s:>17.2}");
    }
    println!(
        "  Amdahl fit: measured {:.1}% serial / {:.1}% parallel, \
         simulated {:.1}% serial / {:.1}% parallel",
        measured.fit.serial_pct,
        measured.fit.parallel_pct,
        simulated.fit.serial_pct,
        simulated.fit.parallel_pct,
    );
    if host_cores == 1 {
        println!(
            "  (single-core host: the measured curve cannot rise above 1.0; \
             rerun on a multicore machine for a meaningful comparison)"
        );
    }

    if let Some(path) = &out_path {
        let report = ScalingReport {
            schema: 2,
            log2_constraints: log2,
            sim_log2_constraints: sim_log2,
            host_cores,
            measured,
            simulated,
            size_sweep,
        };
        let bytes = match serde_json::to_vec_pretty(&report) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("real_scaling: serialize failed: {e}");
                return ExitCode::from(1);
            }
        };
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("real_scaling: writing {path} failed: {e}");
            return ExitCode::from(1);
        }
        eprintln!("real_scaling: wrote {path}");
    }
    ExitCode::SUCCESS
}
