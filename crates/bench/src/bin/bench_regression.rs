//! Wall-clock benchmark-regression harness.
//!
//! Unlike the instrumented experiment binaries (which count micro-ops under
//! the machine simulator), this harness measures *real* wall-clock time of
//! the uninstrumented release-mode kernels and protocol stages, emits a
//! machine-readable report, and optionally compares it against a committed
//! baseline with a configurable regression threshold.
//!
//! Modes:
//!
//! * full (default): kernel micro-benches (among them the phase-2
//!   `contribute` sweep and PLONK setup and prove at 2^12, which the stage
//!   rows do not time) plus the combined Groth16 setup+prove path on the
//!   exponentiation workloads at 2^10..2^14 constraints.
//! * `--smoke`: kernel micro-benches only, at reduced sizes — fast enough
//!   for the tier-1 gate in `scripts/check.sh`.
//! * `--large`: adds the big-domain sweep — MSM at 2^18/2^20/2^22 and NTT
//!   at 2^18/2^20/2^22 (the four-step crossover and beyond). Off in
//!   tier-1; the small-size kernels keep their exact names so baseline
//!   comparisons stay like-for-like, and `compare` only gates entries
//!   present in both reports — a baseline refreshed with `--large`
//!   therefore gates the big kernels too.
//!
//! Exit codes: 0 ok, 1 usage/IO error, 2 regression past the threshold.

use std::process::ExitCode;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use zkperf_circuit::library::exponentiate;
use zkperf_ec::{msm, Bn254, Engine, FixedBaseTable, Projective};
use zkperf_ff::{bls12_381, bn254, Field};
use zkperf_groth16::{contribute, prove, setup, verify, verify_batch};
use zkperf_plonk::{plonk_prove, plonk_setup};
use zkperf_poly::Radix2Domain;

/// One timed kernel micro-benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelResult {
    name: String,
    /// Best-of-N wall time for one run of the kernel body, nanoseconds.
    nanos: u64,
}

/// One timed setup+prove cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StageResult {
    curve: String,
    log2_constraints: u32,
    setup_ns: u64,
    prove_ns: u64,
    /// Combined setup + prove wall time: the headline number the perf
    /// trajectory is judged by.
    total_ns: u64,
    /// Tracking-allocator high-water mark across the setup+prove cell —
    /// the working set the `ZKPERF_MEM_BUDGET` streaming path bounds.
    peak_live_bytes: u64,
}

/// The report written to `BENCH_results.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchReport {
    schema: u32,
    mode: String,
    /// Thread-pool size the run used (`ZKPERF_THREADS`, default 1).
    /// Comparisons are only meaningful like-for-like.
    threads: u64,
    /// Kernel-reported peak RSS (`VmHWM`) at the end of the run, 0 when
    /// the platform does not expose it. Informational — never gated (it
    /// covers the whole process, bench scaffolding included).
    peak_rss_bytes: u64,
    kernels: Vec<KernelResult>,
    stages: Vec<StageResult>,
}

/// Minimum over `reps` runs of `f`, in nanoseconds per run.
fn best_of<F: FnMut()>(reps: u32, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        best = best.min(ns);
    }
    best
}

fn kernel_benches(smoke: bool) -> Vec<KernelResult> {
    let mut rng = zkperf_ff::test_rng();
    let mut out = Vec::new();
    let reps = if smoke { 5 } else { 7 };

    // Field kernels: 4096 dependent ops amortize the clock reads.
    let a = bn254::Fr::random(&mut rng);
    let b = bn254::Fr::random(&mut rng);
    out.push(KernelResult {
        name: "bn254_fr_mul_x4096".into(),
        nanos: best_of(reps, || {
            let mut acc = a;
            for _ in 0..4096 {
                acc *= b;
            }
            std::hint::black_box(acc);
        }),
    });
    out.push(KernelResult {
        name: "bn254_fr_square_x4096".into(),
        nanos: best_of(reps, || {
            let mut acc = a;
            for _ in 0..4096 {
                acc = acc.square();
            }
            std::hint::black_box(acc);
        }),
    });
    out.push(KernelResult {
        name: "bn254_fr_inverse_x16".into(),
        nanos: best_of(reps, || {
            let mut acc = a;
            for _ in 0..16 {
                acc = acc.inverse().unwrap_or(b);
            }
            std::hint::black_box(acc);
        }),
    });
    let x = bls12_381::Fq::random(&mut rng);
    let y = bls12_381::Fq::random(&mut rng);
    out.push(KernelResult {
        name: "bls12_381_fq_square_x4096".into(),
        nanos: best_of(reps, || {
            let mut acc = x;
            for _ in 0..4096 {
                acc = acc.square();
            }
            std::hint::black_box(acc);
        }),
    });
    std::hint::black_box(y);

    // MSM kernels.
    let msm_logs: &[u32] = if smoke { &[10] } else { &[10, 12] };
    let table = FixedBaseTable::new(&Projective::<zkperf_ec::bn254::G1Params>::generator());
    for &log in msm_logs {
        let n = 1usize << log;
        let scalars: Vec<bn254::Fr> = (0..n).map(|_| bn254::Fr::random(&mut rng)).collect();
        let bases = table.mul_batch(&scalars);
        out.push(KernelResult {
            name: format!("bn254_msm_g1_2e{log}"),
            nanos: best_of(if smoke { 3 } else { 5 }, || {
                std::hint::black_box(msm(&bases, &scalars));
            }),
        });
    }
    if !smoke {
        let n = 1usize << 12;
        let scalars: Vec<bn254::Fr> = (0..n).map(|_| bn254::Fr::random(&mut rng)).collect();
        out.push(KernelResult {
            name: "bn254_fixed_base_g1_2e12".into(),
            nanos: best_of(3, || {
                std::hint::black_box(table.mul_batch(&scalars));
            }),
        });
        let tbl381 =
            FixedBaseTable::new(&Projective::<zkperf_ec::bls12_381::G1Params>::generator());
        let scalars381: Vec<bls12_381::Fr> = (0..1usize << 10)
            .map(|_| bls12_381::Fr::random(&mut rng))
            .collect();
        let bases381 = tbl381.mul_batch(&scalars381);
        out.push(KernelResult {
            name: "bls12_381_msm_g1_2e10".into(),
            nanos: best_of(3, || {
                std::hint::black_box(msm(&bases381, &scalars381));
            }),
        });
    }

    // Pairing and verification kernels: the per-request cost at serving
    // scale. The circuit is small on purpose — verification cost is
    // constraint-independent up to the public-input MSM, so these numbers
    // are the pairing substrate, not the prover.
    {
        let g1 = (Projective::<zkperf_ec::bn254::G1Params>::generator()
            * bn254::Fr::from_u64(20240808))
        .to_affine();
        let g2 = (Projective::<zkperf_ec::bn254::G2Params>::generator()
            * bn254::Fr::from_u64(4294967311))
        .to_affine();
        out.push(KernelResult {
            name: "bn254_pairing".into(),
            nanos: best_of(if smoke { 3 } else { 5 }, || {
                std::hint::black_box(Bn254::pairing(&g1, &g2));
            }),
        });

        let circuit = exponentiate::<bn254::Fr>(16);
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).expect("setup succeeds");
        let witness = circuit
            .generate_witness(&[bn254::Fr::from_u64(3)], &[])
            .expect("witness generation succeeds");
        let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &witness, &mut rng)
            .expect("prove succeeds");
        out.push(KernelResult {
            name: "bn254_verify".into(),
            nanos: best_of(3, || {
                let ok = verify::<Bn254>(&pk.vk, &proof, witness.public())
                    .expect("well-formed inputs");
                assert!(ok, "bench proof must verify");
            }),
        });

        let items: Vec<_> = (0..16)
            .map(|i| {
                let w = circuit
                    .generate_witness(&[bn254::Fr::from_u64(2 + i)], &[])
                    .expect("witness generation succeeds");
                let p = prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng)
                    .expect("prove succeeds");
                (p, w.public().to_vec())
            })
            .collect();
        out.push(KernelResult {
            name: "bn254_verify_batch_x16".into(),
            nanos: best_of(if smoke { 2 } else { 3 }, || {
                let mut batch_rng = zkperf_ff::test_rng();
                let ok = verify_batch::<Bn254, _>(&pk.vk, &items, &mut batch_rng)
                    .expect("well-formed inputs");
                assert!(ok, "bench batch must verify");
            }),
        });
    }

    // The phase-2 contribution at 2^12, the ceremony verb: a contributor's
    // sweep over someone else's key, several times the `setup` it follows.
    // This is the only timed ceremony number; a key generated for one's own
    // use (`setup_contributed`) costs what the stage rows' `setup_ns` reads.
    // Contributions compose, so each repetition re-scales the same key.
    {
        let circuit = exponentiate::<bn254::Fr>(1 << 12);
        let mut pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).expect("setup succeeds");
        out.push(KernelResult {
            name: "bn254_contribute_2e12".into(),
            nanos: best_of(if smoke { 2 } else { 3 }, || {
                contribute::<Bn254, _>(&mut pk, &mut rng);
                std::hint::black_box(&pk);
            }),
        });
    }

    // PLONK at 2^12 constraints (n = 2^13 gates): keygen — SRS, circuit
    // preprocessing, eight commitments — and one proof from that key.
    {
        let circuit = exponentiate::<bn254::Fr>(1 << 12);
        let witness = circuit
            .generate_witness(&[bn254::Fr::from_u64(3)], &[])
            .expect("witness generation succeeds");
        let mut pk = None;
        out.push(KernelResult {
            name: "bn254_plonk_setup_2e12".into(),
            nanos: best_of(if smoke { 2 } else { 3 }, || {
                pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).ok();
            }),
        });
        let pk = pk.expect("plonk setup succeeds");
        out.push(KernelResult {
            name: "bn254_plonk_prove_2e12".into(),
            nanos: best_of(if smoke { 2 } else { 3 }, || {
                let proof = plonk_prove(&pk, witness.full()).expect("plonk prove succeeds");
                std::hint::black_box(proof);
            }),
        });
    }

    // NTT kernels.
    let ntt_logs: &[u32] = if smoke { &[12] } else { &[12, 14] };
    for &log in ntt_logs {
        let domain = Radix2Domain::<bn254::Fr>::new(1 << log).expect("domain fits");
        let values: Vec<bn254::Fr> = (0..domain.size())
            .map(|_| bn254::Fr::random(&mut rng))
            .collect();
        let mut buf = values.clone();
        out.push(KernelResult {
            name: format!("bn254_ntt_2e{log}"),
            nanos: best_of(reps, || {
                buf.copy_from_slice(&values);
                domain.fft_in_place(&mut buf);
                std::hint::black_box(&buf);
            }),
        });
    }

    // STARK kernels: the transparent backend's prover and verifier at the
    // acceptance size, its hash kernel, plus one bare FRI fold at a domain
    // large enough for the parallel grain to matter. Parameters are pinned
    // (not `from_env`) so the baseline is insensitive to ZKPERF_STARK_* knobs.
    {
        use zkperf_ff::Goldilocks;
        let params = zkperf_stark::StarkParams {
            blowup: 4,
            num_queries: 12,
        };
        let circuit = exponentiate::<Goldilocks>(1 << 14);
        let witness = circuit
            .generate_witness(&[Goldilocks::from_u64(3)], &[])
            .expect("witness generation succeeds");
        out.push(KernelResult {
            name: "stark_prove_2e14".into(),
            nanos: best_of(if smoke { 2 } else { 3 }, || {
                std::hint::black_box(
                    zkperf_stark::prove(circuit.r1cs(), witness.full(), &params)
                        .expect("prove succeeds"),
                );
            }),
        });
        let proof = zkperf_stark::prove(circuit.r1cs(), witness.full(), &params)
            .expect("prove succeeds");
        out.push(KernelResult {
            name: "stark_verify".into(),
            nanos: best_of(if smoke { 3 } else { 5 }, || {
                zkperf_stark::verify(circuit.r1cs(), witness.public(), &proof, &params)
                    .expect("bench proof must verify");
            }),
        });

        // The hash under all of the above: 1024 chained four-lane calls
        // (4096 permutations) of the Goldilocks Poseidon kernel.
        let seed: [Goldilocks; 4] = std::array::from_fn(|_| Goldilocks::random(&mut rng));
        out.push(KernelResult {
            name: "goldilocks_poseidon_x4".into(),
            nanos: best_of(reps, || {
                let mut acc = seed;
                for _ in 0..1024 {
                    acc = zkperf_stark::poseidon::hash2_x4(acc, seed);
                }
                std::hint::black_box(acc);
            }),
        });

        let fold_log = 18u32;
        let domain = Radix2Domain::<Goldilocks>::new(1 << fold_log).expect("domain fits");
        let layer = zkperf_stark::fri::LayerDomain {
            shift: domain.coset_shift(),
            omega: domain.group_gen(),
            size: domain.size(),
        };
        let values: Vec<Goldilocks> = (0..layer.size)
            .map(|_| Goldilocks::random(&mut rng))
            .collect();
        let beta = Goldilocks::random(&mut rng);
        out.push(KernelResult {
            name: format!("fri_fold_2e{fold_log}"),
            nanos: best_of(reps, || {
                std::hint::black_box(zkperf_stark::fri::fold_layer(&values, beta, &layer));
            }),
        });
    }
    out
}

/// The `--large` sweep: MSM and NTT at sizes where the GLV bucket sets
/// and the four-step crossover actually bite. Separate from
/// `kernel_benches` so the default suites keep their runtimes.
fn large_kernel_benches() -> Vec<KernelResult> {
    let mut rng = zkperf_ff::test_rng();
    let mut out = Vec::new();

    let table = FixedBaseTable::new(&Projective::<zkperf_ec::bn254::G1Params>::generator());
    for log in [18u32, 20, 22] {
        let n = 1usize << log;
        eprintln!("  preparing bn254_msm_g1_2e{log} ({n} points)...");
        let scalars: Vec<bn254::Fr> = (0..n).map(|_| bn254::Fr::random(&mut rng)).collect();
        let bases = table.mul_batch(&scalars);
        out.push(KernelResult {
            name: format!("bn254_msm_g1_2e{log}"),
            nanos: best_of(2, || {
                std::hint::black_box(msm(&bases, &scalars));
            }),
        });
        eprintln!("  kernel bn254_msm_g1_2e{log}: {} ns", out.last().expect("just pushed").nanos);
    }

    for log in [18u32, 20, 22] {
        let domain = Radix2Domain::<bn254::Fr>::new(1 << log).expect("domain fits");
        let values: Vec<bn254::Fr> = (0..domain.size())
            .map(|_| bn254::Fr::random(&mut rng))
            .collect();
        let mut buf = values.clone();
        out.push(KernelResult {
            name: format!("bn254_ntt_2e{log}"),
            nanos: best_of(3, || {
                buf.copy_from_slice(&values);
                domain.fft_in_place(&mut buf);
                std::hint::black_box(&buf);
            }),
        });
        eprintln!("  kernel bn254_ntt_2e{log}: {} ns", out.last().expect("just pushed").nanos);
    }
    out
}

fn stage_benches() -> Vec<StageResult> {
    let mut out = Vec::new();
    for log in [10u32, 12, 14] {
        let n = 1usize << log;
        let circuit = exponentiate::<bn254::Fr>(n);
        let mut rng = zkperf_ff::test_rng();
        zkperf_pool::mem::reset_peak();
        let start = Instant::now();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).expect("setup succeeds");
        let setup_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let witness = circuit
            .generate_witness(&[bn254::Fr::from_u64(3)], &[])
            .expect("witness generation succeeds");
        let start = Instant::now();
        let proof =
            prove::<Bn254, _>(&pk, circuit.r1cs(), &witness, &mut rng).expect("prove succeeds");
        let prove_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        std::hint::black_box(proof);
        let peak_live_bytes = zkperf_pool::mem::peak_live_bytes() as u64;
        out.push(StageResult {
            curve: "bn254".into(),
            log2_constraints: log,
            setup_ns,
            prove_ns,
            total_ns: setup_ns + prove_ns,
            peak_live_bytes,
        });
        eprintln!(
            "  stage bn254 2^{log}: setup {:.3}s prove {:.3}s peak-live {:.1} MiB",
            setup_ns as f64 / 1e9,
            prove_ns as f64 / 1e9,
            peak_live_bytes as f64 / (1u64 << 20) as f64,
        );
    }
    out
}

/// Compares `new` against `old`, printing one line per common entry.
/// Returns the names of entries slower than `1 + threshold` times the old
/// measurement.
fn compare(old: &BenchReport, new: &BenchReport, threshold: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    let mut check = |name: &str, old_ns: u64, new_ns: u64| {
        let ratio = new_ns as f64 / old_ns.max(1) as f64;
        let speedup = old_ns as f64 / new_ns.max(1) as f64;
        println!("  {name}: {old_ns} -> {new_ns} ns ({speedup:.2}x vs baseline)");
        if ratio > 1.0 + threshold {
            regressions.push(name.to_string());
        }
    };
    for k in &new.kernels {
        if let Some(prev) = old.kernels.iter().find(|p| p.name == k.name) {
            check(&k.name, prev.nanos, k.nanos);
        }
    }
    for s in &new.stages {
        if let Some(prev) = old
            .stages
            .iter()
            .find(|p| p.curve == s.curve && p.log2_constraints == s.log2_constraints)
        {
            check(
                &format!("{}_setup_prove_2e{}", s.curve, s.log2_constraints),
                prev.total_ns,
                s.total_ns,
            );
        }
    }
    regressions
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_regression [--smoke] [--large] [--out FILE] [--baseline FILE] [--threshold FRACTION]"
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut large = false;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut threshold = 0.25f64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--large" => large = true,
            "--out" | "--baseline" | "--threshold" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match args[i].as_str() {
                    "--out" => out_path = Some(value.clone()),
                    "--baseline" => baseline_path = Some(value.clone()),
                    _ => match value.parse::<f64>() {
                        Ok(t) if t > 0.0 => threshold = t,
                        _ => return usage(),
                    },
                }
                i += 1;
            }
            _ => return usage(),
        }
        i += 1;
    }

    let mode = if smoke { "smoke" } else { "full" };
    let threads = zkperf_pool::current_threads() as u64;
    eprintln!("bench_regression: running {mode} suite at {threads} thread(s)");
    let mut kernels = kernel_benches(smoke);
    if large {
        eprintln!("bench_regression: --large sweep (MSM 2^18..2^22, NTT 2^18..2^22)");
        kernels.extend(large_kernel_benches());
    }
    let stages = if smoke { Vec::new() } else { stage_benches() };
    let report = BenchReport {
        schema: 2,
        mode: mode.into(),
        threads,
        peak_rss_bytes: zkperf_pool::mem::peak_rss_bytes().unwrap_or(0),
        kernels,
        stages,
    };
    for k in &report.kernels {
        let note = if k.name == "bn254_contribute_2e12" {
            " (ceremony only: single-party keygen does no such sweep)"
        } else {
            ""
        };
        eprintln!("  kernel {}: {} ns{note}", k.name, k.nanos);
    }

    if let Some(path) = &out_path {
        let bytes = match serde_json::to_vec_pretty(&report) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_regression: serialize failed: {e}");
                return ExitCode::from(1);
            }
        };
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("bench_regression: writing {path} failed: {e}");
            return ExitCode::from(1);
        }
        eprintln!("bench_regression: wrote {path}");
    }

    if let Some(path) = &baseline_path {
        let Ok(bytes) = std::fs::read(path) else {
            eprintln!("bench_regression: no baseline at {path}; skipping comparison");
            return ExitCode::SUCCESS;
        };
        let old: BenchReport = match serde_json::from_slice(&bytes) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("bench_regression: baseline {path} unreadable: {e}");
                return ExitCode::from(1);
            }
        };
        println!("comparison vs {path} (threshold {:.0}%):", threshold * 100.0);
        let regressions = compare(&old, &report, threshold);
        if old.threads != report.threads {
            // A 4-thread run beating a 1-thread baseline (or losing to it)
            // says nothing about the code; only like-for-like gates.
            println!(
                "note: baseline ran at {} thread(s), this run at {} — \
                 comparison is informational only, regression gate skipped",
                old.threads, report.threads
            );
            return ExitCode::SUCCESS;
        }
        if !regressions.is_empty() {
            eprintln!(
                "bench_regression: REGRESSION in {} entr{}: {}",
                regressions.len(),
                if regressions.len() == 1 { "y" } else { "ies" },
                regressions.join(", ")
            );
            return ExitCode::from(2);
        }
        println!("no regressions past the threshold");
    }
    ExitCode::SUCCESS
}
