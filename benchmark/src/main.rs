//! The zkperf benchmark: four workloads, ten end-to-end metrics, and a
//! traced run that attributes them to layers. See `README.md` beside this
//! crate and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! zkperf-benchmark --workload <name|all> [--seed S] [--seconds T]
//!                  [--trace [0|1]] [--smoke] [--out FILE]
//! zkperf-benchmark --compare A.json B.json
//! ```
//!
//! `--trace 0` (the default) is the untraced run that yields the
//! end-to-end metrics, `--trace 1` the traced run that yields the
//! per-layer ones, and a bare `--trace` runs one after the other.
//!
//! Run from the repository root (as `benchmark/run.sh` does). The last
//! line printed for a workload is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit status is non-zero when
//! any operation or correctness check failed.

mod compare;
mod env;
mod harness;
mod metrics;
mod probes;
mod seed;
mod serve_mixed;
mod span;
mod stage;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;

use zkperf_core::{Groth16Backend, PlonkBackend, StarkBackend};
use zkperf_ec::Bn254;

use harness::{Ctx, DEFAULT_SECONDS};
use metrics::WORKLOADS;
use seed::{Seed, DEFAULT_SEED};
use stage::StagePlan;

/// Where result files, span files and scratch artifacts go.
const OUT_DIR: &str = "benchmark/out";
/// The contract file the comparator takes its bounds from.
const CONTRACT: &str = "BENCHMARK.json";
/// Pool threads are capped here so numbers from big hosts stay comparable.
const MAX_THREADS: usize = 4;
/// The statement size of the three `*_exp_2e14` workloads.
const LOG2: u32 = 14;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    /// The passes to run: untraced (`false`), traced (`true`), or both.
    passes: Vec<bool>,
    smoke: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: zkperf-benchmark --workload <groth16_exp_2e14|plonk_exp_2e14|stark_exp_2e14|serve_mixed|all> \
[--seed S] [--seconds T] [--trace [0|1]] [--smoke] [--out FILE]\n       zkperf-benchmark --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        passes: vec![false],
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // The driver passes 0 or 1; bare `--trace` means both passes.
                args.passes = match it.peek().map(|s| s.as_str()) {
                    Some("0") => vec![false],
                    Some("1") => vec![true],
                    _ => vec![false, true],
                };
                if args.passes.len() == 1 {
                    it.next();
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?),
            "--compare" => args.compare = Some((value("--compare")?, value("--compare")?)),
            name if !name.starts_with('-') && args.workload.is_empty() => {
                args.workload = name.to_string()
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.compare.is_none()
        && args.workload != "all"
        && !WORKLOADS.contains(&args.workload.as_str())
    {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// How a `*_exp_2e14` workload fills its rounds. The short stages get
/// about a tenth of a round between them; keygen gets as much of the run
/// as the prove jobs do. A traced run takes a handful of rounds — its stage
/// numbers only anchor the coverage and speed-up ratios — and spends its
/// time on replays and probes instead.
fn stage_plan(workload: &str, traced: bool) -> StagePlan {
    let plan = match workload {
        // A round ≈ 0.4 s; keygen ≈ 4 s and serial, so one every ten.
        "groth16_exp_2e14" => StagePlan {
            compile: 4,
            witness: 4,
            verify: 6,
            keygen_every: 10,
            max_rounds: usize::MAX,
        },
        // prove ≈ 2.3 s, keygen ≈ 1.2 s: a round ≈ 3.9 s.
        "plonk_exp_2e14" => StagePlan {
            compile: 8,
            witness: 10,
            verify: 12,
            keygen_every: 1,
            max_rounds: usize::MAX,
        },
        // prove ≈ 2.3 s here too; keygen is a parameter lookup.
        _ => StagePlan {
            compile: 6,
            witness: 10,
            verify: 10,
            keygen_every: 1,
            max_rounds: usize::MAX,
        },
    };
    if traced {
        let max_rounds = if workload == "plonk_exp_2e14" { 2 } else { 4 };
        return StagePlan {
            keygen_every: plan.keygen_every.min(2),
            max_rounds,
            ..plan
        };
    }
    plan
}

/// Runs one workload and returns its ledger.
fn run_workload(
    name: &'static str,
    args: &Args,
    traced: bool,
    threads: usize,
    scratch: &Path,
) -> Ctx {
    let mut ctx = Ctx::new(
        name,
        Seed(args.seed),
        threads,
        args.seconds,
        args.smoke,
        traced,
    );
    let log2 = ctx.log2(LOG2);
    let plan = stage_plan(name, traced);
    match name {
        "groth16_exp_2e14" => {
            if let Some(art) = stage::run::<Groth16Backend<Bn254>>(&mut ctx, log2, plan) {
                if ctx.traced() {
                    probes::groth16_replays(&mut ctx, &art);
                    stage::pool_speedups(&mut ctx, &art, 2, 3);
                    probes::ec_large(&mut ctx, log2);
                    probes::ff_pairing_fields(&mut ctx);
                    probes::io_zkey(&mut ctx, &art.keys, scratch);
                    probes::core_overheads(&mut ctx);
                }
            }
        }
        "plonk_exp_2e14" => {
            if let Some(art) = stage::run::<PlonkBackend<Bn254>>(&mut ctx, log2, plan) {
                if ctx.traced() {
                    probes::plonk_replays(&mut ctx, &art);
                    stage::pool_speedups(&mut ctx, &art, 2, 2);
                    probes::poly_bn254(&mut ctx, log2);
                }
            }
        }
        "stark_exp_2e14" => {
            let params = zkperf_stark::StarkParams::from_env();
            ctx.check(
                "STARK parameters are the defaults (blowup 8, 30 queries)",
                params == zkperf_stark::StarkParams::default()
                    && params.blowup == 8
                    && params.num_queries == 30,
            );
            if let Some(art) = stage::run::<StarkBackend>(&mut ctx, log2, plan) {
                if ctx.traced() {
                    probes::stark_replays(&mut ctx, &art);
                    stage::pool_speedups(&mut ctx, &art, 2, 2);
                    probes::ff_goldilocks(&mut ctx);
                    // Bypass by construction: this workload is the control
                    // for every curve, MSM and pairing optimisation.
                    let touched_ec = ctx.rec.any_with_prefix("ec.");
                    ctx.check("stark_exp_2e14 records no ec span", !touched_ec);
                }
            }
        }
        _ => serve_mixed::run(&mut ctx, scratch),
    }
    if ctx.traced() {
        ctx.derive_layer_metrics_from_spans();
    }
    ctx
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let bytes = serde_json::to_vec_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `run` to the result file at `path` (`{"schema": 1, "runs":
/// [...]}`), so repeated runs with `--out F` collect into one file the
/// comparator can take medians and spreads from.
fn append_run(path: &Path, run: Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            let file = serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            match file.get("runs") {
                Some(Value::Array(runs)) => runs.clone(),
                _ => return Err(format!("{}: not a result file", path.display())),
            }
        }
        Err(_) => Vec::new(),
    };
    runs.push(run);
    let file = Value::Object(vec![
        ("schema".into(), Value::UInt(1)),
        ("runs".into(), Value::Array(runs)),
    ]);
    write_json(path, &file)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let regressions = compare::run(CONTRACT, a, b)?;
        println!("{regressions} regression(s)");
        return Ok(regressions == 0);
    }

    let cleared = env::sanitize()?;
    if !cleared.is_empty() {
        eprintln!("cleared from the environment: {}", cleared.join(" "));
    }
    let root = PathBuf::from(".");
    env::check_release_profiles(&root)?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = nproc.min(MAX_THREADS);
    zkperf_pool::set_threads(threads);

    let out_dir = root.join(OUT_DIR);
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let names: Vec<&'static str> = WORKLOADS
        .into_iter()
        .filter(|w| args.workload == "all" || args.workload == *w)
        .collect();
    let mut all_correct = true;
    for &traced in &args.passes {
        let mut entries = Vec::new();
        for &name in &names {
            let ctx = run_workload(name, args, traced, threads, &scratch);
            ctx.print_table();
            if traced {
                write_json(
                    &out_dir.join(format!("trace-{name}.json")),
                    &ctx.rec.to_json(name),
                )?;
            }
            all_correct &= ctx.failed() == 0;
            entries.push((name.to_string(), ctx.to_json()));
            // Last line of a workload's output: the driver's result object.
            println!("{}", ctx.result_line());
        }
        let run = Value::Object(vec![
            (
                "config".into(),
                env::provenance(threads, args.seed, args.seconds, args.smoke, traced),
            ),
            ("workloads".into(), Value::Object(entries)),
        ]);
        match &args.out {
            Some(path) => append_run(Path::new(path), run)?,
            None => {
                let suffix = if traced { ".trace" } else { "" };
                let path = out_dir.join(format!("{}{suffix}.json", args.workload));
                let _ = std::fs::remove_file(&path);
                append_run(&path, run)?;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zkperf-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("zkperf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
