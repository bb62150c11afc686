//! Open-loop load generator for zkperf-serve.
//!
//! Replays a seeded mixed trace (circuit sizes, priorities, deadlines,
//! prove/verify mix) through a [`Server`], optionally with the server's
//! fault injector armed (`--chaos SEED`), and prints the per-stage
//! p50/p99/p99.9 table plus cost-per-proof.
//!
//! Exit status is non-zero on any accounting violation: an accepted job
//! without a typed outcome, outcome/counter disagreement, a served proof
//! whose bytes differ from the serial reference path, or a failed job
//! whose error is not an injected fault (every job in the trace is
//! well-formed, so nothing else may fail it).
//!
//! ```text
//! loadgen [--jobs N] [--seed S] [--chaos SEED] [--max-depth D]
//!         [--verify-only-depth V] [--deadline-ms MS] [--cache-dir PATH]
//!         [--keep-cache]
//! ```

use std::process::ExitCode;
use std::time::Duration;

use rand::{Rng, SeedableRng};

use zkperf_core::{Groth16Backend, Stage, StageError};
use zkperf_ec::Bn254;
use zkperf_serve::{
    prove_serial, ArtifactCache, CircuitSpec, JobKind, JobOutcome, JobSpec, Priority,
    Server, ServerConfig,
};

struct Args {
    jobs: usize,
    seed: u64,
    chaos: Option<u64>,
    max_depth: usize,
    verify_only_depth: usize,
    deadline_ms: u64,
    cache_dir: Option<String>,
    keep_cache: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: 40,
        seed: 42,
        chaos: None,
        max_depth: 16,
        verify_only_depth: usize::MAX,
        deadline_ms: 30_000,
        cache_dir: None,
        keep_cache: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--jobs" => args.jobs = value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--chaos" => {
                args.chaos = Some(value("--chaos")?.parse().map_err(|e| format!("--chaos: {e}"))?)
            }
            "--max-depth" => {
                args.max_depth =
                    value("--max-depth")?.parse().map_err(|e| format!("--max-depth: {e}"))?
            }
            "--verify-only-depth" => {
                args.verify_only_depth = value("--verify-only-depth")?
                    .parse()
                    .map_err(|e| format!("--verify-only-depth: {e}"))?
            }
            "--deadline-ms" => {
                args.deadline_ms =
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")?),
            "--keep-cache" => args.keep_cache = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// One synthetic submission drawn from the trace RNG.
fn draw_job(rng: &mut rand::rngs::StdRng, deadline_ms: u64, proofs: &[(CircuitSpec, Vec<u8>)]) -> JobSpec {
    // Small/medium/large shape mix; sizes stay modest so the smoke tier
    // finishes quickly while still exercising multi-size cache reuse.
    let constraints = [16usize, 32, 64, 128][rng.gen_range(0..4) as usize];
    let x = rng.gen_range(2..12);
    let priority = match rng.gen_range(0..10) {
        0..=1 => Priority::Low,
        2..=7 => Priority::Normal,
        _ => Priority::High,
    };
    // Most jobs get a comfortable budget; a sliver get an impossible one
    // so the deadline path stays exercised.
    let deadline = if rng.gen_bool(0.05) {
        Some(Duration::from_nanos(1))
    } else {
        Some(Duration::from_millis(deadline_ms))
    };
    // A quarter of traffic re-verifies a previously served proof, when
    // one exists. Re-verification is latency-tolerant, so most of it runs
    // deadline-free — which also makes it eligible for the server's
    // batched pairing check; a slice keeps a deadline so that interaction
    // stays exercised too.
    let kind = if !proofs.is_empty() && rng.gen_bool(0.25) {
        let (spec, proof) = &proofs[rng.gen_range(0..proofs.len() as u64) as usize];
        return JobSpec {
            circuit: spec.clone(),
            kind: JobKind::Verify { proof: proof.clone() },
            priority,
            deadline: if rng.gen_bool(0.2) { deadline } else { None },
        };
    } else {
        JobKind::Prove
    };
    JobSpec {
        circuit: CircuitSpec::exponentiate(constraints, x),
        kind,
        priority,
        deadline,
    }
}

fn run() -> Result<Vec<String>, String> {
    let args = parse_args()?;
    let cache_dir = args.cache_dir.clone().unwrap_or_else(|| {
        format!(
            "{}/zkperf-loadgen-{}",
            std::env::temp_dir().display(),
            std::process::id()
        )
    });

    let cfg = ServerConfig {
        chaos: args.chaos,
        verify_only_depth: args.verify_only_depth,
        ..ServerConfig::default()
    };
    let mut cfg = cfg;
    cfg.admission.max_depth = args.max_depth;
    let mut server: Server<Groth16Backend<Bn254>> =
        Server::open(format!("{cache_dir}/server"), cfg).map_err(|e| e.to_string())?;

    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    let mut served_proofs: Vec<(CircuitSpec, Vec<u8>)> = Vec::new();
    let mut accepted: Vec<(u64, JobSpec)> = Vec::new();
    let mut rejected = 0usize;

    println!(
        "loadgen: {} jobs, seed {}, chaos {}, queue depth {}",
        args.jobs,
        args.seed,
        args.chaos.map_or_else(|| "off".to_string(), |s| s.to_string()),
        args.max_depth
    );

    for _ in 0..args.jobs {
        let spec = draw_job(&mut rng, args.deadline_ms, &served_proofs);
        let (id, admitted) = server.submit(spec.clone());
        match admitted {
            Ok(()) => accepted.push((id, spec)),
            Err(_) => rejected += 1,
        }
        // Open loop with bursts: drain a little between arrivals so the
        // queue breathes but can still back up.
        let steps = rng.gen_range(0..3);
        for _ in 0..steps {
            if server.step() {
                harvest_proofs(&server, &accepted, &mut served_proofs);
            }
        }
    }
    server.run_until_drained();
    harvest_proofs(&server, &accepted, &mut served_proofs);

    println!("{}", server.report());
    let stats = server.cache_stats();
    println!(
        "cache: {} mem hits, {} disk hits, {} builds, {} corrupt evictions",
        stats.mem_hits, stats.disk_hits, stats.builds, stats.corrupt_evictions
    );
    println!("admission: {} accepted, {} rejected at submit", accepted.len(), rejected);

    // --- audits ---------------------------------------------------------
    let mut errors = server.accounting_errors();

    // Every accepted prove job that was served must byte-match the
    // serial reference pipeline.
    let mut serial_cache: ArtifactCache<Groth16Backend<Bn254>> =
        ArtifactCache::open(format!("{cache_dir}/serial")).map_err(|e| e.to_string())?;
    let mut compared = 0usize;
    for (id, spec) in &accepted {
        if !matches!(spec.kind, JobKind::Prove) {
            continue;
        }
        if let Some(JobOutcome::Served { proof, .. }) = server.outcome(*id) {
            let reference =
                prove_serial(&mut serial_cache, &spec.circuit).map_err(|e| e.to_string())?;
            if proof != &reference {
                errors.push(format!("job {id}: served proof differs from serial path"));
            }
            compared += 1;
        }
    }
    println!("determinism: {compared} served proofs byte-checked against serial path");

    // Every job in the trace is well-formed, so the injector is the only
    // thing that may fail one (on its last attempt); any other error is a
    // bug in the pipeline or the server.
    let injected = Stage::ALL.map(|stage| StageError::Injected { stage }.to_string());
    let mut failed = 0usize;
    for (id, outcome) in server.outcomes() {
        if let JobOutcome::Failed { error, .. } = outcome {
            failed += 1;
            if !injected.contains(error) {
                errors.push(format!("job {id} failed on something other than an injected fault: {error}"));
            }
        }
    }
    println!("failures: {failed} failed job(s) checked for an injected fault");

    if !args.keep_cache {
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
    Ok(errors)
}

fn harvest_proofs(
    server: &Server<Groth16Backend<Bn254>>,
    accepted: &[(u64, JobSpec)],
    out: &mut Vec<(CircuitSpec, Vec<u8>)>,
) {
    for (id, spec) in accepted {
        if !matches!(spec.kind, JobKind::Prove) {
            continue;
        }
        if out.iter().any(|(s, _)| s == &spec.circuit) {
            continue;
        }
        if let Some(JobOutcome::Served { proof, .. }) = server.outcome(*id) {
            if !proof.is_empty() {
                out.push((spec.circuit.clone(), proof.clone()));
            }
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(errors) if errors.is_empty() => {
            println!("loadgen: OK");
            ExitCode::SUCCESS
        }
        Ok(errors) => {
            for e in &errors {
                eprintln!("loadgen: accounting error: {e}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
