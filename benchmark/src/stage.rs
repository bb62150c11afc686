//! The five-stage pipeline of one statement on one backend, driven only
//! through `ProverBackend`, `lang::compile` and `Circuit::generate_witness`.
//!
//! The same code serves the three `*_exp_2e14` workloads (one statement,
//! three backends, like for like) and the direct-cost leg of
//! `serve_mixed`.

use std::time::Instant;

use zkperf_circuit::{lang, library, Circuit, Witness};
use zkperf_core::{ProverBackend, StageError};
use zkperf_ff::Field;
use zkperf_pool as pool;

use crate::harness::{Ctx, MIN_ROUNDS};
use crate::span::Recorder;
use crate::stats;

/// A backend the stage pipeline can attribute to a layer.
pub trait Backend: ProverBackend {
    /// Span of `ProverBackend::setup`.
    const KEYGEN_SPAN: &'static str;
    /// Span of `ProverBackend::prove`.
    const PROVE_SPAN: &'static str;
    /// Span of `ProverBackend::verify`.
    const VERIFY_SPAN: &'static str;
    /// Span of `ProverBackend::encode_proof`.
    const ENCODE_SPAN: &'static str;
    /// Span of `ProverBackend::decode_proof`.
    const DECODE_SPAN: &'static str;
    /// `setup` calls per keygen sample: 1, except where a single call is
    /// too short to time (the transparent backend's parameter lookup).
    const KEYGEN_CALLS_PER_SAMPLE: usize = 1;
}

/// How a run's samples are laid out: in rounds of one prove job each,
/// with a few samples of every short stage around it and a keygen sample
/// every few rounds, so each stage is sampled at many moments over the
/// whole run and not in one block — on a shared host a slow spell lasts
/// seconds, and a stage whose block fell into one would have no clean
/// sample. Rounds are taken until `--seconds` is used up.
#[derive(Debug, Clone, Copy)]
pub struct StagePlan {
    /// Compile samples per round.
    pub compile: usize,
    /// Witness samples per round.
    pub witness: usize,
    /// Verify samples (decode + verify) per round.
    pub verify: usize,
    /// Rounds from one keygen sample to the next.
    pub keygen_every: usize,
    /// Rounds at most: a handful in a traced run, which spends its time on
    /// replays and probes; no limit but the clock otherwise.
    pub max_rounds: usize,
}

/// What the pipeline leaves behind for the layer probes.
pub struct Artifacts<B: Backend> {
    /// The compiled circuit.
    pub circuit: Circuit<B::Fr>,
    /// Keys from the first keygen sample.
    pub keys: B::Keys,
    /// The statement's witness.
    pub witness: Witness<B::Fr>,
    /// The reported time of each stage, in pipeline order
    /// (compile, keygen, witness, prove, verify).
    pub stage_s: [f64; 5],
}

fn book<T>(ctx: &mut Ctx, what: &str, out: Result<T, String>) -> Option<T> {
    match out {
        Ok(v) => {
            ctx.op(what, true);
            Some(v)
        }
        Err(e) => {
            ctx.op(&format!("{what}: {e}"), false);
            None
        }
    }
}

/// Runs `n` timed samples of `f` (each a span called `span` in a traced
/// run), appends their durations to `samples` and returns the last
/// sample's output.
fn sample<T>(
    ctx: &mut Ctx,
    what: &str,
    span: &str,
    n: usize,
    samples: &mut Vec<f64>,
    mut f: impl FnMut(&Ctx) -> Result<T, String>,
) -> Option<T> {
    let mut last = None;
    for _ in 0..n {
        let (out, secs) = ctx.timed(span, || f(ctx));
        last = book(ctx, what, out);
        samples.push(secs);
    }
    last
}

/// The statement `y = x^(2^log2)` for a seeded base `x`.
fn statement<B: Backend>(ctx: &Ctx, log2: u32) -> (String, B::Fr) {
    let source = library::exponentiate_source(1usize << log2);
    // Small enough for every field (Goldilocks is 64-bit), never 0 or 1.
    let x = 2 + ctx.seed.child("base", 0) % (1 << 62);
    (source, B::Fr::from_u64(x))
}

/// What a verifier holding untrusted bytes does: decode, then verify.
fn decode_and_verify<B: Backend>(
    rec: &Recorder,
    keys: &B::Keys,
    circuit: &Circuit<B::Fr>,
    bytes: &[u8],
    public: &[B::Fr],
) -> Result<bool, StageError> {
    let proof = rec.span(B::DECODE_SPAN, || B::decode_proof(bytes))?;
    rec.span(B::VERIFY_SPAN, || {
        B::verify(keys, circuit.r1cs(), &proof, public)
    })
}

/// Runs the pipeline for `2^log2` constraints on backend `B` and records
/// the end-to-end metrics. Returns `None` when a prerequisite stage failed
/// (the failure is already booked).
pub fn run<B: Backend>(ctx: &mut Ctx, log2: u32, plan: StagePlan) -> Option<Artifacts<B>> {
    let off = Recorder::new(false);
    let calls = B::KEYGEN_CALLS_PER_SAMPLE;
    let keygen_sample = |c: &Ctx, i: usize, circuit: &Circuit<B::Fr>| {
        let mut rng = c.seed.rng("keygen", i as u64);
        for _ in 1..calls {
            std::hint::black_box(B::setup(circuit.r1cs(), &mut rng).map_err(|e| e.to_string())?);
        }
        B::setup(circuit.r1cs(), &mut rng).map_err(|e| e.to_string())
    };

    // Set-up is everything before the first round: the inputs, the compile
    // keygen needs, the keygen whose keys the rest of the run uses (also
    // the first keygen sample, so the run pays for no keygen it does not
    // measure), the witness, and one untimed prove-and-verify round, which
    // pays for whatever the layers build lazily on first use (GLV and
    // pairing tables make a first verify ~3x slower).
    let (source, x) = statement::<B>(ctx, log2);
    let circuit = match lang::compile::<B::Fr>(&source) {
        Ok(circuit) => circuit,
        Err(e) => {
            ctx.check(&format!("set-up compile: {e}"), false);
            return None;
        }
    };
    ctx.check(
        "compiled constraint count",
        circuit.r1cs().num_constraints() == 1usize << log2,
    );
    let (mut compile, mut keygen, mut witness_samples, mut prove, mut verify) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let keys = sample(ctx, "keygen", B::KEYGEN_SPAN, 1, &mut keygen, |c| {
        keygen_sample(c, 0, &circuit)
    })?;
    let warm_up_start = Instant::now();
    let warmed_up = (|| -> Result<_, String> {
        let witness = circuit
            .generate_witness(&[x], &[])
            .map_err(|e| e.to_string())?;
        let mut rng = ctx.seed.rng("prove.warmup", 0);
        let proof =
            B::prove(&keys, circuit.r1cs(), &witness, &mut rng).map_err(|e| e.to_string())?;
        let bytes = B::encode_proof(&proof);
        match decode_and_verify::<B>(&off, &keys, &circuit, &bytes, witness.public()) {
            Ok(true) => Ok((witness, proof, bytes)),
            other => Err(format!("warm-up proof did not verify: {other:?}")),
        }
    })();
    let (witness, mut proof, mut proof_bytes) = match warmed_up {
        Ok(parts) => parts,
        Err(e) => {
            ctx.check(&format!("set-up warm-up: {e}"), false);
            return None;
        }
    };
    // What the clock is asked before an expensive sample: the fastest one
    // so far (the warm-up, cold, to begin with).
    let mut job_cost = warm_up_start.elapsed().as_secs_f64();
    let mut keygen_cost = keygen[0];
    let setup_s = ctx.started.elapsed().as_secs_f64();

    let max_rounds = if ctx.smoke {
        MIN_ROUNDS
    } else {
        plan.max_rounds
    };
    let mut jobs = Vec::new();
    let mut proofs: Vec<Vec<u8>> = Vec::new();
    let mut peak_live = 0u64;
    for r in 0..max_rounds {
        if r >= MIN_ROUNDS && !ctx.fits(job_cost) {
            break;
        }
        // Round 0's keygen sample is the one taken above; one that no
        // longer fits is left out and the short rounds go on.
        let keygen_due = r > 0 && r % plan.keygen_every == 0;
        if keygen_due && (r < MIN_ROUNDS || ctx.fits(keygen_cost + job_cost)) {
            sample(ctx, "keygen", B::KEYGEN_SPAN, 1, &mut keygen, |c| {
                keygen_sample(c, r, &circuit)
                    .map(std::hint::black_box)
                    .map(drop)
            });
            keygen_cost = stats::fastest(&keygen);
        }
        sample(
            ctx,
            "compile",
            "circuit.compile",
            plan.compile,
            &mut compile,
            |_| lang::compile::<B::Fr>(&source).map_err(|e| e.to_string()),
        );
        sample(
            ctx,
            "witness",
            "circuit.witness",
            plan.witness,
            &mut witness_samples,
            |_| {
                circuit
                    .generate_witness(&[x], &[])
                    .map_err(|e| e.to_string())
            },
        );

        // prove: one prove job as the server runs it with warm keys —
        // witness, prove, encode — so the rounds' jobs are a closed loop of
        // one client and a job's time is its latency.
        let job_start = Instant::now();
        let w = ctx
            .rec
            .span("circuit.witness", || circuit.generate_witness(&[x], &[]));
        let Ok(w) = w else {
            ctx.op("prove job: witness", false);
            continue;
        };
        pool::mem::reset_peak();
        let mut rng = ctx.seed.rng("prove", r as u64);
        let (out, secs) = ctx.timed(B::PROVE_SPAN, || {
            B::prove(&keys, circuit.r1cs(), &w, &mut rng)
        });
        peak_live = peak_live.max(pool::mem::peak_live_bytes());
        ctx.op("prove", out.is_ok());
        let Ok(fresh) = out else { continue };
        proof_bytes = ctx.rec.span(B::ENCODE_SPAN, || B::encode_proof(&fresh));
        jobs.push(job_start.elapsed().as_secs_f64());
        job_cost = stats::fastest(&jobs);
        prove.push(secs);
        proofs.push(proof_bytes.clone());
        proof = fresh;

        // verify: what a verifier holding untrusted bytes pays.
        sample(
            ctx,
            "verify",
            "stage.verify",
            plan.verify,
            &mut verify,
            |c| {
                match decode_and_verify::<B>(
                    &c.rec,
                    &keys,
                    &circuit,
                    &proof_bytes,
                    witness.public(),
                ) {
                    Ok(true) => Ok(()),
                    // `Ok(false)` on an honest proof is a failed operation too.
                    other => Err(format!("{other:?}")),
                }
            },
        );
    }
    if proofs.is_empty() {
        ctx.check("no proof was produced", false);
        return None;
    }

    // Correctness, outside the timed regions.
    for (i, bytes) in proofs.iter().enumerate() {
        let ok = decode_and_verify::<B>(&off, &keys, &circuit, bytes, witness.public());
        ctx.check(&format!("proof {i} verifies"), ok == Ok(true));
    }
    let mut tampered = witness.public().to_vec();
    if let Some(last) = tampered.last_mut() {
        *last += B::Fr::one();
    }
    ctx.check(
        "tampered public input is rejected",
        B::verify(&keys, circuit.r1cs(), &proof, &tampered) == Ok(false),
    );
    ctx.check(
        "decode(encode(p)) re-encodes to identical bytes",
        B::decode_proof(&proof_bytes).map(|p| B::encode_proof(&p)) == Ok(proof_bytes.clone()),
    );

    keygen.iter_mut().for_each(|s| *s /= calls as f64);
    let stage_s = [
        ctx.put_timing("compile_s", &compile),
        ctx.put_timing("keygen_s", &keygen),
        ctx.put_timing("witness_s", &witness_samples),
        ctx.put_timing("prove_s", &prove),
        ctx.put_timing("verify_s", &verify),
    ];
    ctx.put("setup_s", setup_s, 1);
    ctx.put_jobs_per_s(&jobs);
    ctx.put("pipeline_s", stage_s.iter().sum(), 5);
    ctx.put("proof_bytes", proof_bytes.len() as f64, proofs.len());
    ctx.put_noted(
        "peak_live_bytes",
        peak_live as f64,
        prove.len(),
        Some("max".into()),
    );
    if ctx.traced() {
        ctx.put_job_latencies(&jobs);
        // Spans one sample of each stage records (verify: the stage span
        // and its decode and verify children) against the sample's
        // duration (a keygen sample may hold many calls).
        let spans_per_sample = [1.0, 1.0, 1.0, 1.0, 3.0];
        let mut durations = stage_s;
        durations[1] *= calls as f64;
        let cost = crate::span::span_cost_s();
        let worst = durations
            .iter()
            .zip(spans_per_sample)
            .filter(|(d, _)| **d > 0.0)
            .map(|(d, spans)| spans * cost / d)
            .fold(0.0, f64::max);
        ctx.put("trace_overhead", worst, 5);
    }

    Some(Artifacts {
        circuit,
        keys,
        witness,
        stage_s,
    })
}

/// `pool.prove_speedup` and `pool.keygen_speedup`: the stage's time at
/// one thread over its time at the run's thread count.
pub fn pool_speedups<B: Backend>(ctx: &mut Ctx, art: &Artifacts<B>, keygens: usize, proves: usize) {
    let threads = ctx.threads;
    let r1cs = art.circuit.r1cs();
    let calls = B::KEYGEN_CALLS_PER_SAMPLE;
    pool::set_threads(1);
    let mut keygen_1t = Vec::with_capacity(keygens);
    for i in 0..keygens as u64 {
        let (ok, secs) = ctx.timed("pool.keygen_1thread", || {
            let mut rng = ctx.seed.rng("keygen.1thread", i);
            (0..calls).all(|_| std::hint::black_box(B::setup(r1cs, &mut rng)).is_ok())
        });
        ctx.op("keygen at 1 thread", ok);
        keygen_1t.push(secs / calls as f64);
    }
    let mut prove_1t = Vec::with_capacity(proves);
    for i in 0..proves as u64 {
        let (ok, secs) = ctx.timed("pool.prove_1thread", || {
            B::prove(
                &art.keys,
                r1cs,
                &art.witness,
                &mut ctx.seed.rng("prove.1thread", i),
            )
            .is_ok()
        });
        ctx.op("prove at 1 thread", ok);
        prove_1t.push(secs);
    }
    pool::set_threads(threads);
    let [_, keygen_nt, _, prove_nt, _] = art.stage_s;
    if keygen_nt > 0.0 && prove_nt > 0.0 {
        ctx.put(
            "pool.keygen_speedup",
            stats::low_percentile(&keygen_1t) / keygen_nt,
            keygen_1t.len(),
        );
        ctx.put(
            "pool.prove_speedup",
            stats::low_percentile(&prove_1t) / prove_nt,
            prove_1t.len(),
        );
    }
}
