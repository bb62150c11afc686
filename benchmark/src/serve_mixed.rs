//! `serve_mixed`: a seeded closed-loop trace through
//! `Server<Groth16Backend<Bn254>>`.
//!
//! The same `ec`/`groth16`/`io` layers as `groth16_exp_2e14`, used
//! differently: many small MSMs where window choice, GLV set-up and pool
//! dispatch dominate, batched instead of single verifies, `.zkey` reads
//! beside writes. A change that wins at 2^14 by costing small sizes, or
//! speeds single verify by slowing the batch path, shows here as a
//! `jobs_per_s` loss.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use zkperf_circuit::library;
use zkperf_core::{Groth16Backend, ProverBackend};
use zkperf_ec::Bn254;
use zkperf_ff::Field;
use zkperf_serve::{
    prove_serial, ArtifactCache, CircuitSpec, JobId, JobKind, JobOutcome, JobSpec, Priority,
    ServeReport, Server, ServerConfig,
};

use crate::harness::{Ctx, MIN_ROUNDS};
use crate::probes;
use crate::stats;

type Backend = Groth16Backend<Bn254>;

/// Jobs a closed-loop client keeps in flight.
const OUTSTANDING: usize = 8;
/// Jobs that hold every (kind, shape, priority) combination once: the
/// unit the seed shuffles.
const BLOCK: usize = 40;
/// Jobs after which the whole mix, deadlines included, repeats exactly.
const PERIOD: usize = 5 * BLOCK;
/// Generous: no job of an undisturbed run comes near it.
const DEADLINE: Duration = Duration::from_secs(30);
/// Rounds from one cold build of all four shapes to the next.
const BUILD_EVERY: usize = 8;
/// Witness and verify samples taken beside the direct (server-less) prove
/// sample of the largest shape that follows each round.
const DIRECT_CHEAP: usize = 2;

/// `log2` sizes of the four `exponentiate` shapes.
fn shapes(ctx: &Ctx) -> [u32; 4] {
    if ctx.smoke {
        [4, 5, 6, 8]
    } else {
        [6, 8, 10, 12]
    }
}

struct InFlight {
    id: JobId,
    spec: JobSpec,
    shape: u32,
    submitted: Instant,
}

/// One entry of the trace before it is bound to a proof.
#[derive(Debug, Clone, Copy)]
struct Planned {
    prove: bool,
    shape: u32,
    priority: Priority,
    deadline_free: bool,
}

/// One period of the trace: a fixed mix, shuffled by the seed in blocks of
/// [`BLOCK`] jobs — half prove and half verify, the four shapes in equal
/// parts, priorities 20/60/20, and 80 % of the verify jobs deadline-free so
/// the server can batch them. The mix is exact rather than drawn (over
/// every block, and over every [`PERIOD`] for the shapes and priorities of
/// the deadline-carrying verifies), so the seed changes the order and the
/// bases but not how much work a block holds or how it is spread.
fn plan_period(rng: &mut StdRng, shapes: &[u32; 4]) -> Vec<Planned> {
    const PRIORITIES: [Priority; 5] = [
        Priority::Low,
        Priority::Normal,
        Priority::Normal,
        Priority::Normal,
        Priority::High,
    ];
    let mut trace: Vec<Planned> = (0..PERIOD)
        .map(|i| Planned {
            prove: i % 2 == 0,
            shape: shapes[(i / 2) % 4],
            priority: PRIORITIES[(i / 8) % 5],
            deadline_free: !((i % BLOCK) / 2 + i / BLOCK).is_multiple_of(5),
        })
        .collect();
    for block in trace.chunks_mut(BLOCK) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
        }
    }
    trace
}

/// Binds a planned job to its inputs: a fresh base for a prove job, the
/// latest served proof of its shape for a verify job.
fn bind(
    rng: &mut StdRng,
    planned: Planned,
    proofs: &BTreeMap<u32, (CircuitSpec, Vec<u8>)>,
) -> JobSpec {
    match proofs.get(&planned.shape) {
        Some((circuit, proof)) if !planned.prove => JobSpec {
            circuit: circuit.clone(),
            kind: JobKind::Verify {
                proof: proof.clone(),
            },
            priority: planned.priority,
            deadline: (!planned.deadline_free).then_some(DEADLINE),
        },
        _ => JobSpec {
            circuit: CircuitSpec::exponentiate(1 << planned.shape, rng.gen_range(2..6)),
            kind: JobKind::Prove,
            priority: planned.priority,
            deadline: Some(DEADLINE),
        },
    }
}

fn open(dir: &Path) -> Result<Server<Backend>, String> {
    Server::open(dir, ServerConfig::default()).map_err(|e| e.to_string())
}

/// `max` (seconds) of a stage row: with one job per shape on a cold
/// server, the largest shape's sample.
fn row_max(report: &ServeReport, stage: &str) -> Option<f64> {
    report
        .stages
        .iter()
        .find(|r| r.stage == stage)
        .map(|r| r.max as f64 / 1e9)
}

/// Serves one prove job per shape, so every shape's keys are in the
/// server's memory afterwards — built if `dir` was empty, read from disk
/// if it was warm. Returns the served proof of each shape.
fn touch_all_shapes(
    ctx: &mut Ctx,
    server: &mut Server<Backend>,
) -> BTreeMap<u32, (CircuitSpec, Vec<u8>)> {
    let mut proofs = BTreeMap::new();
    let submitted: Vec<_> = shapes(ctx)
        .into_iter()
        .map(|shape| {
            let circuit = CircuitSpec::exponentiate(1 << shape, 2);
            let (id, _) = server.submit(JobSpec {
                circuit: circuit.clone(),
                kind: JobKind::Prove,
                priority: Priority::Normal,
                deadline: None,
            });
            (shape, circuit, id)
        })
        .collect();
    server.run_until_drained();
    for (shape, circuit, id) in submitted {
        if let Some(JobOutcome::Served { proof, .. }) = server.outcome(id) {
            proofs.insert(shape, (circuit, proof.clone()));
        }
    }
    ctx.check("set-up jobs served", proofs.len() == 4);
    proofs
}

/// Cold builds of all four shapes: a server opened on an empty directory
/// that compiles, generates keys and writes the `.zkey` of each.
#[derive(Default)]
struct ColdBuilds {
    /// Wall time of each build, open to drained.
    total_s: Vec<f64>,
    /// Compile of the largest shape, as the server reports it.
    compile_s: Vec<f64>,
    /// Key build of the largest shape, as the server reports it.
    keygen_s: Vec<f64>,
}

impl ColdBuilds {
    /// Builds in `dir`, emptied first; `false` when the server could not
    /// be opened or reported no build (the failure is already booked).
    fn sample(&mut self, ctx: &mut Ctx, dir: &Path) -> bool {
        // A bare `--trace` runs both passes in one process.
        let _ = std::fs::remove_dir_all(dir);
        let start = Instant::now();
        let mut server = match open(dir) {
            Ok(s) => s,
            Err(e) => {
                ctx.check(&format!("open cold server: {e}"), false);
                return false;
            }
        };
        let _ = touch_all_shapes(ctx, &mut server);
        ctx.check("four cold builds", server.cache_stats().builds == 4);
        let report = server.report();
        let (Some(compile), Some(keygen)) =
            (row_max(&report, "compile"), row_max(&report, "setup"))
        else {
            ctx.check("cold build reports compile and setup", false);
            return false;
        };
        self.total_s.push(start.elapsed().as_secs_f64());
        self.compile_s.push(compile);
        self.keygen_s.push(keygen);
        true
    }

    /// The fastest build so far, seconds.
    fn fastest(&self) -> f64 {
        stats::fastest(&self.total_s)
    }
}

/// What the closed loop leaves behind.
#[derive(Default)]
struct TraceLedger {
    /// Wall time of each round, seconds.
    round_wall_s: Vec<f64>,
    /// Latency of each prove job, submit to `Served`.
    latencies: Vec<f64>,
    /// Served proofs by `(constraints, base)`, for the byte comparison.
    served_proofs: BTreeMap<(usize, u64), Vec<Vec<u8>>>,
    queue_wait: Vec<f64>,
    /// Seconds spent inside `submit` and `step`.
    in_server_s: f64,
    submitted: usize,
    served: usize,
    verify_jobs: usize,
    rejected_proofs: usize,
    retries: u64,
}

/// Replays one round through `server`: submit until [`OUTSTANDING`] jobs
/// are pending, `step()`, harvest, until the round is served and drained.
fn replay_round(
    ctx: &Ctx,
    server: &mut Server<Backend>,
    round: &[Planned],
    rng: &mut StdRng,
    proofs: &mut BTreeMap<u32, (CircuitSpec, Vec<u8>)>,
    ledger: &mut TraceLedger,
) {
    let shapes = shapes(ctx);
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    while next < round.len() || !in_flight.is_empty() {
        while in_flight.len() < OUTSTANDING && next < round.len() {
            let shape = round[next].shape;
            let spec = bind(rng, round[next], proofs);
            next += 1;
            ledger.submitted += 1;
            let at = Instant::now();
            let (id, admitted) = ctx.rec.span("serve.submit", || server.submit(spec.clone()));
            ledger.in_server_s += at.elapsed().as_secs_f64();
            if admitted.is_ok() {
                in_flight.push(InFlight {
                    id,
                    spec,
                    shape,
                    submitted: at,
                });
            }
        }
        let step_start = Instant::now();
        server.step();
        let step_end = Instant::now();
        ledger.in_server_s += (step_end - step_start).as_secs_f64();

        // Harvest: whatever this step finished.
        let mut finished = Vec::new();
        in_flight.retain(|job| match server.outcome(job.id) {
            Some(outcome) => {
                finished.push((job.spec.clone(), job.shape, job.submitted, outcome.clone()));
                false
            }
            None => true,
        });
        let proves = finished
            .iter()
            .filter(|f| matches!(f.0.kind, JobKind::Prove))
            .count();
        let span = match (proves, finished.len()) {
            (1, 1) if finished[0].1 == shapes[0] => "serve.step_prove_2e6",
            (1, 1) if finished[0].1 == shapes[3] => "serve.step_prove_2e12",
            (1, 1) => "serve.step_prove_mid",
            (0, 1) => "serve.step_verify",
            (0, _) => "serve.step_verify_batch",
            _ => "serve.step_other",
        };
        ctx.rec.record(span, step_start, step_end);
        for (spec, _, at, outcome) in finished {
            let JobOutcome::Served {
                proof,
                verified,
                attempts,
            } = outcome
            else {
                continue;
            };
            ledger.served += 1;
            ledger.retries += u64::from(attempts.saturating_sub(1));
            match spec.kind {
                JobKind::Prove => {
                    ledger.latencies.push((step_end - at).as_secs_f64());
                    ledger
                        .queue_wait
                        .push((step_start.saturating_duration_since(at)).as_secs_f64());
                    let shape = spec.circuit.constraints.trailing_zeros();
                    proofs.insert(shape, (spec.circuit.clone(), proof.clone()));
                    let key = (spec.circuit.constraints, spec.circuit.public_inputs[0]);
                    ledger.served_proofs.entry(key).or_default().push(proof);
                }
                JobKind::Verify { .. } => {
                    ledger.verify_jobs += 1;
                    ledger.rejected_proofs += usize::from(verified != Some(true));
                }
            }
        }
    }
    ledger.round_wall_s.push(start.elapsed().as_secs_f64());
}

/// `witness_s`, `prove_s` and `verify_s` of this workload: the largest
/// shape's prove job and its verification as direct calls on the server's
/// own cached artifacts — the cost the serving path adds its queueing,
/// batching and bookkeeping to. Sampled after every round of the trace, so
/// that, like every other timing, it is taken over the whole run.
struct DirectLeg {
    dir: PathBuf,
    shape: u32,
    witness_s: Vec<f64>,
    prove_s: Vec<f64>,
    verify_s: Vec<f64>,
    failed: usize,
}

impl DirectLeg {
    fn new(dir: &Path, shape: u32) -> DirectLeg {
        DirectLeg {
            dir: dir.to_path_buf(),
            shape,
            witness_s: Vec::new(),
            prove_s: Vec::new(),
            verify_s: Vec::new(),
            failed: 0,
        }
    }

    /// Takes one prove sample, with its witness and verify samples, on a
    /// copy of the artifacts read from the server's directory and dropped
    /// again, so the rounds' `peak_live_bytes` holds the server's memory
    /// only.
    fn sample(&mut self, ctx: &Ctx) {
        type Fr = <Backend as ProverBackend>::Fr;
        let spec = CircuitSpec::exponentiate(1 << self.shape, 2);
        let loaded =
            ArtifactCache::<Backend>::open(&self.dir).and_then(|mut c| c.load_or_build(&spec));
        let Ok((entry, _)) = loaded else {
            self.failed += 1;
            return;
        };
        let (circuit, keys) = (&entry.circuit, &entry.keys);
        let mut witness = None;
        for _ in 0..DIRECT_CHEAP {
            let (out, secs) = ctx.timed("serve.direct_witness", || {
                circuit.generate_witness(&[Fr::from_u64(2)], &[])
            });
            self.witness_s.push(secs);
            witness = out.ok();
        }
        let Some(witness) = witness else {
            self.failed += 1;
            return;
        };
        let mut rng = ctx.seed.rng("serve.direct", self.prove_s.len() as u64);
        let (proof, secs) = ctx.timed("serve.direct_prove", || {
            Backend::prove(keys, circuit.r1cs(), &witness, &mut rng)
        });
        self.prove_s.push(secs);
        let Ok(proof) = proof else {
            self.failed += 1;
            return;
        };
        let bytes = Backend::encode_proof(&proof);
        for _ in 0..DIRECT_CHEAP {
            let (verdict, secs) = ctx.timed("serve.direct_verify", || {
                Backend::decode_proof(&bytes)
                    .and_then(|p| Backend::verify(keys, circuit.r1cs(), &p, witness.public()))
            });
            self.failed += usize::from(verdict != Ok(true));
            self.verify_s.push(secs);
        }
    }

    /// Books the samples as operations and records the three metrics;
    /// returns their values.
    fn finish(self, ctx: &mut Ctx) -> [f64; 3] {
        let taken = self.witness_s.len() + self.prove_s.len() + self.verify_s.len();
        ctx.ops(
            "direct witness, prove or verify",
            taken.saturating_sub(self.failed),
            self.failed,
        );
        [
            ctx.put_timing("witness_s", &self.witness_s),
            ctx.put_timing("prove_s", &self.prove_s),
            ctx.put_timing("verify_s", &self.verify_s),
        ]
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx, scratch: &Path) {
    let shapes = shapes(ctx);

    // Set-up: build all four shapes cold, drop the server, reopen it on the
    // warm directory and prime it, so the keys are read back from disk
    // before the timed trace and not by whichever eight jobs happen to
    // queue behind the first 2^12 one.
    let mut builds = ColdBuilds::default();
    let warm_dir = scratch.join("serve-0");
    if !builds.sample(ctx, &warm_dir) {
        return;
    }
    let reopen = Instant::now();
    let mut server = match open(&warm_dir) {
        Ok(s) => s,
        Err(e) => {
            ctx.check(&format!("reopen warm server: {e}"), false);
            return;
        }
    };
    let mut proofs = touch_all_shapes(ctx, &mut server);
    ctx.check("four disk hits", server.cache_stats().disk_hits == 4);
    let primed_busy = server.report().busy_nanos;
    let reopen_s = reopen.elapsed().as_secs_f64();

    // The timed trace: rounds of a closed loop, OUTSTANDING jobs in flight,
    // one block of the mix each and drained, so every round holds the same
    // work and a round is a sample of it. A direct sample follows each
    // round, and every few rounds another cold build in a directory of its
    // own: all of them over the whole run, until `--seconds` is used up.
    let max_rounds = match (ctx.smoke, ctx.traced()) {
        (true, _) => 1,
        // A traced run replays one period and spends the rest on probes.
        (false, true) => PERIOD / BLOCK,
        (false, false) => usize::MAX,
    };
    let mut rng = ctx.seed.rng("serve.trace", 0);
    let mut ledger = TraceLedger::default();
    let mut direct = DirectLeg::new(&warm_dir, shapes[3]);
    let mut peak_live = 0;
    let mut period = Vec::new();
    let mut round_cost = 0.0;
    for r in 0..max_rounds {
        if r >= MIN_ROUNDS && !ctx.fits(round_cost) {
            break;
        }
        // A build that no longer fits is left out and the rounds go on.
        let build_due = r > 0 && r % BUILD_EVERY == 0 && !ctx.traced();
        if build_due && ctx.fits(builds.fastest() + round_cost) {
            builds.sample(ctx, &scratch.join(format!("serve-{r}")));
        }
        if period.is_empty() {
            period = plan_period(&mut rng, &shapes);
        }
        let round: Vec<Planned> = period.drain(..BLOCK).collect();
        let round_start = Instant::now();
        ctx.rec.span("serve.round", || {
            zkperf_pool::mem::reset_peak();
            replay_round(ctx, &mut server, &round, &mut rng, &mut proofs, &mut ledger);
            peak_live = peak_live.max(zkperf_pool::mem::peak_live_bytes());
            direct.sample(ctx);
        });
        let took = round_start.elapsed().as_secs_f64();
        round_cost = if r == 0 { took } else { round_cost.min(took) };
    }
    let report = server.report();
    let TraceLedger {
        round_wall_s,
        latencies,
        served_proofs,
        queue_wait,
        in_server_s,
        submitted,
        served,
        verify_jobs,
        rejected_proofs,
        retries,
    } = ledger;
    let wall: f64 = round_wall_s.iter().sum();

    // Every submitted job is one operation; anything but `Served`, and a
    // verify job that rejected its honest proof, is a failure.
    let bad = submitted - served + rejected_proofs;
    ctx.ops(
        "job not served, or an honest proof rejected",
        submitted - bad,
        bad,
    );

    // Correctness, outside the timed trace.
    ctx.check(
        "accounting_errors() is empty",
        server.accounting_errors().is_empty(),
    );
    match ArtifactCache::<Backend>::open(&warm_dir) {
        Ok(mut serial) => {
            for (&(constraints, x), served) in &served_proofs {
                let reference =
                    prove_serial(&mut serial, &CircuitSpec::exponentiate(constraints, x));
                ctx.check(
                    &format!("served proofs of exp{constraints}({x}) equal prove_serial"),
                    reference.is_ok_and(|r| served.iter().all(|p| p == &r)),
                );
            }
        }
        Err(e) => ctx.check(&format!("open serial cache: {e}"), false),
    }
    if let Some((circuit, proof)) = proofs.values().next() {
        let mut wrong = circuit.clone();
        wrong.public_inputs[0] += 1;
        let (id, _) = server.submit(JobSpec {
            circuit: wrong,
            kind: JobKind::Verify {
                proof: proof.clone(),
            },
            priority: Priority::Normal,
            deadline: None,
        });
        server.run_until_drained();
        ctx.check(
            "proof for another public input is rejected",
            matches!(
                server.outcome(id),
                Some(JobOutcome::Served {
                    verified: Some(false),
                    ..
                })
            ),
        );
    }

    // End-to-end: the trace, and the five stages of the largest shape —
    // compile and keygen as the server timed them in the cold builds,
    // where they actually ran, the rest from the direct leg.
    let cold = [
        ctx.put_timing("compile_s", &builds.compile_s),
        ctx.put_timing("keygen_s", &builds.keygen_s),
    ];
    let direct = direct.finish(ctx);
    ctx.put("pipeline_s", cold.iter().chain(&direct).sum(), 5);
    ctx.put_noted(
        "setup_s",
        stats::low_percentile(&builds.total_s) + reopen_s,
        builds.total_s.len(),
        Some("cold build + reopen".into()),
    );
    let proof_len = proofs.values().next().map_or(0, |(_, p)| p.len());
    ctx.put(
        "proof_bytes",
        proof_len as f64,
        served_proofs.values().map(Vec::len).sum(),
    );
    ctx.put_noted(
        "peak_live_bytes",
        peak_live as f64,
        round_wall_s.len(),
        Some("max over the rounds".into()),
    );
    let per_job: Vec<f64> = round_wall_s.iter().map(|w| w / BLOCK as f64).collect();
    ctx.put_jobs_per_s(&per_job);

    if ctx.traced() {
        ctx.put_job_latencies(&latencies);
        let batch: Vec<f64> = ctx.rec.durations("serve.step_verify_batch");
        let batched = report.batched_verifies as f64;
        if !batch.is_empty() && batched > 0.0 {
            // Mean over the batches: total combined-check step time per
            // batched proof.
            ctx.put(
                "serve.step_verify_batch_per_proof_s",
                batch.iter().sum::<f64>() / batched,
                batch.len(),
            );
        }
        ctx.put_median("serve.queue_wait_p50_s", &queue_wait);
        ctx.put(
            "serve.verify_batch_share",
            batched / verify_jobs.max(1) as f64,
            verify_jobs,
        );
        let busy = (report.busy_nanos - primed_busy) as f64 / 1e9;
        ctx.put("serve.busy_fraction", busy / wall, 1);
        // What the server adds to the backend stages it times itself:
        // queueing, batching, bookkeeping.
        ctx.put(
            "serve.overhead_per_job_s",
            (in_server_s - busy) / served.max(1) as f64,
            served,
        );
        // A job records two spans: its submit and the step that served it.
        let service = ctx.get("job_p50_s").unwrap_or(0.0);
        if service > 0.0 {
            ctx.put(
                "trace_overhead",
                2.0 * crate::span::span_cost_s() / service,
                1,
            );
        }
        ctx.put("serve.retries", retries as f64, served);
        ctx.put("serve.rejected", report.rejected as f64, submitted);
        cache_probes(ctx, scratch, shapes[3]);
        batch16_probe(ctx, shapes[1]);
        probes::ec_small_and_dispatch(ctx);
    }
}

/// `serve.cache_{build,disk_hit}_2e12_s` and `serve.cache_mem_hit_s`:
/// `ArtifactCache::load_or_build` cold, from disk, from memory.
fn cache_probes(ctx: &mut Ctx, scratch: &Path, shape: u32) {
    let dir = scratch.join("cache-probe");
    let spec = CircuitSpec::exponentiate(1 << shape, 2);
    let mut ok = true;
    for span in ["serve.cache_build_2e12", "serve.cache_disk_hit_2e12"] {
        match ArtifactCache::<Backend>::open(&dir) {
            Ok(mut cache) => {
                ok &= ctx.rec.span(span, || cache.load_or_build(&spec)).is_ok();
                if span.contains("disk_hit") {
                    ok &= cache.stats().disk_hits == 1;
                    for _ in 0..33 {
                        ok &= ctx
                            .rec
                            .span("serve.cache_mem_hit", || cache.load_or_build(&spec))
                            .is_ok();
                    }
                }
            }
            Err(_) => ok = false,
        }
    }
    ctx.op("artifact cache: build, disk hit, memory hits", ok);
}

/// `groth16.verify_batch16_per_proof_s` on one of the trace's shapes.
fn batch16_probe(ctx: &mut Ctx, shape: u32) {
    type Fr = <Backend as ProverBackend>::Fr;
    let circuit = library::exponentiate::<Fr>(1 << shape);
    let keys = Backend::setup(circuit.r1cs(), &mut ctx.seed.rng("batch16.keys", 0));
    let witness = circuit.generate_witness(&[Fr::from_u64(3)], &[]);
    match (keys, witness) {
        (Ok(keys), Ok(witness)) => probes::groth16_verify_batch16(ctx, &keys, &circuit, &witness),
        _ => ctx.op("batch16 probe set-up", false),
    }
}
