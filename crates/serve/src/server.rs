//! The job server: admission → deadline → retry → breaker → degradation.
//!
//! Execution is a deterministic synchronous loop: [`Server::submit`]
//! performs admission (ticking the breaker clock), [`Server::step`] /
//! [`Server::run_until_drained`] execute queued jobs in priority order on
//! the calling thread (stage kernels still fan out over the global
//! work-stealing pool). Every submitted job ends with exactly one typed
//! [`JobOutcome`] — the accounting invariant the `serve_smoke` tier
//! checks under chaos.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use rand::SeedableRng;

use zkperf_core::{ProverBackend, Stage, StageError};
use zkperf_ff::Field;
use zkperf_io::{
    read_container_file, write_container_file, Container, Cursor, Payload,
};
use zkperf_pool::CancelToken;

use crate::breaker::{BreakerDecision, CircuitBreaker};
use crate::cache::{content_key, ArtifactCache, CacheStats, LoadTiming};
use crate::fault::FaultPlan;
use crate::job::{CircuitSpec, JobId, JobKind, JobOutcome, JobSpec, Priority, RejectReason};
use crate::metrics::{ServeReport, StageTable, DEFAULT_DOLLARS_PER_CPU_HOUR};
use crate::queue::{AdmissionConfig, AdmissionQueue, QueuedJob};
use crate::retry::RetryPolicy;

/// Container magic for drain checkpoints.
const MAGIC_CHECKPOINT: [u8; 4] = *b"zksv";
/// Checkpoint section holding the serialized job list.
const SEC_JOBS: u32 = 1;
/// Sentinel for "no deadline" in the checkpoint encoding.
const NO_DEADLINE: u64 = u64::MAX;

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queue depth and in-flight byte limits.
    pub admission: AdmissionConfig,
    /// Retry schedule for attempts that failed transiently (jittered
    /// exponential backoff; deterministic under its seed).
    pub retry: RetryPolicy,
    /// Terminal failures of one circuit shape before its breaker opens.
    pub breaker_threshold: u32,
    /// Submission ticks an open breaker waits before half-opening.
    pub breaker_cooldown_ticks: u64,
    /// Deadline applied to jobs that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Queue depth at which the service degrades to verify-only
    /// (recovers at half this depth). `usize::MAX` disables degradation.
    pub verify_only_depth: usize,
    /// Maximum verify jobs drained into one combined pairing check
    /// (`2k + 3` Miller loops instead of `4k`). Values below 2 disable
    /// batching. Only deadline-free verify jobs of the same circuit are
    /// batched; everything else keeps the per-job path.
    pub verify_batch_max: usize,
    /// Seed of the stage-boundary fault injector: `None` (the default)
    /// injects nothing; `Some(seed)` fails about one boundary in six with
    /// [`StageError::Injected`], the same boundaries for the same seed
    /// (`loadgen --chaos SEED`).
    pub chaos: Option<u64>,
    /// Price assumption for the cost-per-proof report line.
    pub dollars_per_cpu_hour: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            admission: AdmissionConfig::default(),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                jitter: 0.5,
                jitter_seed: 0x5e12_7e5e,
            },
            breaker_threshold: 3,
            breaker_cooldown_ticks: 16,
            default_deadline: None,
            verify_only_depth: usize::MAX,
            verify_batch_max: 8,
            chaos: None,
            dollars_per_cpu_hour: DEFAULT_DOLLARS_PER_CPU_HOUR,
        }
    }
}

/// Per-job resume results: `(original id, new id or typed rejection)`.
pub type ResumeOutcomes = Vec<(JobId, Result<JobId, RejectReason>)>;

/// A failed attempt, sorted by whether running the job again can change
/// the outcome.
enum AttemptError {
    /// An injected fault (its chaos label carries the attempt number) or an
    /// artifact-cache read or write (the next attempt re-reads the entry or
    /// rebuilds it).
    Transient(StageError),
    /// A function of the job spec alone — a circuit that does not compile,
    /// an unsatisfied witness, proof bytes that do not decode — or a
    /// cancellation: another attempt ends the same way.
    Terminal(StageError),
}

impl From<StageError> for AttemptError {
    fn from(e: StageError) -> Self {
        match e {
            StageError::Injected { .. } | StageError::Artifact { .. } => AttemptError::Transient(e),
            e => AttemptError::Terminal(e),
        }
    }
}

/// The service's degradation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Accepting all job kinds.
    Normal,
    /// Overloaded: prove jobs refused, verify jobs still served.
    VerifyOnly,
    /// Shutting down: all new jobs refused.
    Draining,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: u64,
    served: u64,
    proofs: u64,
    rejected: u64,
    shed: u64,
    deadline_exceeded: u64,
    failed: u64,
    cancelled: u64,
    verify_batches: u64,
    batched_verifies: u64,
}

/// A proving-as-a-service instance over proving backend `B`.
pub struct Server<B: ProverBackend> {
    cfg: ServerConfig,
    queue: AdmissionQueue,
    breaker: CircuitBreaker,
    cache: ArtifactCache<B>,
    metrics: StageTable,
    outcomes: BTreeMap<JobId, JobOutcome>,
    deadlines: HashMap<JobId, Instant>,
    mode: ServiceMode,
    tick: u64,
    next_id: JobId,
    next_seq: u64,
    counters: Counters,
}

/// Randomness seed for proving `spec`: a pure function of the circuit
/// content key and the job's inputs, so retries, resubmissions, and the
/// serial path all produce byte-identical proofs.
fn prove_seed(key: u64, spec: &CircuitSpec) -> u64 {
    let mut h: u64 = 0x70_1e5e ^ key;
    for &v in spec.public_inputs.iter().chain(&spec.private_inputs) {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3).rotate_left(17);
    }
    h
}

impl<B: ProverBackend> Server<B> {
    /// Opens a server whose artifact cache lives under `cache_dir`.
    ///
    /// # Errors
    ///
    /// [`StageError::Artifact`] when the cache directory cannot be
    /// created.
    pub fn open(cache_dir: impl Into<std::path::PathBuf>, cfg: ServerConfig) -> Result<Server<B>, StageError> {
        let cache = ArtifactCache::open(cache_dir)?;
        Ok(Server {
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ticks),
            queue: AdmissionQueue::new(cfg.admission.clone()),
            cache,
            cfg,
            metrics: StageTable::new(),
            outcomes: BTreeMap::new(),
            deadlines: HashMap::new(),
            mode: ServiceMode::Normal,
            tick: 0,
            next_id: 1,
            next_seq: 0,
            counters: Counters::default(),
        })
    }

    /// Current degradation state.
    pub fn mode(&self) -> ServiceMode {
        self.mode
    }

    /// Submission ticks elapsed (the breaker clock).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Ids currently queued, in execution order.
    pub fn queued_ids(&self) -> Vec<JobId> {
        self.queue.queued_ids()
    }

    /// Artifact cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The outcome recorded for `id`, if it has one yet.
    pub fn outcome(&self, id: JobId) -> Option<&JobOutcome> {
        self.outcomes.get(&id)
    }

    /// All recorded outcomes, ordered by job id.
    pub fn outcomes(&self) -> impl Iterator<Item = (JobId, &JobOutcome)> {
        self.outcomes.iter().map(|(&id, o)| (id, o))
    }

    /// Submits a job. Always returns the assigned id; the `Err` side
    /// carries the typed admission rejection (also recorded as the job's
    /// outcome).
    pub fn submit(&mut self, spec: JobSpec) -> (JobId, Result<(), RejectReason>) {
        let id = self.next_id;
        self.next_id += 1;
        self.tick += 1;
        self.counters.submitted += 1;

        if let Err(reason) = self.admit(id, spec) {
            self.counters.rejected += 1;
            self.outcomes
                .insert(id, JobOutcome::Rejected { reason: reason.clone() });
            return (id, Err(reason));
        }
        self.update_mode();
        (id, Ok(()))
    }

    fn admit(&mut self, id: JobId, spec: JobSpec) -> Result<(), RejectReason> {
        match self.mode {
            ServiceMode::Draining => return Err(RejectReason::Draining),
            ServiceMode::VerifyOnly if matches!(spec.kind, JobKind::Prove) => {
                return Err(RejectReason::VerifyOnly)
            }
            _ => {}
        }

        let key = content_key(B::label(), &spec.circuit.source);
        let key_label = format!("{key:016x}");
        match self.breaker.check(&key_label, self.tick) {
            BreakerDecision::Reject { until_tick } => {
                return Err(RejectReason::CircuitOpen { key, until_tick })
            }
            BreakerDecision::Allow | BreakerDecision::Probe => {}
        }

        let deadline = spec.deadline.or(self.cfg.default_deadline);
        let cost_bytes = spec.circuit.estimated_bytes();
        let seq = self.next_seq;
        self.next_seq += 1;
        let shed = self.queue.admit(QueuedJob {
            id,
            spec,
            cost_bytes,
            seq,
        })?;
        if let Some(victim) = shed {
            self.counters.shed += 1;
            self.counters.rejected += 1;
            self.deadlines.remove(&victim.id);
            self.outcomes.insert(
                victim.id,
                JobOutcome::Rejected {
                    reason: RejectReason::Shed { by: id },
                },
            );
        }
        if let Some(d) = deadline {
            self.deadlines.insert(id, Instant::now() + d);
        }
        Ok(())
    }

    fn update_mode(&mut self) {
        if self.mode == ServiceMode::Draining {
            return;
        }
        let depth = self.queue.depth();
        if depth >= self.cfg.verify_only_depth {
            self.mode = ServiceMode::VerifyOnly;
        } else if depth <= self.cfg.verify_only_depth / 2 {
            self.mode = ServiceMode::Normal;
        }
    }

    /// Executes the next queued job — or, when the head of the queue is a
    /// deadline-free verify job, drains up to
    /// [`ServerConfig::verify_batch_max`] same-circuit verify jobs behind
    /// it into one combined pairing check. Returns false when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(job) = self.queue.pop() else {
            return false;
        };
        let mut batch = self.collect_verify_batch(job);
        if batch.len() >= 2 {
            self.execute_verify_batch(batch);
        } else if let Some(job) = batch.pop() {
            self.finish_single(job);
        }
        true
    }

    /// The per-job execution path: retry loop, outcome recording, byte
    /// release, mode update.
    fn finish_single(&mut self, job: QueuedJob) {
        let cost = job.cost_bytes;
        let outcome = self.execute(job.id, &job.spec);
        match &outcome {
            JobOutcome::Served { proof, .. } => {
                self.counters.served += 1;
                if !proof.is_empty() {
                    self.counters.proofs += 1;
                }
            }
            JobOutcome::DeadlineExceeded { .. } => self.counters.deadline_exceeded += 1,
            JobOutcome::Cancelled { .. } => self.counters.cancelled += 1,
            JobOutcome::Failed { .. } => self.counters.failed += 1,
            JobOutcome::Rejected { .. } => self.counters.rejected += 1,
        }
        self.outcomes.insert(job.id, outcome);
        self.queue.release(cost);
        self.update_mode();
    }

    /// Starting from the already-popped `first`, pulls consecutive
    /// next-in-order verify jobs that share its circuit and carry no
    /// deadline. Returns a single-element vector when `first` is not
    /// batchable (prove job, deadline attached, batching disabled, or no
    /// eligible followers).
    fn collect_verify_batch(&mut self, first: QueuedJob) -> Vec<QueuedJob> {
        let batchable = |deadlines: &HashMap<JobId, Instant>, j: &QueuedJob| {
            matches!(j.spec.kind, JobKind::Verify { .. }) && !deadlines.contains_key(&j.id)
        };
        let mut batch = vec![first];
        if self.cfg.verify_batch_max < 2 || !batchable(&self.deadlines, &batch[0]) {
            return batch;
        }
        let key = content_key(B::label(), &batch[0].spec.circuit.source);
        while batch.len() < self.cfg.verify_batch_max {
            let deadlines = &self.deadlines;
            let Some(next) = self.queue.pop_if(|j| {
                batchable(deadlines, j) && content_key(B::label(), &j.spec.circuit.source) == key
            }) else {
                break;
            };
            batch.push(next);
        }
        batch
    }

    /// One pre-verify probe of a batched job: the compile/witness stages
    /// and proof parsing exactly as the per-job pipeline runs them
    /// (including chaos gates, so an injection here reproduces identically
    /// when the job falls back to the individual retry path).
    #[allow(clippy::type_complexity)]
    fn probe_verify(
        &mut self,
        job: &QueuedJob,
    ) -> Result<(B::Proof, Vec<B::Fr>, LoadTiming, u64), StageError> {
        self.pre_stage(job.id, 1, Stage::Compile)?;
        let (entry, timing) = self.cache.load_or_build(&job.spec.circuit)?;
        if entry.circuit.r1cs().num_constraints() != job.spec.circuit.constraints {
            return Err(StageError::ConstraintCountMismatch {
                declared: job.spec.circuit.constraints,
                compiled: entry.circuit.r1cs().num_constraints(),
            });
        }

        self.pre_stage(job.id, 1, Stage::Witness)?;
        let start = Instant::now();
        let to_field = |vals: &[u64]| -> Vec<B::Fr> {
            vals.iter().map(|&v| B::Fr::from_u64(v)).collect()
        };
        let witness = entry.circuit.generate_witness(
            &to_field(&job.spec.circuit.public_inputs),
            &to_field(&job.spec.circuit.private_inputs),
        )?;
        let witness_nanos = start.elapsed().as_nanos() as u64;

        self.pre_stage(job.id, 1, Stage::Verifying)?;
        let JobKind::Verify { proof } = &job.spec.kind else {
            return Err(StageError::Cancelled {
                stage: Stage::Verifying,
            });
        };
        let parsed = B::decode_proof(proof)?;
        Ok((parsed, witness.public().to_vec(), timing, witness_nanos))
    }

    /// Runs `batch` (≥ 2 same-circuit verify jobs) through the backend's
    /// combined check ([`ProverBackend::verify_batch`]; for Groth16 one
    /// random-linear-combination pairing check — `2k + 3` Miller loops
    /// instead of `4k`). RLC coefficients come from an rng seeded purely
    /// by the batch's job content, so replays are deterministic. Jobs
    /// whose pre-verify stages fail, every job of a batch whose combined
    /// check does not pass, and all jobs of backends with no batch path
    /// (`None`) fall back to the standard per-job path for individual
    /// outcomes.
    fn execute_verify_batch(&mut self, batch: Vec<QueuedJob>) {
        let mut ready = Vec::with_capacity(batch.len());
        let mut singles = Vec::new();
        for job in batch {
            match self.probe_verify(&job) {
                Ok(parts) => ready.push((job, parts)),
                Err(_) => singles.push(job),
            }
        }

        if ready.len() >= 2 {
            // All ready jobs share a circuit; fetch the shared entry once
            // (memory hit) for the key and verification key.
            match self.cache.load_or_build(&ready[0].0.spec.circuit) {
                Ok((entry, _)) => {
                    let mut seed = 0x6a7c_ba7c ^ entry.key;
                    for (job, _) in &ready {
                        seed = seed.rotate_left(21)
                            ^ prove_seed(entry.key, &job.spec.circuit)
                            ^ job.id;
                    }
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let items: Vec<(B::Proof, Vec<B::Fr>)> = ready
                        .iter()
                        .map(|(_, (proof, public, _, _))| (proof.clone(), public.clone()))
                        .collect();
                    let start = Instant::now();
                    let verdict = B::verify_batch(&entry.keys, &items, &mut rng);
                    let batch_nanos = start.elapsed().as_nanos() as u64;
                    if matches!(verdict, Some(true)) {
                        let per_job = batch_nanos / ready.len() as u64;
                        self.counters.verify_batches += 1;
                        self.counters.batched_verifies += ready.len() as u64;
                        for (job, (_, _, timing, witness_nanos)) in ready {
                            let key_label =
                                format!("{:016x}", content_key(B::label(), &job.spec.circuit.source));
                            self.breaker.record_success(&key_label);
                            self.metrics.record("compile", timing.compile_nanos);
                            self.metrics.record("setup", timing.setup_nanos);
                            self.metrics.record("witness", witness_nanos);
                            self.metrics.record("verify", per_job);
                            self.counters.served += 1;
                            self.outcomes.insert(
                                job.id,
                                JobOutcome::Served {
                                    proof: Vec::new(),
                                    verified: Some(true),
                                    attempts: 1,
                                },
                            );
                            self.queue.release(job.cost_bytes);
                        }
                    } else {
                        // Some member is invalid (or inputs were
                        // malformed): re-run individually so each job gets
                        // its own verdict.
                        singles.extend(ready.into_iter().map(|(job, _)| job));
                    }
                }
                Err(_) => singles.extend(ready.into_iter().map(|(job, _)| job)),
            }
        } else {
            singles.extend(ready.into_iter().map(|(job, _)| job));
        }

        for job in singles {
            self.finish_single(job);
        }
        self.update_mode();
    }

    /// Runs [`Server::step`] until the queue is empty.
    pub fn run_until_drained(&mut self) {
        while self.step() {}
    }

    /// The retry loop around one job: a transient failure is retried after
    /// the policy's jittered backoff, a terminal one ends the job at once,
    /// cancellation short-circuits, and the breaker records the terminal
    /// result for the circuit shape.
    fn execute(&mut self, id: JobId, spec: &JobSpec) -> JobOutcome {
        let key = content_key(B::label(), &spec.circuit.source);
        let key_label = format!("{key:016x}");
        let deadline = self.deadlines.remove(&id);
        let token = match deadline {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::new(),
        };
        let has_deadline = deadline.is_some();

        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.run_attempt(id, attempts, spec, &token) {
                Ok((proof, verified)) => {
                    // A result computed after the deadline is still a
                    // deadline miss: the client has moved on. The shape
                    // itself worked, so the breaker records success.
                    self.breaker.record_success(&key_label);
                    if token.is_cancelled() {
                        return self.late_outcome(has_deadline, "complete", attempts);
                    }
                    return JobOutcome::Served {
                        proof,
                        verified,
                        attempts,
                    };
                }
                Err(AttemptError::Terminal(e)) if e.is_cancellation() => {
                    let stage = match &e {
                        StageError::Cancelled { stage } => stage.name(),
                        _ => "unknown",
                    };
                    return self.late_outcome(has_deadline, stage, attempts);
                }
                Err(AttemptError::Transient(_)) if attempts < self.cfg.retry.max_attempts => {
                    let backoff = self.cfg.retry.backoff_before(attempts + 1);
                    if let Some(remaining) = token.remaining() {
                        if remaining <= backoff {
                            // Retrying cannot finish in time; convert to
                            // a deadline miss now instead of burning CPU.
                            return self.late_outcome(has_deadline, "backoff", attempts);
                        }
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                Err(AttemptError::Terminal(e) | AttemptError::Transient(e)) => {
                    self.breaker.record_failure(&key_label, self.tick);
                    return JobOutcome::Failed {
                        error: e.to_string(),
                        attempts,
                    };
                }
            }
        }
    }

    fn late_outcome(&self, has_deadline: bool, stage: &str, attempts: u32) -> JobOutcome {
        if has_deadline {
            JobOutcome::DeadlineExceeded {
                stage: stage.to_string(),
                attempts,
            }
        } else {
            JobOutcome::Cancelled {
                stage: stage.to_string(),
            }
        }
    }

    /// Chaos + cancellation gate at a stage boundary.
    fn pre_stage(&self, id: JobId, attempt: u32, stage: Stage) -> Result<(), StageError> {
        if zkperf_pool::cancellation_pending() {
            return Err(StageError::Cancelled { stage });
        }
        if let Some(seed) = self.cfg.chaos {
            let label = format!("serve:{id}:{attempt}:{}", stage.name());
            if FaultPlan::from_seed(seed).derive(&label).chance(1, 6) {
                return Err(StageError::Injected { stage });
            }
        }
        Ok(())
    }

    /// One attempt of the full pipeline, with the cancel token installed
    /// as the thread's ambient scope so kernels (and the pool tasks they
    /// spawn) observe the deadline at their own checkpoints.
    fn run_attempt(
        &mut self,
        id: JobId,
        attempt: u32,
        spec: &JobSpec,
        token: &CancelToken,
    ) -> Result<(Vec<u8>, Option<bool>), AttemptError> {
        let _scope = token.enter();

        self.pre_stage(id, attempt, Stage::Compile)?;
        let streamed0 = zkperf_pool::mem::streamed_bytes();
        let (entry, timing) = self.cache.load_or_build(&spec.circuit)?;
        self.metrics.record("compile", timing.compile_nanos);
        self.metrics.record("setup", timing.setup_nanos);
        // A budgeted setup streams its key material; a cache hit streams
        // nothing — either way the delta belongs to the setup stage.
        self.metrics.record_streamed(
            "setup",
            zkperf_pool::mem::streamed_bytes().saturating_sub(streamed0),
        );
        if entry.circuit.r1cs().num_constraints() != spec.circuit.constraints {
            return Err(StageError::ConstraintCountMismatch {
                declared: spec.circuit.constraints,
                compiled: entry.circuit.r1cs().num_constraints(),
            }
            .into());
        }

        self.pre_stage(id, attempt, Stage::Witness)?;
        let start = Instant::now();
        let to_field = |vals: &[u64]| -> Vec<B::Fr> {
            vals.iter().map(|&v| B::Fr::from_u64(v)).collect()
        };
        let witness = entry
            .circuit
            .generate_witness(
                &to_field(&spec.circuit.public_inputs),
                &to_field(&spec.circuit.private_inputs),
            )
            .map_err(StageError::Witness)?;
        self.metrics.record("witness", start.elapsed().as_nanos() as u64);

        match &spec.kind {
            JobKind::Prove => {
                self.pre_stage(id, attempt, Stage::Proving)?;
                let start = Instant::now();
                let streamed0 = zkperf_pool::mem::streamed_bytes();
                let mut rng = rand::rngs::StdRng::seed_from_u64(prove_seed(entry.key, &spec.circuit));
                let proof = B::prove(&entry.keys, entry.circuit.r1cs(), &witness, &mut rng)?;
                let bytes = B::encode_proof(&proof);
                self.metrics.record("prove", start.elapsed().as_nanos() as u64);
                self.metrics.record_streamed(
                    "prove",
                    zkperf_pool::mem::streamed_bytes().saturating_sub(streamed0),
                );
                Ok((bytes, None))
            }
            JobKind::Verify { proof } => {
                self.pre_stage(id, attempt, Stage::Verifying)?;
                let start = Instant::now();
                // The job's own bytes, not a cache file: an `Artifact`
                // error here does not change on the next attempt.
                let parsed = B::decode_proof(proof).map_err(AttemptError::Terminal)?;
                let ok = B::verify(&entry.keys, entry.circuit.r1cs(), &parsed, witness.public())?;
                self.metrics.record("verify", start.elapsed().as_nanos() as u64);
                Ok((Vec::new(), Some(ok)))
            }
        }
    }

    /// Enters draining mode and writes every still-queued job to a
    /// checkpoint container at `path`. Each drained job gets a typed
    /// [`JobOutcome::Cancelled`] outcome; a successor process can
    /// [`Server::resume_from_checkpoint`] to re-admit them. Returns the
    /// number of jobs checkpointed.
    ///
    /// # Errors
    ///
    /// [`StageError::Artifact`] when the checkpoint cannot be written;
    /// the drained jobs' outcomes are recorded either way.
    pub fn drain_to_checkpoint(&mut self, path: &Path) -> Result<usize, StageError> {
        self.mode = ServiceMode::Draining;
        let jobs = self.queue.drain_all();
        let mut body = Payload::default();
        body.u64(jobs.len() as u64);
        for job in &jobs {
            encode_job(&mut body, job);
        }
        for job in &jobs {
            self.deadlines.remove(&job.id);
            self.counters.cancelled += 1;
            self.outcomes.insert(
                job.id,
                JobOutcome::Cancelled {
                    stage: "drained-to-checkpoint".to_string(),
                },
            );
        }
        let mut container = Container::new(MAGIC_CHECKPOINT);
        container.push_section(SEC_JOBS, body.0);
        write_container_file(path, &container)?;
        Ok(jobs.len())
    }

    /// Re-admits jobs from a drain checkpoint. Deadline budgets restart
    /// from now (the original wall-clock deadlines died with the original
    /// process). Returns `(original_id, submit result)` per job, in
    /// checkpoint order.
    ///
    /// # Errors
    ///
    /// [`StageError::Artifact`] when the checkpoint is unreadable or
    /// malformed (truncation and checksum mismatches are detected by the
    /// container layer, never replayed as jobs).
    pub fn resume_from_checkpoint(
        &mut self,
        path: &Path,
    ) -> Result<ResumeOutcomes, StageError> {
        let container = read_container_file(path, MAGIC_CHECKPOINT)?;
        let bad = |detail: String| StageError::Artifact {
            path: path.display().to_string(),
            detail,
        };
        let section = container
            .section(SEC_JOBS)
            .map_err(|e| bad(e.to_string()))?;
        let mut cur = Cursor::new(section);
        let count = cur.u64().map_err(|e| bad(e.to_string()))?;
        let mut results = Vec::new();
        for _ in 0..count {
            let (old_id, spec) = decode_job(&mut cur).map_err(|e| bad(e.to_string()))?;
            let (new_id, admitted) = self.submit(spec);
            results.push((old_id, admitted.map(|()| new_id)));
        }
        Ok(results)
    }

    /// The latency/cost report over everything this server has executed.
    pub fn report(&self) -> ServeReport {
        ServeReport::new(
            &self.metrics,
            self.counters.served,
            self.counters.proofs,
            self.counters.rejected,
            self.counters.deadline_exceeded,
            self.counters.failed,
            self.counters.cancelled,
            self.counters.verify_batches,
            self.counters.batched_verifies,
            self.cfg.dollars_per_cpu_hour,
            crate::metrics::MemoryStats::capture(),
        )
    }

    /// Audits the accounting invariant: every submitted job either has
    /// exactly one recorded outcome or is still queued, and the outcome
    /// counters agree with the outcome map. Returns human-readable
    /// violations (empty = sound).
    pub fn accounting_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let queued = self.queue.queued_ids();
        for id in 1..self.next_id {
            let has_outcome = self.outcomes.contains_key(&id);
            let is_queued = queued.contains(&id);
            match (has_outcome, is_queued) {
                (true, true) => {
                    errors.push(format!("job {id} both queued and completed"))
                }
                (false, false) => {
                    errors.push(format!("job {id} accepted but unaccounted"))
                }
                _ => {}
            }
        }
        let submitted = self.counters.submitted as usize;
        if self.outcomes.len() + queued.len() != submitted {
            errors.push(format!(
                "{} outcomes + {} queued != {} submitted",
                self.outcomes.len(),
                queued.len(),
                submitted
            ));
        }
        let terminal = self.counters.served
            + self.counters.rejected
            + self.counters.deadline_exceeded
            + self.counters.failed
            + self.counters.cancelled;
        if terminal as usize != self.outcomes.len() {
            errors.push(format!(
                "counter total {terminal} != {} recorded outcomes",
                self.outcomes.len()
            ));
        }
        errors
    }
}

fn encode_job(body: &mut Payload, job: &QueuedJob) {
    body.u64(job.id);
    body.u32(u32::from(job.spec.priority.rank()));
    let deadline = job
        .spec
        .deadline
        .map_or(NO_DEADLINE, |d| d.as_nanos() as u64);
    body.u64(deadline);
    let circuit = &job.spec.circuit;
    encode_str(body, &circuit.name);
    encode_str(body, &circuit.source);
    body.u64(circuit.constraints as u64);
    encode_u64s(body, &circuit.public_inputs);
    encode_u64s(body, &circuit.private_inputs);
    match &job.spec.kind {
        JobKind::Prove => body.u32(0),
        JobKind::Verify { proof } => {
            body.u32(1);
            body.u32(proof.len() as u32);
            body.bytes(proof);
        }
    }
}

fn decode_job(cur: &mut Cursor<'_>) -> Result<(JobId, JobSpec), zkperf_io::FormatError> {
    let id = cur.u64()?;
    let priority = Priority::from_rank(cur.u32()? as u8);
    let deadline = match cur.u64()? {
        NO_DEADLINE => None,
        nanos => Some(Duration::from_nanos(nanos)),
    };
    let name = decode_str(cur)?;
    let source = decode_str(cur)?;
    let constraints = cur.u64()? as usize;
    let public_inputs = decode_u64s(cur)?;
    let private_inputs = decode_u64s(cur)?;
    let kind = match cur.u32()? {
        0 => JobKind::Prove,
        _ => {
            let len = cur.u32()? as usize;
            JobKind::Verify {
                proof: cur.take(len)?.to_vec(),
            }
        }
    };
    Ok((
        id,
        JobSpec {
            circuit: CircuitSpec {
                name,
                source,
                constraints,
                public_inputs,
                private_inputs,
            },
            kind,
            priority,
            deadline,
        },
    ))
}

fn encode_str(body: &mut Payload, s: &str) {
    body.u32(s.len() as u32);
    body.bytes(s.as_bytes());
}

fn decode_str(cur: &mut Cursor<'_>) -> Result<String, zkperf_io::FormatError> {
    let len = cur.u32()? as usize;
    let bytes = cur.take(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| zkperf_io::FormatError::Corrupt("checkpoint string is not UTF-8"))
}

fn encode_u64s(body: &mut Payload, vals: &[u64]) {
    body.u32(vals.len() as u32);
    for &v in vals {
        body.u64(v);
    }
}

fn decode_u64s(cur: &mut Cursor<'_>) -> Result<Vec<u64>, zkperf_io::FormatError> {
    let len = cur.u32()? as usize;
    (0..len).map(|_| cur.u64()).collect()
}

/// The serial reference path: the same compile/setup/witness/prove
/// pipeline and the same derived randomness as [`Server`], with no queue,
/// retries, or chaos in the way. Accepted server jobs must byte-match
/// this output — the determinism oracle used by the overload test and the
/// smoke tier.
///
/// # Errors
///
/// The same [`StageError`]s the server-side pipeline produces.
pub fn prove_serial<B: ProverBackend>(
    cache: &mut ArtifactCache<B>,
    spec: &CircuitSpec,
) -> Result<Vec<u8>, StageError> {
    let (entry, _) = cache.load_or_build(spec)?;
    let to_field = |vals: &[u64]| -> Vec<B::Fr> {
        vals.iter().map(|&v| B::Fr::from_u64(v)).collect()
    };
    let witness = entry
        .circuit
        .generate_witness(&to_field(&spec.public_inputs), &to_field(&spec.private_inputs))?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(prove_seed(entry.key, spec));
    let proof = B::prove(&entry.keys, entry.circuit.r1cs(), &witness, &mut rng)?;
    Ok(B::encode_proof(&proof))
}
