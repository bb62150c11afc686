//! The benchmark workload: the exponentiation circuit pipeline, runnable
//! one stage at a time so each stage can be measured in isolation.
//!
//! The pipeline is generic over the proving system: every scheme-specific
//! step (setup, prove, verify, artifact sizing) dispatches through
//! [`ProverBackend`], so the same five-stage workload characterizes
//! Groth16, PLONK, and the transparent STARK backend.

use rand::SeedableRng;

use zkperf_circuit::{lang, library, Circuit, Witness, WitnessError};
use zkperf_ff::Field;
use zkperf_groth16::{ProveError, SetupError, VerifyError};
use zkperf_plonk::PlonkError;
use zkperf_stark::StarkError;
use zkperf_trace as trace;

use crate::backend::{BackendKind, ProverBackend};
use crate::stage::{Curve, Stage};

/// Errors from [`Workload::run_stage`].
///
/// Stage ordering violations and artifact-shape problems are reported as
/// values instead of panics, so a sweep can record a failed cell and keep
/// going. [`Workload`] never returns the `Injected` variant: only a job
/// server whose `ServerConfig::chaos` holds a seed injects it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError {
    /// `stage` was run before its prerequisite `needs`.
    MissingPrerequisite {
        /// The stage that was requested.
        stage: Stage,
        /// The earlier stage whose artifact is missing.
        needs: Stage,
    },
    /// The circuit source failed to compile.
    Compile(lang::CompileError),
    /// The compiled constraint count differs from the declared sweep value.
    ConstraintCountMismatch {
        /// Constraints the workload was declared with.
        declared: usize,
        /// Constraints the compiler actually produced.
        compiled: usize,
    },
    /// Trusted setup rejected the circuit.
    Setup(SetupError),
    /// The inputs do not satisfy the circuit.
    Witness(WitnessError),
    /// The proving key and witness are inconsistent.
    Prove(ProveError),
    /// The verification inputs are malformed.
    Verify(VerifyError),
    /// A PLONK stage failed (arithmetization, witness shape, or
    /// cancellation inside the PLONK prover).
    Plonk(PlonkError),
    /// A STARK stage failed with a typed transparent-backend error.
    Stark(StarkError),
    /// The requested (backend, curve) cell does not exist — pairing
    /// backends cannot run over the Goldilocks field.
    UnsupportedCurve {
        /// The backend that was asked for.
        backend: BackendKind,
        /// The curve it cannot run on.
        curve: Curve,
    },
    /// The job server's seeded fault injector tripped at this stage
    /// boundary (`zkperf-serve`, chaos armed); the server retries it.
    Injected {
        /// The stage whose boundary tripped.
        stage: Stage,
    },
    /// The ambient [`zkperf_pool::CancelToken`] was cancelled or its
    /// deadline expired before or during this stage.
    Cancelled {
        /// The stage that observed the cancellation.
        stage: Stage,
    },
    /// An on-disk artifact (compiled R1CS, setup keys, proofs) could not
    /// be read or written. Carries the offending path so callers can
    /// evict and rebuild exactly the broken entry.
    Artifact {
        /// Path of the artifact that failed.
        path: String,
        /// Human-readable failure detail from the format layer.
        detail: String,
    },
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::MissingPrerequisite { stage, needs } => {
                write!(f, "{} before {}", needs.name(), stage.name())
            }
            StageError::Compile(e) => write!(f, "compile: {e}"),
            StageError::ConstraintCountMismatch { declared, compiled } => write!(
                f,
                "compiled to {compiled} constraints but the sweep declared {declared}"
            ),
            StageError::Setup(e) => write!(f, "setup: {e}"),
            StageError::Witness(e) => write!(f, "witness: {e}"),
            StageError::Prove(e) => write!(f, "proving: {e}"),
            StageError::Verify(e) => write!(f, "verifying: {e}"),
            StageError::Plonk(e) => write!(f, "plonk: {e}"),
            StageError::Stark(e) => write!(f, "stark: {e}"),
            StageError::UnsupportedCurve { backend, curve } => {
                write!(f, "backend {backend} does not run on curve {curve}")
            }
            StageError::Injected { stage } => {
                write!(f, "chaos fault injected at the {} boundary", stage.name())
            }
            StageError::Cancelled { stage } => {
                write!(f, "{} cancelled by caller or deadline", stage.name())
            }
            StageError::Artifact { path, detail } => {
                write!(f, "artifact {path}: {detail}")
            }
        }
    }
}

impl StageError {
    /// Whether this error reports cooperative cancellation (a fired
    /// [`zkperf_pool::CancelToken`] or an expired deadline) rather than a
    /// fault in the workload itself.
    pub fn is_cancellation(&self) -> bool {
        matches!(
            self,
            StageError::Cancelled { .. }
                | StageError::Setup(SetupError::Cancelled)
                | StageError::Prove(ProveError::Cancelled)
                | StageError::Plonk(PlonkError::Cancelled)
                | StageError::Stark(StarkError::Cancelled)
        )
    }
}

impl std::error::Error for StageError {}

impl From<PlonkError> for StageError {
    fn from(e: PlonkError) -> Self {
        StageError::Plonk(e)
    }
}

impl From<StarkError> for StageError {
    fn from(e: StarkError) -> Self {
        StageError::Stark(e)
    }
}

impl From<lang::CompileError> for StageError {
    fn from(e: lang::CompileError) -> Self {
        StageError::Compile(e)
    }
}

impl From<SetupError> for StageError {
    fn from(e: SetupError) -> Self {
        match e {
            SetupError::Sink(transport) => transport.into(),
            e => StageError::Setup(e),
        }
    }
}

impl From<WitnessError> for StageError {
    fn from(e: WitnessError) -> Self {
        StageError::Witness(e)
    }
}

impl From<ProveError> for StageError {
    fn from(e: ProveError) -> Self {
        match e {
            ProveError::Source(transport) => transport.into(),
            e => StageError::Prove(e),
        }
    }
}

impl From<VerifyError> for StageError {
    fn from(e: VerifyError) -> Self {
        StageError::Verify(e)
    }
}

impl From<zkperf_io::ArtifactError> for StageError {
    fn from(e: zkperf_io::ArtifactError) -> Self {
        StageError::Artifact {
            path: e.path.display().to_string(),
            detail: e.error.to_string(),
        }
    }
}

impl From<zkperf_groth16::StreamError> for StageError {
    fn from(e: zkperf_groth16::StreamError) -> Self {
        let path = e.path.clone().unwrap_or_else(|| "<stream>".to_string());
        let detail = match e.offset {
            // Keep the seekable location in the detail: a mid-stream
            // checksum failure must say exactly which chunk broke.
            Some(off) => format!("{} (at byte offset {off})", e.detail),
            None => e.detail,
        };
        StageError::Artifact { path, detail }
    }
}

/// A deterministic RNG per workload so measurement runs are reproducible.
fn workload_rng(seed_tweak: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x7e57_0000 ^ seed_tweak)
}

/// The exponentiation pipeline for one proving backend at one constraint
/// count.
///
/// Stages are run explicitly via [`run_stage`](Workload::run_stage); the
/// artifacts of earlier stages are cached so that measuring `proving` does
/// not re-measure `setup`. Every scheme-specific step dispatches through
/// the [`ProverBackend`] type parameter, so
/// `Workload::<Groth16Backend<Bn254>>`, `Workload::<PlonkBackend<Bn254>>`
/// and `Workload::<StarkBackend>` run the identical five-stage pipeline.
///
/// # Examples
///
/// ```
/// use zkperf_core::{Groth16Backend, Stage, StarkBackend, Workload};
/// use zkperf_ec::Bn254;
///
/// let mut w = Workload::<Groth16Backend<Bn254>>::exponentiate(16);
/// for stage in Stage::ALL {
///     w.run_stage(stage)?;
/// }
/// assert_eq!(w.verified(), Some(true));
///
/// // The transparent backend runs the same pipeline, no ceremony needed.
/// let mut w = Workload::<StarkBackend>::exponentiate(16);
/// for stage in Stage::ALL {
///     w.run_stage(stage)?;
/// }
/// assert_eq!(w.verified(), Some(true));
/// # Ok::<(), zkperf_core::StageError>(())
/// ```
#[derive(Debug)]
pub struct Workload<B: ProverBackend> {
    constraints: usize,
    source: String,
    public_inputs: Vec<B::Fr>,
    private_inputs: Vec<B::Fr>,
    single_party_setup: bool,
    circuit: Option<Circuit<B::Fr>>,
    keys: Option<B::Keys>,
    witness: Option<Witness<B::Fr>>,
    proof: Option<B::Proof>,
    verified: Option<bool>,
}

impl<B: ProverBackend> Workload<B> {
    /// Builds the paper's `y = x^e` workload with `constraints` constraints.
    ///
    /// # Panics
    ///
    /// Panics if `constraints == 0`.
    pub fn exponentiate(constraints: usize) -> Self {
        Workload {
            constraints,
            source: library::exponentiate_source(constraints),
            public_inputs: vec![B::Fr::from_u64(3)],
            private_inputs: Vec::new(),
            single_party_setup: false,
            circuit: None,
            keys: None,
            witness: None,
            proof: None,
            verified: None,
        }
    }

    /// Builds a workload from arbitrary circuit-language source, so any
    /// user circuit can be characterized with the same pipeline.
    ///
    /// `expected_constraints` is checked after compilation (pass the value
    /// you sweep over so analyses group cells correctly).
    ///
    /// # Examples
    ///
    /// ```
    /// use zkperf_core::{Groth16Backend, Stage, Workload};
    /// use zkperf_ec::Bn254;
    /// use zkperf_ff::{bn254::Fr, Field};
    ///
    /// let src = "circuit sq { public input x; output y = x * x; }";
    /// // one multiplication gate plus the output-binding row = 2 constraints
    /// let mut w = Workload::<Groth16Backend<Bn254>>::from_source(
    ///     src, 2, vec![Fr::from_u64(4)], vec![]);
    /// for stage in Stage::ALL {
    ///     w.run_stage(stage)?;
    /// }
    /// assert_eq!(w.verified(), Some(true));
    /// # Ok::<(), zkperf_core::StageError>(())
    /// ```
    pub fn from_source(
        source: impl Into<String>,
        expected_constraints: usize,
        public_inputs: Vec<B::Fr>,
        private_inputs: Vec<B::Fr>,
    ) -> Self {
        Workload {
            constraints: expected_constraints,
            source: source.into(),
            public_inputs,
            private_inputs,
            single_party_setup: false,
            circuit: None,
            keys: None,
            witness: None,
            proof: None,
            verified: None,
        }
    }

    /// Makes the setup stage generate the keys as the single party that
    /// will also use them ([`ProverBackend::setup`]). By default the stage
    /// emulates the toolchain the paper measured and runs
    /// [`ProverBackend::setup_ceremony`]; the keys are the same either way.
    pub fn with_single_party_setup(mut self) -> Self {
        self.single_party_setup = true;
        self
    }

    /// The constraint count this workload targets.
    pub fn constraints(&self) -> usize {
        self.constraints
    }

    /// Bytes of input-file staging the given stage performs (see
    /// [`staged_sizes`]); prerequisites must have run so sizes are real.
    pub fn stage_read_bytes(&self, stage: Stage) -> usize {
        staged_sizes(self, stage).0
    }

    /// Bytes of output-file staging the stage performs after it runs.
    pub fn stage_write_bytes(&self, stage: Stage) -> usize {
        staged_sizes(self, stage).1
    }

    /// The circuit source text fed to the compile stage.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Whether the verifying stage accepted (None before it ran).
    pub fn verified(&self) -> Option<bool> {
        self.verified
    }

    /// The compiled circuit, if the compile stage has run.
    pub fn circuit(&self) -> Option<&Circuit<B::Fr>> {
        self.circuit.as_ref()
    }

    /// Exact serialized size of the proof, once the proving stage ran.
    pub fn proof_size_bytes(&self) -> Option<usize> {
        self.proof.as_ref().map(B::proof_size_bytes)
    }

    /// Approximate serialized size of the key material, once setup ran.
    pub fn keys_size_bytes(&self) -> Option<usize> {
        self.keys.as_ref().map(B::keys_size_bytes)
    }

    /// Runs every stage strictly before `stage` (untraced), so `stage` can
    /// then be executed in isolation under measurement.
    ///
    /// # Errors
    ///
    /// Propagates the first [`StageError`] from a prerequisite stage.
    pub fn prepare_for(&mut self, stage: Stage) -> Result<(), StageError> {
        for s in Stage::ALL {
            if s >= stage {
                break;
            }
            self.run_stage(s)?;
        }
        Ok(())
    }

    /// Executes one stage, consuming cached prerequisites and caching the
    /// stage's own artifact. Re-running a stage recomputes it.
    ///
    /// # Errors
    ///
    /// Returns [`StageError::MissingPrerequisite`] when an earlier stage
    /// has not run, and wraps the underlying pipeline error when a stage's
    /// inputs are inconsistent. When the ambient
    /// [`zkperf_pool::CancelToken`] has fired (or its deadline expired)
    /// the stage is skipped entirely and [`StageError::Cancelled`] is
    /// returned. No fault is injected here and no environment is read: the
    /// stage measured is the stage that ships.
    pub fn run_stage(&mut self, stage: Stage) -> Result<(), StageError> {
        if zkperf_pool::cancellation_pending() {
            return Err(StageError::Cancelled { stage });
        }
        let missing = |needs: Stage| StageError::MissingPrerequisite { stage, needs };
        match stage {
            Stage::Compile => {
                let circuit = lang::compile::<B::Fr>(&self.source)?;
                if circuit.r1cs().num_constraints() != self.constraints {
                    return Err(StageError::ConstraintCountMismatch {
                        declared: self.constraints,
                        compiled: circuit.r1cs().num_constraints(),
                    });
                }
                self.circuit = Some(circuit);
            }
            Stage::Setup => {
                let circuit = self.circuit.as_ref().ok_or(missing(Stage::Compile))?;
                let mut rng = workload_rng(1);
                // The five stages emulate snarkjs, whose setup is `groth16
                // setup` then `zkey contribute` (DESIGN §5).
                let setup = if self.single_party_setup {
                    B::setup
                } else {
                    B::setup_ceremony
                };
                self.keys = Some(setup(circuit.r1cs(), &mut rng)?);
            }
            Stage::Witness => {
                let circuit = self.circuit.as_ref().ok_or(missing(Stage::Compile))?;
                let witness =
                    circuit.generate_witness(&self.public_inputs, &self.private_inputs)?;
                self.witness = Some(witness);
            }
            Stage::Proving => {
                let circuit = self.circuit.as_ref().ok_or(missing(Stage::Compile))?;
                let keys = self.keys.as_ref().ok_or(missing(Stage::Setup))?;
                let witness = self.witness.as_ref().ok_or(missing(Stage::Witness))?;
                let mut rng = workload_rng(2);
                let proof = B::prove(keys, circuit.r1cs(), witness, &mut rng)?;
                self.proof = Some(proof);
            }
            Stage::Verifying => {
                let circuit = self.circuit.as_ref().ok_or(missing(Stage::Compile))?;
                let keys = self.keys.as_ref().ok_or(missing(Stage::Setup))?;
                let witness = self.witness.as_ref().ok_or(missing(Stage::Witness))?;
                let proof = self.proof.as_ref().ok_or(missing(Stage::Proving))?;
                let ok = B::verify(keys, circuit.r1cs(), proof, witness.public())?;
                self.verified = Some(ok);
            }
        }
        Ok(())
    }
}

/// Approximate serialized artifact sizes for each stage's file staging,
/// derived from the workload's artifacts (ccs/ptau/zkey/wtns/proof — the
/// files snarkjs streams into and out of every stage). Read sizes come
/// from prerequisites (or dimension-based predictions for the ptau); write
/// sizes from the stage's own artifact after it runs.
fn staged_sizes<B: ProverBackend>(w: &Workload<B>, stage: Stage) -> (usize, usize) {
    let fr = std::mem::size_of::<B::Fr>();
    let ccs = w.circuit.as_ref().map_or(0, |c| {
        c.r1cs().num_nonzero_entries() * (fr + 8) + c.r1cs().num_wires() * 4
    });
    // Powers-of-tau file: 2n G1 + n G2 points over the padded domain
    // (zero for transparent backends, which stage no ceremony file).
    let ptau = if B::transparent_setup() {
        0
    } else {
        w.circuit.as_ref().map_or(0, |c| {
            let n = c.r1cs().num_constraints().next_power_of_two();
            2 * n * 2 * fr + n * 4 * fr
        })
    };
    let pk = w.keys.as_ref().map_or(0, B::keys_size_bytes);
    let wtns = w
        .witness
        .as_ref()
        .map_or(0, |wit| std::mem::size_of_val(wit.full()));
    match stage {
        Stage::Compile => (w.source.len(), ccs),
        Stage::Setup => (ccs + ptau, pk),
        Stage::Witness => ((512 << 10) + ccs / 4, wtns),
        Stage::Proving => (pk + wtns, 256),
        Stage::Verifying => (4096, 64),
    }
}

/// Where the emulated toolchain's buffers sit in the address space. The
/// simulator sees real addresses, and a 32-byte load crosses a cache line
/// or not depending on its base modulo 64, so the base must not be
/// wherever the linker put a byte array this build: a page-aligned anchor,
/// addressed at fixed in-page offsets (the ones the statics had in the
/// binary that recorded `results/`; any fixed values would do).
#[repr(align(4096))]
struct EmulationAnchor([u8; 4096]);
static EMULATION_ANCHOR: EmulationAnchor = EmulationAnchor([0; 4096]);
const STAGE_IO_OFFSET: usize = 0x17f;
const RUNTIME_HEAP_OFFSET: usize = 0x1bf;

fn emulation_base(offset: usize) -> usize {
    EMULATION_ANCHOR.0.as_ptr() as usize + offset
}

/// Streams a stage's file artifacts through the memory system, as the
/// snarkjs CLI does when it loads/saves `.r1cs`/`.zkey`/`.wtns` files.
/// These staging copies are what give the paper's setup/proving stages
/// their multi-GB/s peak-bandwidth windows (Table III).
pub(crate) fn emit_stage_io(bytes: usize) {
    let _g = trace::region_profile("file_staging");
    let base = emulation_base(STAGE_IO_OFFSET);
    let mut remaining = bytes;
    let mut offset = 0usize;
    while remaining > 0 {
        let chunk = remaining.min(256 << 10);
        trace::alloc(chunk);
        trace::memcpy(base + (1 << 30) + offset, base + offset, chunk);
        offset += chunk;
        remaining -= chunk;
    }
}

/// Emits the synthetic trace of the JS/wasm runtime initialization that
/// precedes every snarkjs stage: module parse, bytecode/wasm compilation
/// and heap setup.
///
/// snarkjs stages pay this fixed cost regardless of circuit size, which is
/// why the paper measures near-constant witness and verifying stages. The
/// magnitudes below model parsing+compiling a multi-megabyte runtime:
/// ~6M µops with interpreter-typical branchiness and a streaming copy of
/// the module image. Documented in DESIGN.md §2.
pub fn emit_runtime_init() {
    let _g = trace::region_profile("runtime_init");
    // Streaming the module image into the heap.
    const MODULE_BYTES: usize = 128 << 10;
    let base = emulation_base(RUNTIME_HEAP_OFFSET);
    trace::alloc(MODULE_BYTES);
    trace::memcpy(base, base + (64 << 20), MODULE_BYTES);
    // Parse/compile loop: mixed ops with data-dependent branches.
    let mut lfsr = 0x1357_9bdf_2468_acecu64;
    for i in 0..12_000u64 {
        trace::compute(170);
        trace::data_move(160);
        trace::control(140);
        lfsr ^= lfsr << 13;
        lfsr ^= lfsr >> 7;
        lfsr ^= lfsr << 17;
        trace::branch(0x8001, lfsr & 7 < 3);
        // Scattered reads over the parsed structures (a few MiB of heap).
        trace::load(base + ((lfsr as usize) & ((4 << 20) - 64)), 32);
        if i % 64 == 0 {
            trace::alloc(1024);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ec::Bn254;

    #[test]
    fn pipeline_runs_in_order_and_verifies() {
        let mut w = Workload::<crate::backend::Groth16Backend<Bn254>>::exponentiate(8);
        assert!(w.verified().is_none());
        w.prepare_for(Stage::Verifying).unwrap();
        w.run_stage(Stage::Verifying).unwrap();
        assert_eq!(w.verified(), Some(true));
        assert_eq!(w.circuit().unwrap().r1cs().num_constraints(), 8);
    }

    #[test]
    fn skipping_prerequisites_is_a_typed_error() {
        let mut w = Workload::<crate::backend::Groth16Backend<Bn254>>::exponentiate(8);
        let err = w.run_stage(Stage::Setup).unwrap_err();
        assert_eq!(
            err,
            StageError::MissingPrerequisite {
                stage: Stage::Setup,
                needs: Stage::Compile,
            }
        );
        assert_eq!(err.to_string(), "compile before setup");
    }

    #[test]
    fn bad_inputs_surface_as_witness_errors() {
        let mut w = Workload::<crate::backend::Groth16Backend<Bn254>>::from_source(
            "circuit sq { public input x; output y = x * x; }",
            2,
            vec![], // missing the public input
            vec![],
        );
        w.run_stage(Stage::Compile).unwrap();
        let err = w.run_stage(Stage::Witness).unwrap_err();
        assert!(matches!(err, StageError::Witness(_)));
    }

    #[test]
    fn custom_source_workload_runs_all_stages() {
        use zkperf_ff::Field;
        let src = "circuit lin { public input x; private input k; \
                    output y = k * x + 1; }";
        let mut w = Workload::<crate::backend::Groth16Backend<Bn254>>::from_source(
            src,
            2, // one mul gate + one output row
            vec![zkperf_ff::bn254::Fr::from_u64(10)],
            vec![zkperf_ff::bn254::Fr::from_u64(3)],
        );
        for stage in Stage::ALL {
            w.run_stage(stage).unwrap();
        }
        assert_eq!(w.verified(), Some(true));
    }

    #[test]
    fn runtime_init_emits_interpreter_shaped_trace() {
        let session = trace::Session::begin();
        emit_runtime_init();
        let report = session.finish();
        assert!(report.counts.total_uops() > 4_000_000);
        assert!(report.counts.branches > 10_000);
        assert!(report.counts.memcpy_bytes >= (128 << 10));
        assert!(report.region("runtime_init").is_some());
    }
}
