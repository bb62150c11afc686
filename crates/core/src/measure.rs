//! Running one protocol stage under the microarchitecture simulator.

use std::sync::Once;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use zkperf_circuit::poseidon::permutation_constants;
use zkperf_ec::{Affine, Bls12_381, Bn254, CurveParams, Engine};
use zkperf_ff::{Field, Goldilocks};
use zkperf_machine::{CpuProfile, MachineReport, MachineSim};
use zkperf_trace::{self as trace, OpCounts};

use crate::backend::{BackendKind, ProverBackend};
use crate::stage::{Curve, Stage};
use crate::workload::{emit_runtime_init, emit_stage_io, StageError, Workload};

/// Per-function attribution extracted from the trace session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionSummary {
    /// Region name ("msm", "bigint", "memcpy", ...).
    pub name: String,
    /// Micro-ops retired inside the region (self, excluding children).
    pub uops: u64,
    /// Wall-clock self time in nanoseconds (host time, used for ranking).
    pub self_nanos: u64,
    /// Times the region was entered.
    pub calls: u64,
    /// Heap bytes requested inside the region.
    pub alloc_bytes: u64,
    /// Bytes moved by bulk copies inside the region.
    pub memcpy_bytes: u64,
}

/// Everything measured for one (stage, curve, CPU, size) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageMeasurement {
    /// Stage that ran.
    pub stage: Stage,
    /// Proving backend it ran through (older serialized sweeps, which
    /// predate multi-backend rows, deserialize as Groth16).
    pub backend: BackendKind,
    /// Curve it ran on.
    pub curve: Curve,
    /// Constraint count of the workload.
    pub constraints: usize,
    /// Exact serialized proof size after the proving stage (0 for every
    /// other stage, and in rows from older sweeps).
    pub proof_bytes: usize,
    /// The simulated CPU's view of the run.
    pub machine: MachineReport,
    /// Raw tracer counters (CPU-independent).
    pub counts: OpCounts,
    /// Per-region attribution for the code analysis.
    pub regions: Vec<RegionSummary>,
    /// Host wall time of the instrumented run.
    pub wall_time: Duration,
    /// High-water mark of live heap bytes during the stage, from the
    /// tracking allocator.
    pub peak_live_bytes: u64,
    /// Bytes moved through the streaming chunk transport during the
    /// stage (0 when the stage ran fully in memory).
    pub streamed_bytes: u64,
}

impl StageMeasurement {
    /// The region summary for `name`, if that region ran.
    pub fn region(&self, name: &str) -> Option<&RegionSummary> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Micro-ops of a region, or 0 when it never ran.
    pub fn region_uops(&self, name: &str) -> u64 {
        self.region(name).map_or(0, |r| r.uops)
    }
}

/// Builds, once per process, the tables the kernels derive on first use,
/// before any session opens: a cell's counts must not depend on what ran
/// earlier in the process. These are the Poseidon constants of the three
/// circuit fields and the STARK hash's round schedule, the GLV lattice of
/// both G1 groups, and what a pairing reads (loop digits, twist-Frobenius
/// scalars, the tower Frobenius coefficients).
fn build_first_use_tables() {
    fn engine_tables<E: Engine>() {
        permutation_constants::<E::Fr>();
        E::G1::glv_params();
        E::pairing(&Affine::generator(), &Affine::generator());
    }
    static BUILT: Once = Once::new();
    BUILT.call_once(|| {
        engine_tables::<Bn254>();
        engine_tables::<Bls12_381>();
        zkperf_stark::poseidon::permute([Goldilocks::zero(); 3]);
    });
}

/// Runs `stage` of `workload` on the simulated `cpu` and collects the
/// measurement. Prerequisite stages must already have run (use
/// [`Workload::prepare_for`]); they execute untraced so the measurement
/// isolates `stage`, matching the paper's "run each stage separately"
/// methodology.
///
/// # Errors
///
/// Propagates the [`StageError`] when the stage itself fails; the trace
/// session is torn down cleanly first, so a failed cell never poisons the
/// next measurement.
pub fn measure_stage<B: ProverBackend>(
    workload: &mut Workload<B>,
    stage: Stage,
    cpu: &CpuProfile,
) -> Result<StageMeasurement, StageError> {
    let curve: Curve = B::curve();
    build_first_use_tables();
    let (sink, handle) = MachineSim::new(cpu.clone(), stage.exec_env()).shared();
    let session = trace::Session::begin_with_sink(Box::new(sink));
    // The session is this thread's alone: work a kernel handed to a pool
    // worker would leave the recorded stream. This is the one place that
    // decides "inline under a session"; no kernel asks.
    let _serial = zkperf_pool::SerialScope::enter();
    if stage.exec_env() != zkperf_machine::ExecEnv::Native {
        // Node + snarkjs startup precedes every snarkjs stage.
        emit_runtime_init();
    }
    emit_stage_io(workload.stage_read_bytes(stage));
    // Rebase the allocator's high-water mark and the streamed-bytes
    // counter so both deltas attribute to this stage alone.
    zkperf_pool::mem::reset_peak();
    let streamed_before = zkperf_pool::mem::streamed_bytes();
    if let Err(e) = workload.run_stage(stage) {
        let _ = session.finish();
        return Err(e);
    }
    let peak_live_bytes = zkperf_pool::mem::peak_live_bytes() as u64;
    let streamed_bytes = zkperf_pool::mem::streamed_bytes().saturating_sub(streamed_before);
    emit_stage_io(workload.stage_write_bytes(stage));
    let report = session.finish();
    let machine = handle.borrow().report();
    let regions = report
        .regions
        .iter()
        .map(|r| RegionSummary {
            name: r.name().to_string(),
            uops: r.counts.total_uops(),
            self_nanos: u64::try_from(r.self_time.as_nanos()).unwrap_or(u64::MAX),
            calls: r.calls,
            alloc_bytes: r.counts.alloc_bytes,
            memcpy_bytes: r.counts.memcpy_bytes,
        })
        .collect();
    Ok(StageMeasurement {
        stage,
        backend: B::kind(),
        curve,
        constraints: workload.constraints(),
        proof_bytes: match stage {
            Stage::Proving => workload.proof_size_bytes().unwrap_or(0),
            _ => 0,
        },
        machine,
        counts: report.counts,
        regions,
        wall_time: report.wall_time,
        peak_live_bytes,
        streamed_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ec::Bn254;

    #[test]
    fn measuring_compile_then_proving_isolates_stages() {
        let cpu = CpuProfile::i7_8650u();
        let mut w = Workload::<crate::backend::Groth16Backend<Bn254>>::exponentiate(32);
        let compile = measure_stage(&mut w, Stage::Compile, &cpu).unwrap();
        assert_eq!(compile.stage, Stage::Compile);
        assert!(compile.counts.total_uops() > 0);
        assert!(compile.region("parser").is_some());
        // Compile is native: no runtime_init in its trace.
        assert!(compile.region("runtime_init").is_none());

        w.prepare_for(Stage::Proving).unwrap();
        let proving = measure_stage(&mut w, Stage::Proving, &cpu).unwrap();
        assert!(proving.region("msm").is_some());
        assert!(proving.region("fft").is_some());
        assert!(proving.region("runtime_init").is_some());
        assert!(proving.peak_live_bytes > 0, "allocator high-water mark recorded");
        assert!(
            proving.machine.total_uops() > compile.machine.total_uops(),
            "proving outworks compile at this size"
        );
    }

    #[test]
    fn verifying_measurement_contains_pairing_regions() {
        let cpu = CpuProfile::i9_13900k();
        let mut w = Workload::<crate::backend::Groth16Backend<Bn254>>::exponentiate(8);
        w.prepare_for(Stage::Verifying).unwrap();
        let m = measure_stage(&mut w, Stage::Verifying, &cpu).unwrap();
        assert!(m.region("miller_loop").is_some());
        assert!(m.region("final_exp").is_some());
        assert!(m.region_uops("final_exp") > 0);
        assert_eq!(m.machine.cpu, "i9-13900K");
    }

    #[test]
    fn traced_setup_is_the_ceremony_and_backend_setup_does_no_scalar_mul() {
        type B = crate::backend::Groth16Backend<Bn254>;
        let cpu = CpuProfile::i7_8650u();
        let mut w = Workload::<B>::exponentiate(1 << 8);
        w.prepare_for(Stage::Setup).unwrap();
        let ceremony = measure_stage(&mut w, Stage::Setup, &cpu).unwrap();
        assert!(ceremony.region("contribute").is_some());
        assert!(ceremony.region_uops("scalar_mul") > 0);
        assert_eq!(
            ceremony.counts.total_uops(),
            102_885_109,
            "the traced setup stage at 2^8 moved: it was 102165929 uops before \
             `setup_contributed` existed (62833229 of them in `scalar_mul`), and \
             102885109 (63440297) since the GLV split became odd: a contribution \
             scalar of this seed sits above r/2 and now splits as the negation of \
             its negative, other digits for the same four sweeps"
        );

        // The same circuit through `B::setup`, as serve and the CLI run it.
        let mut w = Workload::<B>::exponentiate(1 << 8).with_single_party_setup();
        w.prepare_for(Stage::Setup).unwrap();
        let single = measure_stage(&mut w, Stage::Setup, &cpu).unwrap();
        assert!(single.region("fixed_base_msm").is_some());
        assert!(single.region("contribute").is_none());
        assert!(single.region("scalar_mul").is_none());
        assert!(single.counts.total_uops() < ceremony.counts.total_uops());
    }

    #[test]
    fn failed_stage_tears_down_the_session_cleanly() {
        let cpu = CpuProfile::i7_8650u();
        let mut w = Workload::<crate::backend::Groth16Backend<Bn254>>::exponentiate(8);
        // Setup without compile: a typed error, not a panic...
        let err = measure_stage(&mut w, Stage::Setup, &cpu).unwrap_err();
        assert!(matches!(err, StageError::MissingPrerequisite { .. }));
        // ...and the tracer is reusable immediately afterwards.
        let ok = measure_stage(&mut w, Stage::Compile, &cpu).unwrap();
        assert!(ok.counts.total_uops() > 0);
    }
}
