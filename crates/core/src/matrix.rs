//! The measurement matrix (stage × constraint size × CPU × curve ×
//! backend): which cells a sweep has and how one cell is measured. The
//! driver that walks them is `zkperf-bench`'s `sweep_cached`.

use serde::Serialize;
use zkperf_ec::{Bls12_381, Bn254};
use zkperf_machine::CpuProfile;

use crate::backend::{BackendKind, Groth16Backend, PlonkBackend, ProverBackend, StarkBackend};
use crate::measure::{measure_stage, StageMeasurement};
use crate::stage::{Curve, Stage};
use crate::workload::{StageError, Workload};

/// Which cells of the paper's measurement matrix to run.
#[derive(Debug, Clone, Serialize)]
pub struct SweepConfig {
    /// `log₂` of each constraint count to sweep.
    pub log_sizes: Vec<u32>,
    /// Simulated CPUs.
    pub cpus: Vec<CpuProfile>,
    /// Curves.
    pub curves: Vec<Curve>,
    /// Stages to measure.
    pub stages: Vec<Stage>,
    /// Proving backends. The paper's tables are Groth16-only, so that is
    /// the default; adding [`BackendKind::Plonk`] or [`BackendKind::Stark`]
    /// grows the matrix by a backend dimension (the STARK backend ignores
    /// the curve axis and contributes one Goldilocks row set instead).
    pub backends: Vec<BackendKind>,
}

impl SweepConfig {
    /// Replaces the backend set (e.g. all three of [`BackendKind::ALL`]
    /// for the cross-scheme comparison).
    pub fn with_backends(mut self, backends: impl IntoIterator<Item = BackendKind>) -> Self {
        self.backends = backends.into_iter().collect();
        self
    }

    /// Restricts the sweep to one CPU (for the scalability experiments the
    /// paper runs only on the i9).
    pub fn with_cpu(mut self, cpu: CpuProfile) -> Self {
        self.cpus = vec![cpu];
        self
    }

    /// Every pipeline of the matrix as the arguments of
    /// [`measure_cell_backend`] (size as `log₂`), in sweep order: backend,
    /// then curve, then CPU, then size. The transparent backend has no
    /// pairing-curve axis — it always runs over Goldilocks — so for
    /// [`BackendKind::Stark`] the curve dimension collapses to that one.
    pub fn cells(&self) -> Vec<(BackendKind, Curve, &CpuProfile, u32)> {
        let mut cells = Vec::new();
        for &backend in &self.backends {
            let curves: &[Curve] = match backend {
                BackendKind::Stark => &[Curve::Goldilocks],
                _ => &self.curves,
            };
            for &curve in curves {
                for cpu in &self.cpus {
                    for &log in &self.log_sizes {
                        cells.push((backend, curve, cpu, log));
                    }
                }
            }
        }
        cells
    }
}

impl Default for SweepConfig {
    /// Reads the sweep bounds from `ZKPERF_MIN_LOG` / `ZKPERF_MAX_LOG`
    /// (defaults 10 and 13; set `ZKPERF_MAX_LOG=18` for the paper's full
    /// range).
    fn default() -> Self {
        let read = |name: &str, fallback: u32| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(fallback)
        };
        let min = read("ZKPERF_MIN_LOG", 10);
        let max = read("ZKPERF_MAX_LOG", 13).max(min);
        SweepConfig {
            log_sizes: (min..=max).collect(),
            cpus: CpuProfile::paper_cpus(),
            curves: Curve::ALL.to_vec(),
            stages: Stage::ALL.to_vec(),
            backends: vec![BackendKind::Groth16],
        }
    }
}

fn measure_pipeline<B: ProverBackend>(
    cpu: &CpuProfile,
    constraints: usize,
    stages: &[Stage],
) -> Result<Vec<StageMeasurement>, StageError> {
    let mut workload = Workload::<B>::exponentiate(constraints);
    let mut out = Vec::new();
    for stage in Stage::ALL {
        if stages.contains(&stage) {
            out.push(measure_stage(&mut workload, stage, cpu)?);
        } else {
            // Still run it (untraced) so later stages have prerequisites.
            workload.run_stage(stage)?;
        }
    }
    Ok(out)
}

/// Measures the requested stages for one (curve, CPU, size) pipeline,
/// using each curve's canonical backend: Groth16 on the pairing curves,
/// the transparent STARK on [`Curve::Goldilocks`]. For explicit backend
/// choice (e.g. PLONK) use [`measure_cell_backend`].
///
/// # Errors
///
/// Propagates the first [`StageError`] from the pipeline; the already
/// measured stages of the failed cell are discarded so a sweep never
/// records a half-measured cell.
pub fn measure_cell(
    curve: Curve,
    cpu: &CpuProfile,
    constraints: usize,
    stages: &[Stage],
) -> Result<Vec<StageMeasurement>, StageError> {
    match curve {
        Curve::Bn128 => measure_pipeline::<Groth16Backend<Bn254>>(cpu, constraints, stages),
        Curve::Bls12_381 => {
            measure_pipeline::<Groth16Backend<Bls12_381>>(cpu, constraints, stages)
        }
        Curve::Goldilocks => measure_pipeline::<StarkBackend>(cpu, constraints, stages),
    }
}

/// Measures the requested stages for one (backend, curve, CPU, size)
/// pipeline — the fully explicit entry point behind the unified
/// [`ProverBackend`] dispatch. The STARK backend ignores `curve` (it
/// always runs over Goldilocks); the pairing backends reject
/// [`Curve::Goldilocks`] with a typed error.
///
/// # Errors
///
/// [`StageError::UnsupportedCurve`] for a (pairing backend, Goldilocks)
/// request, otherwise the first [`StageError`] from the pipeline.
pub fn measure_cell_backend(
    backend: BackendKind,
    curve: Curve,
    cpu: &CpuProfile,
    constraints: usize,
    stages: &[Stage],
) -> Result<Vec<StageMeasurement>, StageError> {
    match (backend, curve) {
        (BackendKind::Groth16, Curve::Bn128) => {
            measure_pipeline::<Groth16Backend<Bn254>>(cpu, constraints, stages)
        }
        (BackendKind::Groth16, Curve::Bls12_381) => {
            measure_pipeline::<Groth16Backend<Bls12_381>>(cpu, constraints, stages)
        }
        (BackendKind::Plonk, Curve::Bn128) => {
            measure_pipeline::<PlonkBackend<Bn254>>(cpu, constraints, stages)
        }
        (BackendKind::Plonk, Curve::Bls12_381) => {
            measure_pipeline::<PlonkBackend<Bls12_381>>(cpu, constraints, stages)
        }
        (BackendKind::Stark, _) => measure_pipeline::<StarkBackend>(cpu, constraints, stages),
        (b, Curve::Goldilocks) => Err(StageError::UnsupportedCurve { backend: b, curve }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_reads_env_bounds() {
        let c = SweepConfig::default();
        assert!(!c.log_sizes.is_empty());
        assert_eq!(c.cpus.len(), 3);
        assert_eq!(c.curves.len(), 2);
        assert_eq!(c.stages.len(), 5);
    }

    #[test]
    fn cells_enumerate_the_matrix_in_sweep_order() {
        let config = SweepConfig {
            log_sizes: vec![4, 5],
            cpus: vec![CpuProfile::i7_8650u(), CpuProfile::i9_13900k()],
            curves: Curve::ALL.to_vec(),
            stages: vec![Stage::Compile],
            backends: vec![BackendKind::Plonk, BackendKind::Stark],
        };
        let (i7, i9) = (CpuProfile::i7_8650u().name, CpuProfile::i9_13900k().name);
        let got: Vec<_> = config
            .cells()
            .into_iter()
            .map(|(backend, curve, cpu, log)| (backend, curve, cpu.name, log))
            .collect();
        let (plonk, stark) = (BackendKind::Plonk, BackendKind::Stark);
        let want = [
            (plonk, Curve::Bn128, i7, 4),
            (plonk, Curve::Bn128, i7, 5),
            (plonk, Curve::Bn128, i9, 4),
            (plonk, Curve::Bn128, i9, 5),
            (plonk, Curve::Bls12_381, i7, 4),
            (plonk, Curve::Bls12_381, i7, 5),
            (plonk, Curve::Bls12_381, i9, 4),
            (plonk, Curve::Bls12_381, i9, 5),
            // STARK contributes one curve, whatever `curves` says.
            (stark, Curve::Goldilocks, i7, 4),
            (stark, Curve::Goldilocks, i7, 5),
            (stark, Curve::Goldilocks, i9, 4),
            (stark, Curve::Goldilocks, i9, 5),
        ];
        assert_eq!(got, want);
    }
}
