//! A measured cell must not depend on what ran earlier in the process.
//!
//! The kernels build a few process-wide tables on first use (tower
//! Frobenius coefficients, Poseidon constants). Built inside a session,
//! they would land in the first cell's counts only — 39 % of a Groth16
//! `Verifying` stage — so `measure_stage` builds them before it opens the
//! session. This binary holds one test, so its first measurement really is
//! the first in its process.

use zkperf_core::{measure_cell_backend, BackendKind, Curve, Stage};
use zkperf_machine::CpuProfile;

#[test]
fn the_first_cell_of_a_process_measures_like_the_second() {
    let cpu = CpuProfile::i7_8650u();
    let cells = [
        (BackendKind::Groth16, Curve::Bn128),
        (BackendKind::Plonk, Curve::Bn128),
        (BackendKind::Groth16, Curve::Bls12_381),
        (BackendKind::Stark, Curve::Goldilocks),
    ];
    for (backend, curve) in cells {
        let measure = || -> Vec<_> {
            let cell = measure_cell_backend(backend, curve, &cpu, 64, &Stage::ALL);
            cell.unwrap().into_iter().map(|m| (m.stage, m.counts)).collect()
        };
        let first = measure();
        assert_eq!(first, measure(), "{backend:?} on {curve:?}");
    }
}
