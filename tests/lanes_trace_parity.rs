//! Integration: a traced cell records the scalar body's op stream whichever
//! body the host runs.
//!
//! On a host with AVX-512 IFMA the BN254 G1 rounds of `BatchAdder`, the
//! NTT passes and scalings of `zkperf-poly` and PLONK's quotient rows run
//! in the 8-lane kernels of `zkperf_ff::lanes`, which compute past `Fp`'s
//! trace hooks and report nothing. `measure_stage` models snarkjs, which
//! has no lanes, so it runs each traced stage inside `with_scalar_body`.
//! This test is the guard on that: traced Groth16 and PLONK BN254 cells at
//! 2^10 must read every `OpCounts` field equal with the lanes available and
//! with them switched off around the whole cell
//! (`tests/characterization.rs` stays green on a stream that lost most of
//! its multiplies), and the scope must close with the stage, a failed one
//! included.
//!
//! A session opened directly over a lane kernel records none of the lanes'
//! work, so raw-session MSMs and NTTs differ between the bodies by design.
//!
//! One `#[test]`: `with_scalar_body` switches the lanes off process-wide.

use zkperf::core::{
    measure_cell_backend, measure_stage, BackendKind, Curve, Groth16Backend, Stage, StageError,
    Workload,
};
use zkperf::ec::Bn254;
use zkperf::ff::lanes::{self, with_scalar_body};
use zkperf::machine::CpuProfile;

#[test]
fn both_bodies_report_the_same_op_counts() {
    let host_body = lanes::body();
    if host_body == "scalar" {
        eprintln!("no AVX-512 IFMA on this host: both legs run the scalar body");
    }
    let cpu = CpuProfile::i7_8650u();

    // Groth16's QAP transforms and bucket adds, PLONK's transforms and
    // quotient rows.
    for backend in [BackendKind::Groth16, BackendKind::Plonk] {
        let cell = || -> Vec<_> {
            measure_cell_backend(backend, Curve::Bn128, &cpu, 1 << 10, &Stage::ALL)
                .expect("traced cell succeeds")
                .into_iter()
                .map(|m| (m.stage, m.counts))
                .collect()
        };
        let lane_cell = cell();
        assert!(lane_cell.iter().all(|(_, counts)| counts.compute_uops > 0));
        assert_eq!(
            lanes::body(),
            host_body,
            "{backend:?} cell left the lanes off"
        );
        let scalar_cell = with_scalar_body(|| {
            assert_eq!(lanes::body(), "scalar");
            cell()
        });
        assert_eq!(lane_cell, scalar_cell, "traced {backend:?} cell at 2^10");
    }

    // A stage that fails closes the scope too: Setup before Compile.
    let mut workload = Workload::<Groth16Backend<Bn254>>::exponentiate(1 << 6);
    let err = measure_stage(&mut workload, Stage::Setup, &cpu).unwrap_err();
    assert!(
        matches!(err, StageError::MissingPrerequisite { .. }),
        "{err}"
    );
    assert_eq!(
        lanes::body(),
        host_body,
        "a failed stage left the lanes off"
    );
    measure_stage(&mut workload, Stage::Compile, &cpu).expect("compile after the failure");
    assert_eq!(lanes::body(), host_body);
}
