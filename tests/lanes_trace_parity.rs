//! Integration: a trace session records the scalar body's op stream
//! whichever body ran the lane kernels.
//!
//! On a host with AVX-512 IFMA the BN254 G1 rounds of `BatchAdder`, the
//! NTT passes and scalings of `zkperf-poly` and PLONK's quotient rows run
//! in the 8-lane kernels of `zkperf_ff::lanes`, which compute past `Fp`'s
//! trace hooks and report the scalar ops they replace instead. This test is
//! the only guard on that report: a traced 2^10 MSM, traced 2^10 forward,
//! inverse and coset NTTs, and traced Groth16 and PLONK cells at 2^10, each
//! run through both bodies, must come out with every `OpCounts` field equal
//! (`tests/characterization.rs` stays green on a stream that lost most of
//! its multiplies).
//!
//! One `#[test]`: `with_scalar_body` switches the lanes off process-wide.

use zkperf::core::{measure_cell_backend, BackendKind, Curve, Stage};
use zkperf::ec::bn254::{G1Affine, G1Projective};
use zkperf::ec::msm;
use zkperf::ff::lanes::{self, with_scalar_body};
use zkperf::ff::{bn254::Fr, test_rng, Field};
use zkperf::machine::CpuProfile;
use zkperf::poly::Radix2Domain;
use zkperf::{pool, trace};

#[test]
fn both_bodies_report_the_same_op_counts() {
    if lanes::body() == "scalar" {
        eprintln!("no AVX-512 IFMA on this host: both legs run the scalar body");
    }
    let mut rng = test_rng();
    let n = 1 << 10;
    let bases: Vec<G1Affine> = (0..n)
        .map(|_| G1Projective::random(&mut rng).to_affine())
        .collect();
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let traced_msm = || {
        let _serial = pool::SerialScope::enter();
        // Once untraced, so the first-use tables (GLV lattice) stay out.
        msm(&bases, &scalars);
        let session = trace::Session::begin();
        let sum = msm(&bases, &scalars).to_affine();
        (session.finish().counts, sum)
    };
    let (lane_counts, lane_sum) = traced_msm();
    let (scalar_counts, scalar_sum) = with_scalar_body(|| {
        assert_eq!(lanes::body(), "scalar");
        traced_msm()
    });
    assert!(lane_sum == scalar_sum, "the two bodies summed differently");
    assert!(lane_counts.compute_uops > 0);
    assert_eq!(lane_counts, scalar_counts, "traced 2^10 MSM");

    // Every pass of a 2^10 transform from the fourth on has half-blocks of
    // eight or more, and the inverse and coset transforms add the 1/n and
    // power scalings.
    let domain = Radix2Domain::<Fr>::new(n).expect("2^10 domain");
    let traced_ntt = |transform: &dyn Fn(&mut [Fr])| {
        let _serial = pool::SerialScope::enter();
        let mut values = scalars.clone();
        let session = trace::Session::begin();
        transform(&mut values);
        (session.finish().counts, values)
    };
    for name in ["forward", "inverse", "coset"] {
        let transform = |v: &mut [Fr]| match name {
            "forward" => domain.fft_in_place(v),
            "inverse" => domain.ifft_in_place(v),
            _ => domain.coset_fft_in_place(v),
        };
        let (lane_counts, lane_values) = traced_ntt(&transform);
        let (scalar_counts, scalar_values) = with_scalar_body(|| traced_ntt(&transform));
        assert!(
            lane_values == scalar_values,
            "{name} NTT: the two bodies differ"
        );
        assert!(lane_counts.compute_uops > 0);
        assert_eq!(lane_counts, scalar_counts, "traced 2^10 {name} NTT");
    }

    let cpu = CpuProfile::i7_8650u();
    // Groth16's QAP transforms and PLONK's transforms and quotient rows.
    for backend in [BackendKind::Groth16, BackendKind::Plonk] {
        let cell = || -> Vec<_> {
            measure_cell_backend(backend, Curve::Bn128, &cpu, 1 << 10, &Stage::ALL)
                .expect("traced cell succeeds")
                .into_iter()
                .map(|m| (m.stage, m.counts))
                .collect()
        };
        let lane_cell = cell();
        assert_eq!(
            lane_cell,
            with_scalar_body(cell),
            "traced {backend:?} cell at 2^10"
        );
    }
}
