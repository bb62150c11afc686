//! Integration: the differential-oracle inventory runs green at a fixed
//! seed, and the campaign layer addresses cases reproducibly.
//!
//! This is the in-tree mirror of the `fuzz_lite` smoke tier: a few cases
//! of every oracle (including the thread-toggling ones, which is why the
//! suite serializes itself around the workspace pool lock via a single
//! `#[test]` per group).

use zkperf_testkit::campaign::{run_campaign, CampaignConfig};
use zkperf_testkit::{all_oracles, case_rng};

#[test]
fn every_oracle_passes_a_fixed_seed_sweep() {
    let config = CampaignConfig {
        seed: 0x7e57_0001,
        iters: 2,
        filter: None,
        case: None,
        skip_soundness: true, // covered by tests/testkit_soundness.rs
    };
    let report = run_campaign(&config, |_, _| {});
    assert_eq!(report.oracles_run, all_oracles().len());
    assert_eq!(report.cases_run, 2 * all_oracles().len() as u64);
    assert!(
        report.passed(),
        "diverging cases:\n{}",
        report
            .failures
            .iter()
            .map(|f| format!("  {} case {}: {}\n  replay: {}", f.oracle, f.case, f.detail, f.replay_command()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn case_addressing_is_reproducible_and_independent() {
    use rand::Rng;
    // Same (seed, oracle, case) → same stream; any coordinate change →
    // a different stream. This is the property the replay workflow rests on.
    let mut a = case_rng(7, "msm_bn254_g1", 3);
    let mut b = case_rng(7, "msm_bn254_g1", 3);
    let draws_a: Vec<u64> = (0..8).map(|_| a.gen()).collect();
    let draws_b: Vec<u64> = (0..8).map(|_| b.gen()).collect();
    assert_eq!(draws_a, draws_b);
    let mut c = case_rng(7, "msm_bn254_g1", 4);
    let mut d = case_rng(8, "msm_bn254_g1", 3);
    let mut e = case_rng(7, "ntt_bn254_fr", 3);
    assert_ne!(draws_a, (0..8).map(|_| c.gen()).collect::<Vec<u64>>());
    assert_ne!(draws_a, (0..8).map(|_| d.gen()).collect::<Vec<u64>>());
    assert_ne!(draws_a, (0..8).map(|_| e.gen()).collect::<Vec<u64>>());
}

#[test]
fn inventory_covers_every_optimized_kernel_family() {
    // The acceptance bar for the testkit: each kernel family that got an
    // optimized implementation has at least one differential oracle.
    let names: Vec<&str> = all_oracles().iter().map(|o| o.name).collect();
    for family in [
        "field_ops",      // Montgomery mul/sqr/add/sub vs BigUint
        "field_inverse",  // Fermat + batch inverse
        "msm_",           // batch-affine signed-window MSM
        "fixed_base",     // fixed-base window tables
        "scale_points",   // shared-scalar batch-affine scaling
        "ntt_",           // cached-twiddle NTT, forward/inverse/coset
        "lagrange",       // barycentric Lagrange kernel
        "threads_",       // N-thread vs 1-thread determinism
        "groth16_roundtrip",
        "plonk_roundtrip",
        "stark_goldilocks",      // Goldilocks arithmetic vs BigUint
        "stark_merkle",          // Poseidon Merkle vs recursive reference
        "stark_fri_fold",        // FRI fold vs even/odd Horner evaluation
        "stark_roundtrip",       // transparent pipeline + proof codec
        "stark_threads",         // STARK kernels across pool sizes
    ] {
        assert!(
            names.iter().any(|n| n.contains(family)),
            "no oracle covers kernel family {family:?} (inventory: {names:?})"
        );
    }
}

/// What a trace session records is the batched / twisted kernel itself,
/// not the reference it is pinned to: on the same input the session's
/// micro-op total is strictly below the reference's.
#[test]
fn a_trace_session_records_the_optimized_kernels() {
    use zkperf::ec::bn254::{pairing, G1Affine, G1Projective, G2Affine};
    use zkperf::ec::scale_points;
    use zkperf::ff::{bn254::Fr, test_rng, Field};
    use zkperf_testkit::reference::{pairing::bn254 as slow, scale_points_reference};

    let mut rng = test_rng();
    let points: Vec<G1Affine> = (0..64)
        .map(|_| G1Projective::random(&mut rng).to_affine())
        .collect();
    let k = Fr::random(&mut rng);
    let (p, q) = (points[0], G2Affine::generator());
    let traced_uops = |kernel: &dyn Fn()| {
        // Once untraced, so no first-use table lands in the session.
        kernel();
        let session = zkperf::trace::Session::begin();
        kernel();
        session.finish().counts.total_uops()
    };
    let fast = traced_uops(&|| scale_points(&mut points.clone(), &k));
    let reference = traced_uops(&|| scale_points_reference(&mut points.clone(), &k));
    assert!(0 < fast && fast < reference, "scale_points {fast} vs reference {reference}");
    let fast = traced_uops(&|| assert!(!pairing(&p, &q).is_one()));
    let reference = traced_uops(&|| assert!(!slow::pairing(&p, &q).is_one()));
    assert!(0 < fast && fast < reference, "pairing {fast} vs reference {reference}");
}
