//! The [`Engine`] abstraction: everything Groth16 needs from a pairing
//! curve, implemented by [`Bn254`] and [`Bls12_381`].

use std::fmt::Debug;
use std::hash::Hash;

use zkperf_ff::{Field, PrimeField};

use crate::curve::{Affine, CurveParams};

/// A pairing-friendly curve suite: scalar field, two source groups, target
/// group, and the pairing itself.
///
/// This trait is sealed in spirit — the suite ships exactly the two engines
/// the paper evaluates — but is left open so downstream users can plug in
/// further curves.
pub trait Engine: Copy + Clone + Debug + PartialEq + Eq + Hash + Send + Sync + 'static {
    /// The scalar field (circuit values and witnesses).
    type Fr: PrimeField;
    /// G1 curve parameters.
    type G1: CurveParams<Scalar = Self::Fr>;
    /// G2 curve parameters.
    type G2: CurveParams<Scalar = Self::Fr>;
    /// The target group (multiplicative subgroup of `Fq12`).
    type Gt: Field;
    /// A G2 point with its Miller-loop line coefficients precomputed.
    type G2Prepared: Clone + Debug + PartialEq + Eq + Send + Sync + 'static;
    /// Display name matching the paper's terminology.
    const NAME: &'static str;

    /// The bilinear pairing `e(P, Q)`.
    fn pairing(p: &Affine<Self::G1>, q: &Affine<Self::G2>) -> Self::Gt;

    /// `Π e(Pᵢ, Qᵢ)` with one shared final exponentiation. Mismatched
    /// slice lengths truncate to the shorter slice (the MSM contract).
    fn multi_pairing(ps: &[Affine<Self::G1>], qs: &[Affine<Self::G2>]) -> Self::Gt;

    /// Precomputes the Miller-loop lines of a fixed G2 point, amortizing
    /// them across every future pairing against that point.
    fn prepare_g2(q: &Affine<Self::G2>) -> Self::G2Prepared;

    /// [`Engine::multi_pairing`] over prepared G2 points (same truncation
    /// contract).
    fn multi_pairing_prepared(ps: &[Affine<Self::G1>], qs: &[&Self::G2Prepared]) -> Self::Gt;
}

/// The BN254 engine (the paper's "BN128", circom/snarkjs default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bn254;

impl Engine for Bn254 {
    type Fr = zkperf_ff::bn254::Fr;
    type G1 = crate::bn254::G1Params;
    type G2 = crate::bn254::G2Params;
    type Gt = zkperf_ff::bn254::Fq12;
    type G2Prepared = crate::pairing_fast::G2Prepared<crate::bn254::G2Params>;
    const NAME: &'static str = "BN128";

    fn pairing(p: &Affine<Self::G1>, q: &Affine<Self::G2>) -> Self::Gt {
        crate::bn254::pairing(p, q)
    }

    fn multi_pairing(ps: &[Affine<Self::G1>], qs: &[Affine<Self::G2>]) -> Self::Gt {
        crate::bn254::multi_pairing(ps, qs)
    }

    fn prepare_g2(q: &Affine<Self::G2>) -> Self::G2Prepared {
        crate::bn254::prepare_g2(q)
    }

    fn multi_pairing_prepared(ps: &[Affine<Self::G1>], qs: &[&Self::G2Prepared]) -> Self::Gt {
        crate::bn254::multi_pairing_prepared(ps, qs)
    }
}

/// The BLS12-381 engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bls12_381;

impl Engine for Bls12_381 {
    type Fr = zkperf_ff::bls12_381::Fr;
    type G1 = crate::bls12_381::G1Params;
    type G2 = crate::bls12_381::G2Params;
    type Gt = zkperf_ff::bls12_381::Fq12;
    type G2Prepared = crate::pairing_fast::G2Prepared<crate::bls12_381::G2Params>;
    const NAME: &'static str = "BLS12-381";

    fn pairing(p: &Affine<Self::G1>, q: &Affine<Self::G2>) -> Self::Gt {
        crate::bls12_381::pairing(p, q)
    }

    fn multi_pairing(ps: &[Affine<Self::G1>], qs: &[Affine<Self::G2>]) -> Self::Gt {
        crate::bls12_381::multi_pairing(ps, qs)
    }

    fn prepare_g2(q: &Affine<Self::G2>) -> Self::G2Prepared {
        crate::bls12_381::prepare_g2(q)
    }

    fn multi_pairing_prepared(ps: &[Affine<Self::G1>], qs: &[&Self::G2Prepared]) -> Self::Gt {
        crate::bls12_381::multi_pairing_prepared(ps, qs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::Projective;

    fn engine_bilinearity<E: Engine>() {
        let a = E::Fr::from_u64(21);
        let b = E::Fr::from_u64(2);
        let g1 = Projective::<E::G1>::generator();
        let g2 = Projective::<E::G2>::generator();
        let lhs = E::pairing(&(g1 * a).to_affine(), &(g2 * b).to_affine());
        let rhs = E::pairing(&(g1 * (a * b)).to_affine(), &g2.to_affine());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn both_engines_are_bilinear_through_the_trait() {
        engine_bilinearity::<Bn254>();
        engine_bilinearity::<Bls12_381>();
    }

    /// No kernel asks whether a trace session is recording: under one every
    /// entry point returns the untraced value, prepared lines included.
    fn kernels_run_the_same_under_a_session<E>()
    where
        E: Engine<G2Prepared = crate::G2Prepared<<E as Engine>::G2>>,
    {
        let mut rng = zkperf_ff::test_rng();
        let ps: Vec<Affine<E::G1>> = (0..40)
            .map(|_| Projective::random(&mut rng).to_affine())
            .collect();
        let ks: Vec<E::Fr> = (0..40).map(|_| E::Fr::random(&mut rng)).collect();
        let q = Projective::<E::G2>::random(&mut rng).to_affine();
        let run = || {
            let prepared = E::prepare_g2(&q);
            let (mut g1, mut g2) = (ps.clone(), vec![q; 3]);
            crate::scale_points(&mut g1, &ks[0]);
            crate::scale_points(&mut g2, &ks[1]);
            (
                E::pairing(&ps[0], &q),
                E::multi_pairing_prepared(&ps[..2], &[&prepared, &prepared]),
                crate::msm(&ps, &ks),
                (g1, g2),
                prepared,
            )
        };
        let untraced = run();
        let session = zkperf_trace::Session::begin();
        let traced = run();
        let report = session.finish();
        assert_eq!(traced, untraced);
        assert!(!traced.4.coeffs.is_empty(), "lines are prepared under a session");
        for region in ["miller_loop", "final_exp", "msm", "scalar_mul"] {
            assert!(report.region(region).is_some(), "no {region} region recorded");
        }
    }

    #[test]
    fn a_trace_session_observes_the_shipped_kernels() {
        kernels_run_the_same_under_a_session::<Bn254>();
        kernels_run_the_same_under_a_session::<Bls12_381>();
    }

    #[test]
    fn engine_names_match_paper_terminology() {
        assert_eq!(Bn254::NAME, "BN128");
        assert_eq!(Bls12_381::NAME, "BLS12-381");
    }
}
