//! Ceremony contributions (the snarkjs `zkey contribute` step).
//!
//! A Groth16 zkey produced by `snarkjs groth16 setup` is not usable until
//! at least one participant has contributed randomness to the phase-2
//! ceremony. A contributor does not know δ, so the pass re-randomizes δ
//! and multiplies every δ-divided key point by the one scalar `d⁻¹`
//! ([`zkperf_ec::scale_points`]): a variable-base sweep that costs several
//! times the key generation it follows. The paper's `setup` stage is the
//! two together, and this pass is what gives that stage its 76.1% share
//! and 1000× loads; the traced `Workload` setup stage runs it for that
//! reason (`ProverBackend::setup_ceremony`). A party generating a key for
//! itself knows δ and needs no sweep: [`setup_contributed`](crate::setup_contributed)
//! produces the same key from the same RNG draws.

use rand::Rng;

use zkperf_ec::{scale_points, Engine};
use zkperf_ff::{Field, PrimeField};
use zkperf_trace as trace;

use crate::key::ProvingKey;

/// Applies one phase-2 contribution to `pk`: samples a random δ-update
/// `d`, sets `δ' = d·δ`, and re-scales the `L` and `H` queries by `d⁻¹`
/// so the key remains consistent. Proofs under the updated key verify
/// against the updated verification key.
pub fn contribute<E: Engine, R: Rng + ?Sized>(pk: &mut ProvingKey<E>, rng: &mut R) {
    let _g = trace::region_profile("contribute");
    let (d, d_inv) = loop {
        let v = E::Fr::random(rng);
        if let Some(inv) = v.inverse() {
            break (v, inv);
        }
    };
    let d_big = d.to_biguint();

    pk.delta_g1 = pk.delta_g1.to_projective().mul_windowed(&d_big).to_affine();
    pk.vk.delta_g2 = pk
        .vk
        .delta_g2
        .to_projective()
        .mul_windowed(&d_big)
        .to_affine();

    // Every δ-divided element picks up d⁻¹, in place: the O(n) sweep that
    // makes a ceremony's setup the heaviest stage.
    scale_points(&mut pk.l_query, &d_inv);
    scale_points(&mut pk.h_query, &d_inv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prove, setup, verify};
    use zkperf_circuit::library::exponentiate;
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;

    #[test]
    fn proofs_verify_after_contribution() {
        let circuit = exponentiate::<Fr>(8);
        let mut rng = zkperf_ff::test_rng();
        let mut pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let before_delta = pk.vk.delta_g2;
        contribute::<Bn254, _>(&mut pk, &mut rng);
        assert_ne!(pk.vk.delta_g2, before_delta, "delta was re-randomized");
        let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng).unwrap();
        assert!(verify::<Bn254>(&pk.vk, &proof, w.public()).unwrap());
    }

    #[test]
    fn pre_contribution_key_rejects_post_contribution_proofs() {
        let circuit = exponentiate::<Fr>(8);
        let mut rng = zkperf_ff::test_rng();
        let mut pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let old_vk = pk.vk.clone();
        contribute::<Bn254, _>(&mut pk, &mut rng);
        let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng).unwrap();
        assert!(!verify::<Bn254>(&old_vk, &proof, w.public()).unwrap());
    }

    #[test]
    fn multiple_contributions_compose() {
        let circuit = exponentiate::<Fr>(4);
        let mut rng = zkperf_ff::test_rng();
        let mut pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        contribute::<Bn254, _>(&mut pk, &mut rng);
        contribute::<Bn254, _>(&mut pk, &mut rng);
        let w = circuit.generate_witness(&[Fr::from_u64(5)], &[]).unwrap();
        let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng).unwrap();
        assert!(verify::<Bn254>(&pk.vk, &proof, w.public()).unwrap());
    }
}
