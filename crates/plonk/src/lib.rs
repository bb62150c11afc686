#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! A KZG-based PLONK proving system over the zkperf substrate.
//!
//! snarkjs — the toolchain the paper profiles — supports two proving
//! schemes, Groth16 and PlonK, and the paper notes PlonK proving runs about
//! twice as slow. This crate provides the PlonK side of that comparison:
//! KZG polynomial commitments on the suite's own pairing stack, PLONK
//! arithmetization of the benchmark circuits, and the full prover/verifier
//! (see `protocol` module docs for the variant details).
//!
//! # Examples
//!
//! ```
//! use zkperf_circuit::library::exponentiate;
//! use zkperf_ec::Bn254;
//! use zkperf_ff::{bn254::Fr, Field};
//! use zkperf_plonk::{plonk_prove, plonk_setup, plonk_verify};
//!
//! let circuit = exponentiate::<Fr>(8);
//! let mut rng = zkperf_ff::test_rng();
//! let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng)?;
//! let witness = circuit.generate_witness(&[Fr::from_u64(3)], &[])?;
//! let proof = plonk_prove(&pk, witness.full())?;
//! assert!(plonk_verify(pk.vk(), &proof, witness.public()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod circuit;
mod kzg;
mod protocol;
mod transcript;

pub use circuit::{ArithmetizeError, PlonkCircuit};
pub use kzg::{Commitment, OpeningProof, Srs};
pub use protocol::{
    plonk_prove, plonk_setup, plonk_verify, PlonkError, PlonkProof, PlonkProverKey,
    PlonkVerifyingKey,
};
pub use transcript::Transcript;

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_circuit::library::{exponentiate, multiplier_chain};
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;

    #[test]
    fn exponentiate_end_to_end() {
        let circuit = exponentiate::<Fr>(10);
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let proof = plonk_prove(&pk, w.full()).unwrap();
        assert!(plonk_verify(pk.vk(), &proof, w.public()));
    }

    #[test]
    fn ambient_cancellation_stops_setup_and_prove() {
        // Large enough that neither call reaches its last poll inside the
        // 5 ms budget below (the commitments of 3, 9, 27, … are quick).
        let circuit = exponentiate::<Fr>(1 << 10);
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();

        let token = zkperf_pool::CancelToken::new();
        token.cancel();
        let _scope = token.enter();
        assert!(matches!(
            plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng),
            Err(PlonkError::Cancelled)
        ));
        assert!(matches!(plonk_prove(&pk, w.full()), Err(PlonkError::Cancelled)));
        drop(_scope);

        // A deadline that has already passed stops both the same way; one
        // that passes mid-flight is caught at a later phase boundary (after
        // the SRS or the commitments in setup, after a round in prove).
        for budget_ms in [0, 5] {
            let budget = std::time::Duration::from_millis(budget_ms);
            let scope = zkperf_pool::CancelToken::with_timeout(budget).enter();
            assert!(matches!(
                plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng),
                Err(PlonkError::Cancelled)
            ));
            drop(scope);
            let _scope = zkperf_pool::CancelToken::with_timeout(budget).enter();
            assert!(matches!(plonk_prove(&pk, w.full()), Err(PlonkError::Cancelled)));
        }
        // Outside the scope the prover runs normally again.
        assert!(plonk_prove(&pk, w.full()).is_ok());
    }

    #[test]
    fn wrong_public_inputs_are_rejected() {
        let circuit = exponentiate::<Fr>(6);
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        let proof = plonk_prove(&pk, w.full()).unwrap();
        assert!(plonk_verify(pk.vk(), &proof, w.public()));
        let mut wrong = w.public().to_vec();
        wrong[1] += Fr::one(); // claim a different output
        assert!(!plonk_verify(pk.vk(), &proof, &wrong));
        // Wrong arity is also rejected.
        assert!(!plonk_verify(pk.vk(), &proof, &wrong[..2]));
    }

    #[test]
    fn corrupted_proofs_are_rejected() {
        let circuit = exponentiate::<Fr>(6);
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        let proof = plonk_prove(&pk, w.full()).unwrap();

        for i in 0..proof.evals.len() {
            let mut bad = proof.clone();
            bad.evals[i] += Fr::one();
            assert!(!plonk_verify(pk.vk(), &bad, w.public()), "evaluation {i}");
        }

        let mut bad = proof.clone();
        bad.t_commits[1] = bad.z_commit;
        assert!(!plonk_verify(pk.vk(), &bad, w.public()));

        let mut bad = proof.clone();
        std::mem::swap(&mut bad.w_zeta, &mut bad.w_zeta_omega);
        assert!(!plonk_verify(pk.vk(), &bad, w.public()));
    }

    #[test]
    fn unsatisfying_witness_cannot_prove() {
        // Tamper with the witness: the gate identity fails on the domain,
        // the quotient is not a polynomial of degree 3n − 4, and the prover
        // says so instead of committing to its pieces.
        let circuit = exponentiate::<Fr>(4);
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        let mut tampered = w.full().to_vec();
        let last = tampered.len() - 1;
        tampered[last] += Fr::one();
        assert_eq!(
            plonk_prove(&pk, &tampered),
            Err(PlonkError::UnsatisfiedWitness)
        );
    }

    #[test]
    fn private_inputs_stay_private() {
        let circuit = multiplier_chain::<Fr>(3);
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let f = Fr::from_u64;
        let w = circuit.generate_witness(&[], &[f(2), f(3), f(7)]).unwrap();
        let proof = plonk_prove(&pk, w.full()).unwrap();
        assert!(plonk_verify(pk.vk(), &proof, &[f(1), f(42)]));
        assert!(!plonk_verify(pk.vk(), &proof, &[f(1), f(43)]));
    }

    #[test]
    fn witness_length_mismatch_is_an_error() {
        let c1 = exponentiate::<Fr>(4);
        let c2 = exponentiate::<Fr>(8);
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(c1.r1cs(), &mut rng).unwrap();
        let w2 = c2.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        assert!(matches!(
            plonk_prove(&pk, w2.full()),
            Err(PlonkError::WitnessLength { .. })
        ));
    }
}
