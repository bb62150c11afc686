#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! A from-scratch Groth16 proving system over BN254 and BLS12-381.
//!
//! Implements the last four stages of the paper's zk-SNARK workflow —
//! `setup`, `witness` (via `zkperf-circuit`), `proving` and `verifying` —
//! on top of the suite's own field, curve, and polynomial substrates. The
//! `compile` stage lives in [`zkperf_circuit`].
//!
//! There is one key builder and one prover: [`setup_streamed`] emits the
//! proving key in chunks to a [`QuerySink`] and [`prove_streamed`] reads
//! it in chunks from a [`QuerySource`]. [`setup`] and [`prove`] are those
//! two over a resident [`ProvingKey`]; `zkperf-io` implements the traits
//! over a file.
//!
//! A key needs one phase-2 contribution before it is usable. There are two
//! verbs for that: [`contribute`], the ceremony step a party who does not
//! know δ applies to someone else's key, and [`setup_contributed`], the
//! key builder run by the single party who generates a key for itself —
//! the same bytes as [`setup`] then [`contribute`], at the cost of
//! [`setup`] alone.
//!
//! # Examples
//!
//! ```
//! use zkperf_circuit::library::exponentiate;
//! use zkperf_ec::Bn254;
//! use zkperf_ff::{Field, bn254::Fr};
//! use zkperf_groth16::{prove, setup, verify};
//!
//! let circuit = exponentiate::<Fr>(8); // y = x^8
//! let mut rng = zkperf_ff::test_rng();
//! let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng)?;
//! let witness = circuit.generate_witness(&[Fr::from_u64(3)], &[])?;
//! let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &witness, &mut rng)?;
//! assert!(verify::<Bn254>(&pk.vk, &proof, witness.public())?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod batch;
mod contribute;
mod key;
mod prepared;
mod prove;
mod qap;
mod setup;
mod stream;
mod verify;

pub use batch::verify_batch;
pub use contribute::contribute;
pub use key::{Proof, ProvingKey, VerifyingKey};
pub use prepared::PreparedVerifyingKey;
pub use prove::{prove, prove_streamed, ProveError};
pub use qap::{compute_h_coefficients, evaluate_constraints, evaluate_matrices_at};
pub use setup::{setup, setup_contributed, setup_streamed, SetupError};
pub use stream::{
    ChunkedKey, FixedParts, G1Chunks, G1Query, G2Chunks, MemorySink, QuerySink, QuerySource,
    StreamError, StreamHeader, G1_QUERIES,
};
pub use verify::{verify, VerifyError};

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_circuit::library::{exponentiate, multiplier_chain};
    use zkperf_ec::{Bls12_381, Bn254, Engine};
    use zkperf_ff::Field;

    fn end_to_end<E: Engine>() {
        let circuit = exponentiate::<E::Fr>(16);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<E, _>(circuit.r1cs(), &mut rng).unwrap();
        let x = E::Fr::from_u64(5);
        let witness = circuit.generate_witness(&[x], &[]).unwrap();
        let proof = prove::<E, _>(&pk, circuit.r1cs(), &witness, &mut rng).unwrap();
        assert!(verify::<E>(&pk.vk, &proof, witness.public()).unwrap());

        // Soundness spot-checks: wrong public input and corrupted proof fail.
        let mut wrong = witness.public().to_vec();
        wrong[2] = E::Fr::from_u64(6);
        assert!(!verify::<E>(&pk.vk, &proof, &wrong).unwrap());
        let mut corrupt = proof.clone();
        corrupt.c = corrupt.a;
        assert!(!verify::<E>(&pk.vk, &corrupt, witness.public()).unwrap());
        // Swapped proof elements fail too.
        let swapped = Proof::<E> {
            a: proof.c,
            b: proof.b,
            c: proof.a,
        };
        assert!(!verify::<E>(&pk.vk, &swapped, witness.public()).unwrap());
    }

    #[test]
    fn bn254_end_to_end() {
        end_to_end::<Bn254>();
    }

    #[test]
    fn bls12_381_end_to_end() {
        end_to_end::<Bls12_381>();
    }

    #[test]
    fn proof_is_constant_size_across_circuits() {
        let mut rng = zkperf_ff::test_rng();
        let mut sizes = Vec::new();
        for n in [4usize, 32] {
            let circuit = exponentiate::<zkperf_ff::bn254::Fr>(n);
            let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
            let w = circuit
                .generate_witness(&[zkperf_ff::bn254::Fr::from_u64(2)], &[])
                .unwrap();
            let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng).unwrap();
            sizes.push(proof.size_bytes());
            assert!(verify::<Bn254>(&pk.vk, &proof, w.public()).unwrap());
        }
        assert_eq!(sizes[0], sizes[1], "Groth16 proofs are constant-size");
    }

    #[test]
    fn private_inputs_stay_private_but_prove() {
        // Knowledge of factors: 6 = 2·3 without revealing 2 and 3.
        let circuit = multiplier_chain::<zkperf_ff::bn254::Fr>(2);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let f = |v: u64| zkperf_ff::bn254::Fr::from_u64(v);
        let w = circuit.generate_witness(&[], &[f(2), f(3)]).unwrap();
        assert_eq!(w.public(), &[f(1), f(6)]);
        let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng).unwrap();
        assert!(verify::<Bn254>(&pk.vk, &proof, &[f(1), f(6)]).unwrap());
        assert!(!verify::<Bn254>(&pk.vk, &proof, &[f(1), f(7)]).unwrap());
    }

    #[test]
    fn proof_for_one_witness_fails_for_another_statement() {
        let circuit = exponentiate::<zkperf_ff::bn254::Fr>(4);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let f = |v: u64| zkperf_ff::bn254::Fr::from_u64(v);
        let w2 = circuit.generate_witness(&[f(2)], &[]).unwrap();
        let w3 = circuit.generate_witness(&[f(3)], &[]).unwrap();
        let proof2 = prove::<Bn254, _>(&pk, circuit.r1cs(), &w2, &mut rng).unwrap();
        assert!(!verify::<Bn254>(&pk.vk, &proof2, w3.public()).unwrap());
    }
}
