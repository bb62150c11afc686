#![warn(missing_docs)]

//! A transparent FRI/STARK-style proving system over the Goldilocks
//! field — the suite's no-trusted-setup comparison point beside Groth16
//! and PLONK.
//!
//! The paper's two backends both rest on pairings and a structured
//! reference string; the SNARK-vs-STARK literature argues the defining
//! tradeoff (transparent setup vs proof size vs prover bandwidth) only
//! shows up when a hash-based backend runs in the same harness. This
//! crate supplies that backend end to end:
//!
//! - [`air`] — the R1CS → trace mapping: per-constraint inner products as
//!   three columns, public wires as a boundary column;
//! - [`poseidon`] — the backend's hash: the circuit library's Poseidon
//!   permutation re-implemented for Goldilocks on raw words, one or four
//!   states at a time, pinned equal to the generic one;
//! - [`merkle`] — Poseidon Merkle commitments, built four hashes at a
//!   time on the deterministic pool;
//! - [`transcript`] — a Poseidon duplex sponge for Fiat-Shamir;
//! - [`fri`] — the fold-by-two low-degree test with configurable blowup
//!   and query count ([`StarkParams`], `ZKPERF_STARK_*` knobs);
//! - [`prove`](fn@prove) / [`verify`](fn@verify) — the DEEP-style
//!   protocol: commit trace and quotient, evaluate out of domain, fold
//!   the DEEP composition, answer queries;
//! - [`proof`] — the proof object and its canonical byte codec.
//!
//! Proving takes no randomness at all — proofs are byte-identical across
//! runs and thread counts. Soundness scope: the quotient check binds the
//! committed columns to the constraint system and the boundary column
//! binds the claimed public inputs, but (as documented in DESIGN §16)
//! there is no lincheck tying the three columns to a single committed
//! witness vector and no zero-knowledge blinding — performance
//! characterization, not production soundness, is the goal.

pub mod air;
pub mod error;
pub mod fri;
pub mod merkle;
pub mod params;
pub mod poseidon;
pub mod proof;
mod prove;
pub mod transcript;
mod verify;

pub use error::StarkError;
pub use params::{StarkParams, BLOWUP_ENV, FINAL_POLY_MAX_DEGREE, QUERIES_ENV};
pub use proof::{FriStep, OodEvals, QueryOpening, StarkProof};
pub use prove::prove;
pub use verify::verify;

/// The field the backend runs on.
pub use zkperf_ff::Goldilocks;

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_circuit::library::{exponentiate, merkle_membership_poseidon};
    use zkperf_ff::Field;

    type F = Goldilocks;

    fn small_params() -> StarkParams {
        StarkParams {
            blowup: 4,
            num_queries: 12,
        }
    }

    #[test]
    fn exponentiate_roundtrip_accepts() {
        let circuit = exponentiate::<F>(64);
        let w = circuit.generate_witness(&[F::from_u64(3)], &[]).unwrap();
        let params = small_params();
        let proof = prove(circuit.r1cs(), w.full(), &params).unwrap();
        verify(circuit.r1cs(), w.public(), &proof, &params).unwrap();
    }

    #[test]
    fn merkle_membership_roundtrip_accepts() {
        let circuit = merkle_membership_poseidon::<F>(4);
        let path: Vec<(F, bool)> = (0..4).map(|i| (F::from_u64(100 + i), i % 2 == 0)).collect();
        let (inputs, _root) =
            zkperf_circuit::library::merkle_path_inputs_poseidon(F::from_u64(7), &path);
        let w = circuit.generate_witness(&[], &inputs).unwrap();
        let params = small_params();
        let proof = prove(circuit.r1cs(), w.full(), &params).unwrap();
        verify(circuit.r1cs(), w.public(), &proof, &params).unwrap();
    }

    #[test]
    fn unsatisfying_witness_proves_but_never_verifies() {
        let circuit = exponentiate::<F>(16);
        let w = circuit.generate_witness(&[F::from_u64(2)], &[]).unwrap();
        let mut bad = w.full().to_vec();
        let last = bad.len() - 1;
        bad[last] += F::one();
        let params = small_params();
        let proof = prove(circuit.r1cs(), &bad, &params).unwrap();
        let err = verify(circuit.r1cs(), w.public(), &proof, &params).unwrap_err();
        assert!(
            matches!(err, StarkError::OodInconsistent | StarkError::QuotientMismatch { .. }),
            "unexpected rejection path: {err}"
        );
    }

    #[test]
    fn wrong_public_inputs_are_rejected() {
        let circuit = exponentiate::<F>(16);
        let w = circuit.generate_witness(&[F::from_u64(2)], &[]).unwrap();
        let params = small_params();
        let proof = prove(circuit.r1cs(), w.full(), &params).unwrap();
        let mut tampered = w.public().to_vec();
        tampered[1] += F::one();
        assert!(verify(circuit.r1cs(), &tampered, &proof, &params).is_err());
    }

    #[test]
    fn params_mismatch_is_typed() {
        let circuit = exponentiate::<F>(16);
        let w = circuit.generate_witness(&[F::from_u64(2)], &[]).unwrap();
        let params = small_params();
        let proof = prove(circuit.r1cs(), w.full(), &params).unwrap();
        let other = StarkParams {
            blowup: 8,
            num_queries: params.num_queries,
        };
        let err = verify(circuit.r1cs(), w.public(), &proof, &other).unwrap_err();
        assert!(matches!(
            err,
            StarkError::ParamsMismatch { what: "blowup", .. }
        ));
    }

    #[test]
    fn proof_bytes_roundtrip_and_verify() {
        let circuit = exponentiate::<F>(32);
        let w = circuit.generate_witness(&[F::from_u64(5)], &[]).unwrap();
        let params = small_params();
        let proof = prove(circuit.r1cs(), w.full(), &params).unwrap();
        let bytes = proof.encode();
        let decoded = StarkProof::decode(&bytes).unwrap();
        assert_eq!(decoded, proof);
        verify(circuit.r1cs(), w.public(), &decoded, &params).unwrap();
    }

    #[test]
    fn proving_is_deterministic() {
        let circuit = exponentiate::<F>(32);
        let w = circuit.generate_witness(&[F::from_u64(5)], &[]).unwrap();
        let params = small_params();
        let one = prove(circuit.r1cs(), w.full(), &params).unwrap().encode();
        let two = prove(circuit.r1cs(), w.full(), &params).unwrap().encode();
        assert_eq!(one, two);
    }

    #[test]
    fn cancellation_is_typed() {
        let circuit = exponentiate::<F>(16);
        let w = circuit.generate_witness(&[F::from_u64(2)], &[]).unwrap();
        let token = zkperf_pool::CancelToken::new();
        token.cancel();
        let _scope = token.enter();
        let err = prove(circuit.r1cs(), w.full(), &small_params()).unwrap_err();
        assert_eq!(err, StarkError::Cancelled);
    }

    #[test]
    fn tiny_circuit_with_single_constraint() {
        let circuit = exponentiate::<F>(1);
        let w = circuit.generate_witness(&[F::from_u64(9)], &[]).unwrap();
        let params = small_params();
        let proof = prove(circuit.r1cs(), w.full(), &params).unwrap();
        verify(circuit.r1cs(), w.public(), &proof, &params).unwrap();
    }
}
