//! Integration: the backend-trait conformance suite.
//!
//! Every `ProverBackend` implementation must present the same contract
//! through the unified trait: setup/prove/verify roundtrips accept a
//! satisfied circuit, the proof codec is the identity, a tampered
//! statement is refused with `Ok(false)` (never a panic or a spurious
//! `Err`), and an unsatisfying witness can never end in an accepted
//! proof. The suite drives the two acceptance workloads — the
//! exponentiation family and Poseidon Merkle membership — through all
//! three backends purely via the trait, with no backend-specific calls.

use zkperf::circuit::{library, Circuit, Witness};
use zkperf::core::{BackendKind, Groth16Backend, PlonkBackend, ProverBackend, StarkBackend};
use zkperf::ec::{Bls12_381, Bn254};
use zkperf::ff::{Field, PrimeField};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Depth of the Merkle-membership acceptance workload.
const MERKLE_DEPTH: usize = 20;

fn exponentiate_fixture<F: PrimeField>(constraints: usize) -> (Circuit<F>, Witness<F>) {
    let circuit = library::exponentiate::<F>(constraints);
    let w = circuit
        .generate_witness(&[F::from_u64(3)], &[])
        .expect("library circuit accepts any base");
    (circuit, w)
}

fn merkle_fixture<F: PrimeField>(depth: usize) -> (Circuit<F>, Witness<F>) {
    let circuit = library::merkle_membership_poseidon::<F>(depth);
    let path: Vec<(F, bool)> = (0..depth)
        .map(|i| (F::from_u64(100 + i as u64), i % 2 == 0))
        .collect();
    let (inputs, _root) = library::merkle_path_inputs_poseidon(F::from_u64(7), &path);
    let w = circuit
        .generate_witness(&[], &inputs)
        .expect("membership witness for an honest path");
    (circuit, w)
}

/// The positive half of the contract: roundtrip acceptance, codec
/// identity, size agreement, and `Ok(false)` on a tampered statement.
fn assert_roundtrip<B: ProverBackend>(circuit: &Circuit<B::Fr>, witness: &Witness<B::Fr>) {
    let label = B::label();
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    let keys = B::setup(circuit.r1cs(), &mut rng)
        .unwrap_or_else(|e| panic!("{label}: setup failed: {e}"));
    let proof = B::prove(&keys, circuit.r1cs(), witness, &mut rng)
        .unwrap_or_else(|e| panic!("{label}: prove failed: {e}"));
    assert!(
        B::verify(&keys, circuit.r1cs(), &proof, witness.public())
            .unwrap_or_else(|e| panic!("{label}: verify errored: {e}")),
        "{label}: valid proof rejected"
    );

    // The codec is the identity and the advertised size is the real size.
    let bytes = B::encode_proof(&proof);
    assert_eq!(
        bytes.len(),
        B::proof_size_bytes(&proof),
        "{label}: proof_size_bytes disagrees with the encoding"
    );
    let decoded = B::decode_proof(&bytes)
        .unwrap_or_else(|e| panic!("{label}: decode of own encoding failed: {e}"));
    assert!(
        B::verify(&keys, circuit.r1cs(), &decoded, witness.public()).unwrap(),
        "{label}: decoded proof rejected"
    );

    // A tampered statement is a clean reject, not an error or a panic.
    let mut tampered = witness.public().to_vec();
    let last = tampered.len() - 1;
    tampered[last] += B::Fr::one();
    assert!(
        !B::verify(&keys, circuit.r1cs(), &proof, &tampered)
            .unwrap_or_else(|e| panic!("{label}: tampered statement errored: {e}")),
        "{label}: tampered statement accepted"
    );

    // Key sizing is positive for trusted-setup backends and the
    // transparency flag matches the backend kind.
    let keys_size = B::keys_size_bytes(&keys);
    match B::kind() {
        BackendKind::Stark => assert!(B::transparent_setup(), "{label}: STARK must be transparent"),
        _ => {
            assert!(!B::transparent_setup(), "{label}: SRS backend claims transparency");
            assert!(keys_size > 0, "{label}: zero-sized proving keys");
        }
    }
}

/// The negative half: an unsatisfying witness either fails in `prove`
/// with a typed error, or produces a proof that `verify` refuses — it
/// must never end in acceptance.
fn assert_unsatisfied_rejected<B: ProverBackend>(
    circuit: &Circuit<B::Fr>,
    witness: &Witness<B::Fr>,
) {
    let label = B::label();
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    let keys = B::setup(circuit.r1cs(), &mut rng).unwrap();
    let mut bad = witness.full().to_vec();
    let last = bad.len() - 1;
    bad[last] += B::Fr::one();
    let bad = Witness::from_vector(bad, circuit.r1cs().num_public_wires());
    match B::prove(&keys, circuit.r1cs(), &bad, &mut rng) {
        Err(_) => {} // a typed refusal at prove time satisfies the contract
        Ok(proof) => assert!(
            !B::verify(&keys, circuit.r1cs(), &proof, witness.public()).unwrap(),
            "{label}: proof from an unsatisfying witness accepted"
        ),
    }
}

fn conformance_pass<B: ProverBackend>(constraints: usize, depth: usize) {
    let (circuit, w) = exponentiate_fixture::<B::Fr>(constraints);
    assert_roundtrip::<B>(&circuit, &w);
    assert_unsatisfied_rejected::<B>(&circuit, &w);
    let (circuit, w) = merkle_fixture::<B::Fr>(depth);
    assert_roundtrip::<B>(&circuit, &w);
}

#[test]
fn all_backends_agree_on_the_trait_contract() {
    // A fast sweep of the full contract — both fixtures, all three
    // backends, accept and reject sides — at a size cheap enough for the
    // default test tier.
    conformance_pass::<Groth16Backend<Bn254>>(1 << 8, 4);
    conformance_pass::<Groth16Backend<Bls12_381>>(1 << 8, 4);
    conformance_pass::<PlonkBackend<Bn254>>(1 << 8, 4);
    conformance_pass::<StarkBackend>(1 << 8, 4);
}

#[test]
fn acceptance_workloads_run_through_all_three_backends() {
    // The acceptance bar from the backend-refactor issue: exponentiate
    // 2^14 and Merkle membership at depth 20, setup → prove → verify,
    // dispatched purely through the unified trait.
    conformance_pass::<Groth16Backend<Bn254>>(1 << 14, MERKLE_DEPTH);
    conformance_pass::<PlonkBackend<Bn254>>(1 << 14, MERKLE_DEPTH);
    conformance_pass::<StarkBackend>(1 << 14, MERKLE_DEPTH);
}

/// `setup_ceremony` is `setup` done the expensive way: the same `rng`
/// draws, and keys that prove to the same bytes and verify each other's
/// proofs. Returns both key sets for a backend-specific comparison.
fn assert_ceremony_matches_setup<B: ProverBackend>() -> (B::Keys, B::Keys) {
    let label = B::label();
    let (circuit, w) = exponentiate_fixture::<B::Fr>(1 << 6);
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    let mut ceremony_rng = rng.clone();
    let keys = B::setup(circuit.r1cs(), &mut rng).unwrap();
    let ceremony = B::setup_ceremony(circuit.r1cs(), &mut ceremony_rng).unwrap();
    assert_eq!(
        rng.clone().next_u64(),
        ceremony_rng.clone().next_u64(),
        "{label}: setup and setup_ceremony leave the RNG at different positions"
    );
    assert_eq!(B::keys_size_bytes(&keys), B::keys_size_bytes(&ceremony));
    let proof = B::prove(&keys, circuit.r1cs(), &w, &mut rng).unwrap();
    let by_ceremony = B::prove(&ceremony, circuit.r1cs(), &w, &mut ceremony_rng).unwrap();
    assert_eq!(
        B::encode_proof(&proof),
        B::encode_proof(&by_ceremony),
        "{label}: the two key sets prove to different bytes"
    );
    assert!(B::verify(&keys, circuit.r1cs(), &by_ceremony, w.public()).unwrap());
    assert!(B::verify(&ceremony, circuit.r1cs(), &proof, w.public()).unwrap());
    (keys, ceremony)
}

#[test]
fn setup_ceremony_builds_the_keys_setup_builds() {
    // Groth16 overrides the ceremony (setup, then a contribution by sweep);
    // its keys compare field for field on both curves.
    let (keys, ceremony) = assert_ceremony_matches_setup::<Groth16Backend<Bn254>>();
    assert_eq!(keys, ceremony);
    let (keys, ceremony) = assert_ceremony_matches_setup::<Groth16Backend<Bls12_381>>();
    assert_eq!(keys, ceremony);
    // PLONK and STARK have no contribution: the provided default.
    assert_ceremony_matches_setup::<PlonkBackend<Bn254>>();
    let (params, ceremony) = assert_ceremony_matches_setup::<StarkBackend>();
    assert_eq!(params, ceremony);
}

#[test]
fn backend_labels_and_kinds_are_distinct() {
    let labels = [
        Groth16Backend::<Bn254>::label(),
        Groth16Backend::<Bls12_381>::label(),
        PlonkBackend::<Bn254>::label(),
        PlonkBackend::<Bls12_381>::label(),
        StarkBackend::label(),
    ];
    let distinct: std::collections::HashSet<&str> = labels.iter().copied().collect();
    assert_eq!(distinct.len(), labels.len(), "duplicate backend labels: {labels:?}");
    assert_eq!(BackendKind::ALL.len(), 3);
}
