//! Known-answer test: PLONK proof bytes under `test_rng`-seeded keys.
//!
//! The fixture (`tests/fixtures/plonk_proof_kat.txt`, one `name hex` line
//! per case) was written by the prover as it stood before the circuit
//! preprocessing moved into the key; every later prover must reproduce it
//! byte for byte — same transcript, same field elements, however few
//! transforms it takes to compute them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkperf::circuit::library::{
    exponentiate, merkle_membership_poseidon, merkle_path_inputs_poseidon, multiplier_chain,
};
use zkperf::circuit::Circuit;
use zkperf::core::{PlonkBackend, ProverBackend};
use zkperf::ec::{Bls12_381, Bn254};
use zkperf::ff::Field;

const FIXTURE: &str = include_str!("fixtures/plonk_proof_kat.txt");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Setup → prove → verify through the backend trait under `test_rng`, then
/// compare the encoded proof with the fixture line `name`.
fn check<B: ProverBackend>(
    name: &str,
    circuit: &Circuit<B::Fr>,
    public: &[B::Fr],
    private: &[B::Fr],
) {
    // The seed of `zkperf::ff::test_rng`, as the concrete type the trait takes.
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe_f00d_1234);
    let witness = circuit.generate_witness(public, private).unwrap();
    let keys = B::setup(circuit.r1cs(), &mut rng).unwrap();
    let proof = B::prove(&keys, circuit.r1cs(), &witness, &mut rng).unwrap();
    assert!(B::verify(&keys, circuit.r1cs(), &proof, witness.public()).unwrap());
    let got = hex(&B::encode_proof(&proof));
    let expected = FIXTURE
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .map(|(_, h)| h.trim());
    assert!(
        expected == Some(got.as_str()),
        "proof bytes for `{name}` differ from the fixture; the prover produced:\n{name} {got}"
    );
}

#[test]
fn bn254_proofs_match_the_recorded_bytes() {
    type Fr = zkperf::ff::bn254::Fr;
    type B = PlonkBackend<Bn254>;
    let f = Fr::from_u64;
    check::<B>("bn254_exponentiate_2e6", &exponentiate(1 << 6), &[f(3)], &[]);
    check::<B>("bn254_exponentiate_2e10", &exponentiate(1 << 10), &[f(3)], &[]);
    check::<B>(
        "bn254_multiplier_chain_3",
        &multiplier_chain(3),
        &[],
        &[f(2), f(3), f(7)],
    );
    // Multi-term linear combinations: addition-gate chains, auxiliary
    // wires, non-zero q_L and q_R.
    let path = [(f(11), true), (f(12), false)];
    let (inputs, _root) = merkle_path_inputs_poseidon(f(7), &path);
    check::<B>(
        "bn254_merkle_poseidon_2",
        &merkle_membership_poseidon(2),
        &[],
        &inputs,
    );
}

#[test]
fn bls12_381_proof_matches_the_recorded_bytes() {
    type Fr = zkperf::ff::bls12_381::Fr;
    check::<PlonkBackend<Bls12_381>>(
        "bls12_381_exponentiate_2e6",
        &exponentiate(1 << 6),
        &[Fr::from_u64(3)],
        &[],
    );
}
