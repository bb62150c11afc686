//! Known-answer test: PLONK proof bytes under `test_rng`-seeded keys.
//!
//! The fixture (`tests/fixtures/plonk_proof_kat.txt`, one `name hex` line
//! per case) is the second recording, written at one thread by the prover
//! of PR 23, the PR that moved the protocol to the split quotient and the
//! linearisation polynomial (9 G1 + 6 Fr, 517 bytes on BN254); every later
//! prover must reproduce it byte for byte — same transcript, same field
//! elements, however few transforms it takes to compute them. The first
//! recording (PR 12's prover, 7 G1 + 14 Fr, 707 bytes; PR 13 reproduced it
//! byte for byte) survives as the one `pr12_layout_*` line, which the
//! codec must now refuse.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkperf::circuit::library::{
    exponentiate, merkle_membership_poseidon, merkle_path_inputs_poseidon, multiplier_chain,
};
use zkperf::circuit::Circuit;
use zkperf::core::{PlonkBackend, ProverBackend, StageError};
use zkperf::ec::{Bls12_381, Bn254};
use zkperf::ff::Field;
use zkperf::io::Container;

const FIXTURE: &str = include_str!("fixtures/plonk_proof_kat.txt");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fixture_line(name: &str) -> Option<&'static str> {
    FIXTURE
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .map(|(_, h)| h.trim())
}

/// Setup → prove → verify through the backend trait under `test_rng`, then
/// compare the encoded proof with the fixture line `name`. Returns the
/// encoded proof.
fn check<B: ProverBackend>(
    name: &str,
    circuit: &Circuit<B::Fr>,
    public: &[B::Fr],
    private: &[B::Fr],
) -> Vec<u8> {
    // The seed of `zkperf::ff::test_rng`, as the concrete type the trait takes.
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe_f00d_1234);
    let witness = circuit.generate_witness(public, private).unwrap();
    let keys = B::setup(circuit.r1cs(), &mut rng).unwrap();
    let proof = B::prove(&keys, circuit.r1cs(), &witness, &mut rng).unwrap();
    assert!(B::verify(&keys, circuit.r1cs(), &proof, witness.public()).unwrap());
    let bytes = B::encode_proof(&proof);
    let got = hex(&bytes);
    assert!(
        fixture_line(name) == Some(got.as_str()),
        "proof bytes for `{name}` differ from the fixture; the prover produced:\n{name} {got}"
    );
    bytes
}

#[test]
fn bn254_proofs_match_the_recorded_bytes() {
    type Fr = zkperf::ff::bn254::Fr;
    type B = PlonkBackend<Bn254>;
    let f = Fr::from_u64;
    // Multi-term linear combinations: addition-gate chains, auxiliary
    // wires, non-zero q_L and q_R.
    let path = [(f(11), true), (f(12), false)];
    let (inputs, _root) = merkle_path_inputs_poseidon(f(7), &path);
    let proofs = [
        check::<B>("bn254_exponentiate_2e6", &exponentiate(1 << 6), &[f(3)], &[]),
        check::<B>("bn254_exponentiate_2e10", &exponentiate(1 << 10), &[f(3)], &[]),
        check::<B>(
            "bn254_multiplier_chain_3",
            &multiplier_chain(3),
            &[],
            &[f(2), f(3), f(7)],
        ),
        check::<B>(
            "bn254_merkle_poseidon_2",
            &merkle_membership_poseidon(2),
            &[],
            &inputs,
        ),
    ];
    // 28 bytes of container, nine compressed G1 points, six scalars.
    for bytes in &proofs {
        assert_eq!(bytes.len(), 28 + 9 * 33 + 6 * 32);
    }
}

/// The codec reads one layout and nothing past it: the first recording's
/// 707-byte proof and a current proof whose body carries one more byte are
/// both refused with a typed error.
#[test]
fn decode_accepts_exactly_the_recorded_layout() {
    type B = PlonkBackend<Bn254>;
    let unhex = |h: &str| -> Vec<u8> {
        (0..h.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap())
            .collect()
    };
    let current = unhex(fixture_line("bn254_exponentiate_2e6").unwrap());
    assert_eq!(current.len(), 517);
    let proof = B::decode_proof(&current).expect("the recorded proof decodes");
    assert_eq!(B::encode_proof(&proof), current);

    let old = unhex(fixture_line("pr12_layout_bn254_exponentiate_2e6").unwrap());
    assert_eq!(old.len(), 707);
    assert!(matches!(B::decode_proof(&old), Err(StageError::Artifact { .. })));

    let container = Container::read_from(&mut &current[..], *b"zkpp").unwrap();
    let mut body = container.section(1).unwrap().to_vec();
    body.push(0);
    let mut padded = Container::new(*b"zkpp");
    padded.push_section(1, body);
    let mut bytes = Vec::new();
    padded.write_to(&mut bytes).unwrap();
    assert_eq!(bytes.len(), 518);
    assert!(matches!(B::decode_proof(&bytes), Err(StageError::Artifact { .. })));
}

#[test]
fn bls12_381_proof_matches_the_recorded_bytes() {
    type Fr = zkperf::ff::bls12_381::Fr;
    let bytes = check::<PlonkBackend<Bls12_381>>(
        "bls12_381_exponentiate_2e6",
        &exponentiate(1 << 6),
        &[Fr::from_u64(3)],
        &[],
    );
    assert_eq!(bytes.len(), 28 + 9 * 49 + 6 * 32);
}
