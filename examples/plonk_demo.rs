//! Proving the same statement under both schemes snarkjs offers — Groth16
//! and PlonK — and timing them (the paper's §IV-A comparison).
//!
//! Run with `cargo run --release --example plonk_demo`.

use std::time::Instant;

use zkperf::circuit::library::exponentiate;
use zkperf::core::{PlonkBackend, ProverBackend};
use zkperf::ec::Bn254;
use zkperf::ff::{bn254::Fr, Field};
use zkperf::groth16;
use zkperf::plonk::{plonk_prove, plonk_setup, plonk_verify};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 9;
    let circuit = exponentiate::<Fr>(n);
    let witness = circuit.generate_witness(&[Fr::from_u64(3)], &[])?;
    let mut rng = zkperf::ff::test_rng();
    println!("statement: y = 3^{n} over BN254 ({n} constraints)\n");

    let g_pk = groth16::setup::<Bn254, _>(circuit.r1cs(), &mut rng)?;
    let t = Instant::now();
    let g_proof = groth16::prove::<Bn254, _>(&g_pk, circuit.r1cs(), &witness, &mut rng)?;
    let g_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(groth16::verify::<Bn254>(&g_pk.vk, &g_proof, witness.public())?);
    println!("Groth16: proved in {g_ms:.1} ms, proof {} bytes, ACCEPT", g_proof.size_bytes());

    let p_pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng)?;
    let t = Instant::now();
    let p_proof = plonk_prove(&p_pk, witness.full())?;
    let p_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(plonk_verify(p_pk.vk(), &p_proof, witness.public()));
    let p_bytes = PlonkBackend::<Bn254>::encode_proof(&p_proof).len();
    println!("PlonK:   proved in {p_ms:.1} ms, proof {p_bytes} bytes, ACCEPT");

    println!(
        "\nPlonK/Groth16 proving-time ratio: {:.2}× (the paper reports ~2× for snarkjs)",
        p_ms / g_ms
    );
    Ok(())
}
