//! Exhaustive single-byte corruption sweeps over the small artifacts.
//!
//! The robustness contract (DESIGN.md, "Failure model"): flipping any
//! single bit of any serialized artifact must surface a typed
//! [`FormatError`] from the reader — or, where the corrupt bytes still
//! parse, must never produce a *passing* verification. No input may
//! panic. Every read here runs under `catch_unwind` so a panic anywhere
//! in the decode path fails the test rather than aborting it.

use std::panic::{self, AssertUnwindSafe};

use rand::SeedableRng;
use zkperf_circuit::library::exponentiate;
use zkperf_ec::Bn254;
use zkperf_ff::bn254::Fr;
use zkperf_ff::Field;
use zkperf_groth16::{prove, setup_contributed, verify, Proof, VerifyingKey};
use zkperf_io::{
    read_proof, read_vkey, read_witness, write_proof, write_vkey, write_witness,
};

/// A tiny but complete pipeline: intact encodings of the three small
/// artifacts plus the decoded counterparts needed to cross-verify.
struct Fixture {
    wtns: Vec<u8>,
    vkey: Vec<u8>,
    proof: Vec<u8>,
    vk: VerifyingKey<Bn254>,
    pf: Proof<Bn254>,
    publics: Vec<Fr>,
}

fn fixture() -> Fixture {
    let circuit = exponentiate::<Fr>(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xfacade);
    let pk = setup_contributed::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
    let witness = circuit
        .generate_witness(&[Fr::from_u64(3)], &[])
        .unwrap();
    let pf = prove::<Bn254, _>(&pk, circuit.r1cs(), &witness, &mut rng).unwrap();
    assert!(
        verify::<Bn254>(&pk.vk, &pf, witness.public()).unwrap(),
        "the intact pipeline must verify before we corrupt it"
    );

    let mut wtns = Vec::new();
    let mut vkey = Vec::new();
    let mut proof = Vec::new();
    write_witness(&mut wtns, witness.full()).unwrap();
    write_vkey::<Bn254>(&mut vkey, &pk.vk).unwrap();
    write_proof::<Bn254>(&mut proof, &pf).unwrap();
    Fixture {
        wtns,
        vkey,
        proof,
        vk: pk.vk,
        pf,
        publics: witness.public().to_vec(),
    }
}

/// Runs `f` on every single-bit flip of `bytes` (all 8 bits of every
/// byte), catching panics. `f` returns `Err(why)` to flag a violation.
fn sweep_bit_flips(
    name: &str,
    bytes: &[u8],
    mut f: impl FnMut(&[u8]) -> Result<(), String>,
) {
    for offset in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut corrupt = bytes.to_vec();
            corrupt[offset] ^= 1 << bit;
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&corrupt)));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(why)) => {
                    panic!("{name}: flip of byte {offset} bit {bit}: {why}")
                }
                Err(_) => panic!("{name}: flip of byte {offset} bit {bit} panicked"),
            }
        }
    }
}

/// Runs `f` on every proper prefix of `bytes`, catching panics.
fn sweep_truncations(
    name: &str,
    bytes: &[u8],
    mut f: impl FnMut(&[u8]) -> Result<(), String>,
) {
    for keep in 0..bytes.len() {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&bytes[..keep])));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(why)) => panic!("{name}: truncation to {keep} bytes: {why}"),
            Err(_) => panic!("{name}: truncation to {keep} bytes panicked"),
        }
    }
}

#[test]
fn every_witness_bit_flip_is_a_typed_error() {
    let fx = fixture();
    // The v2 container checksums its sections, so a single flipped bit
    // anywhere — header, payload or the checksum itself — must be caught.
    sweep_bit_flips("wtns", &fx.wtns, |bytes| {
        match read_witness::<Fr>(&mut &bytes[..]) {
            Err(_) => Ok(()),
            Ok(_) => Err("corrupt witness parsed cleanly".into()),
        }
    });
}

#[test]
fn every_vkey_bit_flip_errors_or_fails_verification() {
    let fx = fixture();
    sweep_bit_flips("vkey", &fx.vkey, |bytes| {
        match read_vkey::<Bn254>(&mut &bytes[..]) {
            Err(_) => Ok(()),
            // A clean parse of checksummed corrupt bytes would itself be
            // alarming; the hard line is that it must never *verify*.
            Ok(vk) => match verify::<Bn254>(&vk, &fx.pf, &fx.publics) {
                Ok(true) => Err("corrupt vkey verified the intact proof".into()),
                _ => Ok(()),
            },
        }
    });
}

#[test]
fn every_proof_bit_flip_errors_or_fails_verification() {
    let fx = fixture();
    sweep_bit_flips("proof", &fx.proof, |bytes| {
        match read_proof::<Bn254>(&mut &bytes[..]) {
            Err(_) => Ok(()),
            Ok(pf) => match verify::<Bn254>(&fx.vk, &pf, &fx.publics) {
                Ok(true) => Err("corrupt proof verified under the intact key".into()),
                _ => Ok(()),
            },
        }
    });
}

#[test]
fn every_truncation_is_a_typed_error() {
    let fx = fixture();
    for (name, bytes) in [
        ("wtns", &fx.wtns),
        ("vkey", &fx.vkey),
        ("proof", &fx.proof),
    ] {
        sweep_truncations(name, bytes, |prefix| {
            let failed = match name {
                "wtns" => read_witness::<Fr>(&mut &prefix[..]).is_err(),
                "vkey" => read_vkey::<Bn254>(&mut &prefix[..]).is_err(),
                _ => read_proof::<Bn254>(&mut &prefix[..]).is_err(),
            };
            if failed {
                Ok(())
            } else {
                Err("truncated artifact parsed cleanly".into())
            }
        });
    }
}
