//! The zkperf command-line driver — a snarkjs-style workflow over files.
//!
//! ```text
//! zkperf compile  <circuit.zkc> <out.r1cs>
//! zkperf setup    <in.r1cs> <out.zkey> <out.vkey>
//! zkperf witness  <circuit.zkc> <out.wtns> [--public v]... [--private v]...
//! zkperf prove    <in.zkey> <in.r1cs> <in.wtns> <out.proof>
//! zkperf verify   <in.vkey> <in.proof> <public values>...
//! zkperf info     <file>
//! ```
//!
//! All commands run on BN254 (the toolchain default, like circom). Values
//! are decimal field elements.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::process::ExitCode;

use zkperf::circuit::lang;
use zkperf::ec::Bn254;
use zkperf::ff::{bn254::Fr, Field, PrimeField};
use zkperf::groth16;
use zkperf::io as zkio;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  zkperf compile  <circuit.zkc> <out.r1cs>\n  zkperf setup    <in.r1cs> <out.zkey> <out.vkey>\n  zkperf witness  <circuit.zkc> <out.wtns> [--public v]... [--private v]...\n  zkperf prove    <in.zkey> <in.r1cs> <in.wtns> <out.proof>\n  zkperf verify   <in.vkey> <in.proof> <public values>...\n  zkperf info     <file>"
    );
    ExitCode::from(2)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["compile", src_path, out] => {
            let source = std::fs::read_to_string(src_path)?;
            let circuit = lang::compile::<Fr>(&source)?;
            let mut w = BufWriter::new(File::create(out)?);
            zkio::write_r1cs(&mut w, circuit.r1cs())?;
            println!(
                "compiled `{}`: {} constraints, {} wires -> {out}",
                circuit.name(),
                circuit.r1cs().num_constraints(),
                circuit.r1cs().num_wires()
            );
        }
        ["setup", r1cs_path, zkey_out, vkey_out] => {
            let r1cs = zkio::read_r1cs::<Fr>(&mut BufReader::new(File::open(r1cs_path)?))?;
            let mut rng = rand::thread_rng();
            let pk = groth16::setup_contributed::<Bn254, _>(&r1cs, &mut rng)?;
            zkio::write_zkey(&mut BufWriter::new(File::create(zkey_out)?), &pk)?;
            zkio::write_vkey(&mut BufWriter::new(File::create(vkey_out)?), &pk.vk)?;
            println!(
                "setup done ({} constraints): {zkey_out}, {vkey_out}",
                r1cs.num_constraints()
            );
        }
        ["witness", src_path, out, rest @ ..] => {
            let source = std::fs::read_to_string(src_path)?;
            let circuit = lang::compile::<Fr>(&source)?;
            let mut public = Vec::new();
            let mut private = Vec::new();
            let mut it = rest.iter();
            while let Some(&flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                let parsed = Fr::from_str_radix(value, 10)?;
                match flag {
                    "--public" => public.push(parsed),
                    "--private" => private.push(parsed),
                    other => return Err(format!("unknown flag {other}").into()),
                }
            }
            let witness = circuit.generate_witness(&public, &private)?;
            zkio::write_witness(&mut BufWriter::new(File::create(out)?), witness.full())?;
            println!(
                "witness with {} wires (public: {:?}) -> {out}",
                witness.full().len(),
                witness
                    .public()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
            );
        }
        ["prove", zkey_path, r1cs_path, wtns_path, out] => {
            let pk = zkio::read_zkey::<Bn254>(&mut BufReader::new(File::open(zkey_path)?))?;
            let r1cs = zkio::read_r1cs::<Fr>(&mut BufReader::new(File::open(r1cs_path)?))?;
            let values = zkio::read_witness::<Fr>(&mut BufReader::new(File::open(wtns_path)?))?;
            // Re-derive the witness wrapper by checking satisfaction.
            r1cs.check_satisfied(&values)
                .map_err(|i| format!("witness violates constraint {i}"))?;
            // groth16::prove consumes a Witness; rebuild one through the
            // circuit-free path by proving over the raw vector.
            let witness = zkperf::circuit::Witness::from_vector(
                values,
                r1cs.num_public_wires(),
            );
            let mut rng = rand::thread_rng();
            let proof = groth16::prove::<Bn254, _>(&pk, &r1cs, &witness, &mut rng)?;
            zkio::write_proof(&mut BufWriter::new(File::create(out)?), &proof)?;
            println!("proof ({} bytes uncompressed) -> {out}", proof.size_bytes());
        }
        ["verify", vkey_path, proof_path, publics @ ..] => {
            let vk = zkio::read_vkey::<Bn254>(&mut BufReader::new(File::open(vkey_path)?))?;
            let proof = zkio::read_proof::<Bn254>(&mut BufReader::new(File::open(proof_path)?))?;
            let mut public = vec![Fr::one()];
            for v in publics {
                public.push(Fr::from_str_radix(v, 10)?);
            }
            let ok = groth16::verify::<Bn254>(&vk, &proof, &public)?;
            println!("{}", if ok { "ACCEPT" } else { "REJECT" });
            if !ok {
                return Err("proof rejected".into());
            }
        }
        ["info", path] => {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let magic: [u8; 4] = bytes
                .get(..4)
                .ok_or("file too short")?
                .try_into()
                .expect("4 bytes");
            let kind = match &magic {
                b"zkr1" => "r1cs constraint system",
                b"zkwt" => "witness vector",
                b"zkpk" => "Groth16 proving key (zkey)",
                b"zkvk" => "Groth16 verification key",
                b"zkpf" => "Groth16 proof",
                _ => "unknown",
            };
            println!(
                "{path}: {kind}, {} bytes, container version {}",
                bytes.len(),
                bytes
                    .get(4..8)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                    .unwrap_or(0)
            );
        }
        _ => {
            std::process::exit(2);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().len() < 2 {
        return usage();
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
