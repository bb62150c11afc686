//! Out-of-core proving smoke: byte-identity of the chunked pipeline.
//!
//! Runs one circuit through the three legs of the one Groth16 pipeline
//! and demands identical artifacts:
//!
//! 1. resident key, no budget: `setup` + `prove` with one chunk per query,
//! 2. resident key under `ZKPERF_MEM_BUDGET`: the same entry points with
//!    budget-sized chunks (setup's fixed-base passes and every prover MSM
//!    work chunk by chunk), at each requested thread count,
//! 3. key on disk (`setup_streamed` → streamed `.zkey` file →
//!    `prove_streamed`), where the key is never resident in full.
//!
//! The verification key and proof bytes must match across all of them —
//! the acceptance contract of the streaming CRS/MSM pipeline. The run
//! reports the tracking allocator's peak-live bytes per leg and the bytes
//! moved through the chunk transport, so the budget's effect on residency
//! is visible in the same output that proves byte-identity.
//!
//! usage: `stream_smoke [--log2 N] [--budget BYTES[K|M|G]] [--threads A,B,..]
//!         [--dir PATH]`
//!
//! Exit codes: 0 ok (byte-identical), 1 usage/IO error, 2 divergence.

use std::process::ExitCode;
use std::time::Instant;

use zkperf_circuit::library::exponentiate;
use zkperf_ec::Bn254;
use zkperf_ff::{bn254, Field};
use zkperf_groth16::{prove, prove_streamed, setup, setup_streamed};
use zkperf_io::{write_proof, write_vkey, StreamedZkeyReader, StreamedZkeyWriter};
use zkperf_pool::mem;

fn usage() -> ExitCode {
    eprintln!(
        "usage: stream_smoke [--log2 N] [--budget BYTES[K|M|G]] [--threads A,B,..] [--dir PATH]"
    );
    ExitCode::from(1)
}

fn mib(b: u64) -> f64 {
    b as f64 / (1u64 << 20) as f64
}

/// Artifacts and accounting from one setup+prove leg.
struct Leg {
    vk_bytes: Vec<u8>,
    proof_bytes: Vec<u8>,
    peak_live: u64,
    streamed: u64,
    nanos: u64,
}

/// One resident-key setup+prove leg under the ambient budget/threads.
fn run_resident(
    circuit: &zkperf_circuit::Circuit<bn254::Fr>,
    witness: &zkperf_circuit::Witness<bn254::Fr>,
) -> Result<Leg, String> {
    mem::reset_peak();
    let streamed0 = mem::streamed_bytes();
    let start = Instant::now();
    let mut rng = zkperf_ff::test_rng();
    let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).map_err(|e| e.to_string())?;
    let proof =
        prove::<Bn254, _>(&pk, circuit.r1cs(), witness, &mut rng).map_err(|e| e.to_string())?;
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let peak = mem::peak_live_bytes() as u64;
    let streamed = mem::streamed_bytes().saturating_sub(streamed0);
    let mut vk_bytes = Vec::new();
    write_vkey::<Bn254>(&mut vk_bytes, &pk.vk).map_err(|e| e.to_string())?;
    let mut proof_bytes = Vec::new();
    write_proof::<Bn254>(&mut proof_bytes, &proof).map_err(|e| e.to_string())?;
    Ok(Leg { vk_bytes, proof_bytes, peak_live: peak, streamed, nanos })
}

fn main() -> ExitCode {
    let mut log2 = 16u32;
    let mut budget: u64 = 64 << 20;
    let mut threads: Vec<usize> = vec![1];
    let mut dir: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage();
        };
        match args[i].as_str() {
            "--log2" => match value.parse() {
                Ok(v) if (4..=22).contains(&v) => log2 = v,
                _ => return usage(),
            },
            "--budget" => match mem::parse_budget(value) {
                Some(b) => budget = b,
                None => return usage(),
            },
            "--threads" => {
                let parsed: Option<Vec<usize>> =
                    value.split(',').map(|s| s.trim().parse().ok()).collect();
                match parsed {
                    Some(list)
                        if !list.is_empty() && list.iter().all(|&t| (1..=64).contains(&t)) =>
                    {
                        threads = list;
                    }
                    _ => return usage(),
                }
            }
            "--dir" => dir = Some(value.clone()),
            _ => return usage(),
        }
        i += 2;
    }

    let n = 1usize << log2;
    eprintln!(
        "stream_smoke: bn254 2^{log2} constraints, budget {:.1} MiB, threads {threads:?}",
        mib(budget)
    );
    let circuit = exponentiate::<bn254::Fr>(n);
    let witness = match circuit.generate_witness(&[bn254::Fr::from_u64(3)], &[]) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("stream_smoke: witness generation failed: {e}");
            return ExitCode::from(1);
        }
    };

    // Budgeted legs first, so their peak-live numbers aren't inflated by a
    // resident reference key.
    let mut budgeted: Vec<(usize, Leg)> = Vec::new();
    for &t in &threads {
        zkperf_pool::set_threads(t);
        mem::set_budget(Some(budget));
        match run_resident(&circuit, &witness) {
            Ok(leg) => {
                eprintln!(
                    "  budgeted  {t} thread(s): {:.3}s, peak-live {:.1} MiB, streamed {:.1} MiB",
                    leg.nanos as f64 / 1e9,
                    mib(leg.peak_live),
                    mib(leg.streamed)
                );
                budgeted.push((t, leg));
            }
            Err(e) => {
                eprintln!("stream_smoke: budgeted run at {t} thread(s) failed: {e}");
                return ExitCode::from(1);
            }
        }
    }

    // On-disk streamed pipeline at the first thread count: setup writes
    // the chunked .zkey, prove reads it back chunk by chunk.
    zkperf_pool::set_threads(threads[0]);
    mem::set_budget(Some(budget));
    let dir = dir.unwrap_or_else(|| std::env::temp_dir().display().to_string());
    let zkey_path = std::path::Path::new(&dir).join(format!("stream_smoke_2e{log2}.zks"));
    let chunk = zkperf_ec::tuning::stream_chunk_points(
        budget,
        std::mem::size_of::<zkperf_ec::bn254::G1Affine>(),
        std::mem::size_of::<bn254::Fr>(),
    );
    let file_leg = (|| -> Result<(Vec<u8>, Vec<u8>, u64, u64), String> {
        mem::reset_peak();
        let streamed0 = mem::streamed_bytes();
        let mut rng = zkperf_ff::test_rng();
        let mut writer =
            StreamedZkeyWriter::<Bn254>::create(&zkey_path).map_err(|e| e.to_string())?;
        let vk = setup_streamed::<Bn254, _, _>(circuit.r1cs(), &mut rng, chunk, &mut writer)
            .map_err(|e| e.to_string())?;
        let reader = StreamedZkeyReader::<Bn254>::open(&zkey_path).map_err(|e| e.to_string())?;
        let proof = prove_streamed::<Bn254, _, _>(&reader, circuit.r1cs(), &witness, &mut rng)
            .map_err(|e| e.to_string())?;
        let peak = mem::peak_live_bytes() as u64;
        let streamed = mem::streamed_bytes().saturating_sub(streamed0);
        let mut vk_bytes = Vec::new();
        write_vkey::<Bn254>(&mut vk_bytes, &vk).map_err(|e| e.to_string())?;
        let mut proof_bytes = Vec::new();
        write_proof::<Bn254>(&mut proof_bytes, &proof).map_err(|e| e.to_string())?;
        Ok((vk_bytes, proof_bytes, peak, streamed))
    })();
    let _ = std::fs::remove_file(&zkey_path);
    let (file_vk, file_proof, file_peak, file_streamed) = match file_leg {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stream_smoke: streamed-file pipeline failed: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "  streamed file ({} pts/chunk): peak-live {:.1} MiB, streamed {:.1} MiB",
        chunk,
        mib(file_peak),
        mib(file_streamed)
    );

    // Unbudgeted reference (one chunk per query), serial.
    zkperf_pool::set_threads(1);
    mem::set_budget(None);
    let reference = match run_resident(&circuit, &witness) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stream_smoke: unbudgeted reference failed: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "  unbudgeted 1 thread(s): {:.3}s, peak-live {:.1} MiB (the one-chunk working set)",
        reference.nanos as f64 / 1e9,
        mib(reference.peak_live)
    );

    let mut diverged = false;
    for (t, leg) in &budgeted {
        if leg.vk_bytes != reference.vk_bytes {
            eprintln!("stream_smoke: DIVERGENCE: vk bytes differ at {t} thread(s) under budget");
            diverged = true;
        }
        if leg.proof_bytes != reference.proof_bytes {
            eprintln!("stream_smoke: DIVERGENCE: proof bytes differ at {t} thread(s) under budget");
            diverged = true;
        }
    }
    if file_vk != reference.vk_bytes {
        eprintln!("stream_smoke: DIVERGENCE: streamed-file vk bytes differ");
        diverged = true;
    }
    if file_proof != reference.proof_bytes {
        eprintln!("stream_smoke: DIVERGENCE: streamed-file proof bytes differ");
        diverged = true;
    }
    if diverged {
        return ExitCode::from(2);
    }
    println!(
        "stream_smoke: byte-identical across unbudgeted, {} budgeted leg(s), and the \
         streamed-file pipeline (2^{log2}, budget {:.1} MiB, unbudgeted peak {:.1} MiB)",
        budgeted.len(),
        mib(budget),
        mib(reference.peak_live)
    );
    ExitCode::SUCCESS
}
