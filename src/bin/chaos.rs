//! `chaos` — the zkperf fault-injection suite.
//!
//! Builds a small Groth16 pipeline, serializes every artifact
//! (`.r1cs`/`.wtns`/`.zkey`/`.vkey`/`.proof`), then attacks the suite with
//! a deterministic, seeded fault plan:
//!
//! 1. **Artifact corruption** — seeded bit flips and truncations of every
//!    artifact, fed back through the readers. Each corrupted read must
//!    surface a typed [`FormatError`](zkperf_io::FormatError); with the
//!    v2 checksummed containers a corrupt artifact that parses cleanly is
//!    a violation, and a passing verification of corrupt data doubly so.
//! 2. **Faulty I/O layers** — writers that short-write or error mid-file
//!    and readers that stop early, wrapped around every codec path.
//! 3. **Stage-boundary faults** — pipelines run with `ZKPERF_CHAOS` armed,
//!    so stage boundaries trip `StageError::Injected`; every pipeline must
//!    either verify or stop at such a fault, never with another error.
//!
//! Every check runs under `catch_unwind`: a single panic anywhere is a
//! violation. Exit status is 0 only when no violations occurred.
//!
//! Usage: `chaos [seed]`, or set `ZKPERF_CHAOS` (any non-off value arms
//! the same seed grammar). Failing runs print the seed for exact replay.

use std::panic::{self, AssertUnwindSafe};

use rand::SeedableRng;
use zkperf_circuit::library::exponentiate;
use zkperf_ec::Bn254;
use zkperf_ff::bn254::Fr;
use zkperf_ff::Field;
use zkperf_groth16::{prove, setup_contributed, verify};
use zkperf_io::{
    read_proof, read_r1cs, read_vkey, read_witness, read_zkey, write_proof, write_r1cs,
    write_vkey, write_witness, write_zkey,
};
use zkperf_resilience::{ChaosMode, FaultKind, FaultyReader, FaultyWriter};

/// Corruption rounds per artifact per fault shape.
const ROUNDS: usize = 48;

#[derive(Default)]
struct Tally {
    checks: u64,
    faults: u64,
    violations: u64,
}

impl Tally {
    /// Runs one fault check, counting a panic or an `Err(description)`
    /// as a violation.
    fn check(&mut self, what: &str, f: impl FnOnce() -> Result<(), String>) {
        self.checks += 1;
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(())) => {}
            Ok(Err(why)) => {
                self.violations += 1;
                eprintln!("[chaos] VIOLATION ({what}): {why}");
            }
            Err(_) => {
                self.violations += 1;
                eprintln!("[chaos] VIOLATION ({what}): panicked");
            }
        }
    }
}

struct Artifacts {
    r1cs: Vec<u8>,
    wtns: Vec<u8>,
    zkey: Vec<u8>,
    vkey: Vec<u8>,
    proof: Vec<u8>,
}

fn build_artifacts() -> Artifacts {
    let circuit = exponentiate::<Fr>(8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc4a0_5eed);
    let pk = setup_contributed::<Bn254, _>(circuit.r1cs(), &mut rng).expect("chaos setup");
    let witness = circuit
        .generate_witness(&[Fr::from_u64(3)], &[])
        .expect("chaos witness");
    let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &witness, &mut rng).expect("chaos proof");
    assert!(
        verify::<Bn254>(&pk.vk, &proof, witness.public()).expect("chaos verify"),
        "the uncorrupted pipeline must verify"
    );

    let mut a = Artifacts {
        r1cs: Vec::new(),
        wtns: Vec::new(),
        zkey: Vec::new(),
        vkey: Vec::new(),
        proof: Vec::new(),
    };
    write_r1cs(&mut a.r1cs, circuit.r1cs()).expect("encode r1cs");
    write_witness(&mut a.wtns, witness.full()).expect("encode witness");
    write_zkey::<Bn254>(&mut a.zkey, &pk).expect("encode zkey");
    write_vkey::<Bn254>(&mut a.vkey, &pk.vk).expect("encode vkey");
    write_proof::<Bn254>(&mut a.proof, &proof).expect("encode proof");
    a
}

/// Whether corrupted `bytes` of artifact `name` are handled safely:
/// a typed read error passes; a clean parse of corrupt checksummed bytes
/// fails the check (and is where a passing verification would surface).
fn read_corrupt(name: &str, bytes: &[u8], artifacts: &Artifacts) -> Result<(), String> {
    let parsed_cleanly = match name {
        "r1cs" => read_r1cs::<Fr>(&mut &bytes[..]).is_ok(),
        "wtns" => read_witness::<Fr>(&mut &bytes[..]).is_ok(),
        "zkey" => read_zkey::<Bn254>(&mut &bytes[..]).is_ok(),
        "vkey" => {
            // If both vkey and proof somehow still parse, verification of
            // the untouched proof under a corrupted key must not pass.
            match (
                read_vkey::<Bn254>(&mut &bytes[..]),
                read_proof::<Bn254>(&mut &artifacts.proof[..]),
            ) {
                (Ok(vk), Ok(proof)) => {
                    let circuit = exponentiate::<Fr>(8);
                    let w = circuit
                        .generate_witness(&[Fr::from_u64(3)], &[])
                        .map_err(|e| format!("witness rebuild failed: {e}"))?;
                    if verify::<Bn254>(&vk, &proof, w.public()) == Ok(true) {
                        return Err("corrupt vkey accepted a proof".into());
                    }
                    true
                }
                _ => false,
            }
        }
        "proof" => {
            match (
                read_proof::<Bn254>(&mut &bytes[..]),
                read_vkey::<Bn254>(&mut &artifacts.vkey[..]),
            ) {
                (Ok(proof), Ok(vk)) => {
                    let circuit = exponentiate::<Fr>(8);
                    let w = circuit
                        .generate_witness(&[Fr::from_u64(3)], &[])
                        .map_err(|e| format!("witness rebuild failed: {e}"))?;
                    if verify::<Bn254>(&vk, &proof, w.public()) == Ok(true) {
                        return Err("corrupt proof verified".into());
                    }
                    true
                }
                _ => false,
            }
        }
        other => return Err(format!("unknown artifact {other}")),
    };
    if parsed_cleanly {
        return Err(format!(
            "corrupt {name} parsed cleanly despite per-section checksums"
        ));
    }
    Ok(())
}

fn corruption_pass(mode: ChaosMode, artifacts: &Artifacts, tally: &mut Tally) {
    let targets: [(&str, &[u8]); 5] = [
        ("r1cs", &artifacts.r1cs),
        ("wtns", &artifacts.wtns),
        ("zkey", &artifacts.zkey),
        ("vkey", &artifacts.vkey),
        ("proof", &artifacts.proof),
    ];
    for (name, bytes) in targets {
        let Some(mut plan) = mode.plan_for(&format!("corrupt:{name}")) else {
            return;
        };
        for round in 0..ROUNDS {
            let fault = if round % 2 == 0 {
                plan.bit_flip(bytes.len())
            } else {
                plan.truncation(bytes.len())
            };
            let Some(fault) = fault else { continue };
            let mut corrupt = bytes.to_vec();
            fault.apply(&mut corrupt);
            if corrupt == *bytes {
                continue; // e.g. truncation at full length
            }
            tally.faults += 1;
            tally.check(&format!("{name} {fault:?}"), || {
                read_corrupt(name, &corrupt, artifacts)
            });
        }
    }
}

fn io_fault_pass(mode: ChaosMode, artifacts: &Artifacts, tally: &mut Tally) {
    let circuit = exponentiate::<Fr>(8);
    let Some(mut plan) = mode.plan_for("io") else {
        return;
    };
    for _ in 0..ROUNDS {
        let Some(fault) = plan.io_fault(artifacts.zkey.len()) else {
            continue;
        };
        tally.faults += 1;
        match fault {
            FaultKind::ShortWrite { after } | FaultKind::FailWrite { after } => {
                tally.check(&format!("write under {fault:?}"), || {
                    let mut sink = FaultyWriter::new(Vec::new(), fault);
                    match write_r1cs(&mut sink, circuit.r1cs()) {
                        Err(_) => Ok(()), // typed error: contained
                        // A budget at least the encoding's size never
                        // interrupts anything; success is legitimate.
                        Ok(()) if after >= artifacts.r1cs.len() => Ok(()),
                        Ok(()) => Err("interrupted write reported success".into()),
                    }
                });
            }
            _ => {
                tally.check(&format!("read under {fault:?}"), || {
                    let mut src = FaultyReader::new(&artifacts.zkey[..], fault);
                    match read_zkey::<Bn254>(&mut src) {
                        Err(_) => Ok(()),
                        // A short read that still yields a full key means
                        // the budget exceeded the file; that is fine.
                        Ok(_) => Ok(()),
                    }
                });
            }
        }
    }
}

fn stage_boundary_pass(tally: &mut Tally) {
    use zkperf_core::{Groth16Backend, Stage, StageError, Workload};
    let mut injected = 0u64;
    for log in 2..=5u32 {
        tally.check(&format!("pipeline:2^{log}"), || {
            let mut w = Workload::<Groth16Backend<Bn254>>::exponentiate(1 << log);
            for stage in Stage::ALL {
                match w.run_stage(stage) {
                    Ok(()) => {}
                    // Injected stage faults are the expected failure mode.
                    Err(StageError::Injected { .. }) => {
                        injected += 1;
                        return Ok(());
                    }
                    Err(e) => return Err(format!("unexpected error: {e}")),
                }
            }
            match w.verified() {
                Some(true) => Ok(()),
                _ => Err("clean pipeline failed to verify".into()),
            }
        });
    }
    tally.faults += injected;
    eprintln!("[chaos] stage boundaries: {injected} injected fault(s) contained");
}

fn main() {
    let seed_arg = std::env::args().nth(1);
    let mode = match (&seed_arg, std::env::var("ZKPERF_CHAOS")) {
        (Some(raw), _) => ChaosMode::parse(raw),
        (None, Ok(raw)) => ChaosMode::parse(&raw),
        (None, Err(_)) => ChaosMode::Seeded(0xc4a0_5eed),
    };
    let seed = match mode {
        ChaosMode::Seeded(seed) => seed,
        ChaosMode::Off => {
            eprintln!("[chaos] knob parsed to 'off'; defaulting to seed 1");
            1
        }
    };
    let mode = ChaosMode::Seeded(seed);
    eprintln!("[chaos] seed {seed} (replay with `chaos {seed}`)");

    // Built with the knob disarmed: the uncorrupted pipeline must verify.
    std::env::remove_var("ZKPERF_CHAOS");
    let artifacts = build_artifacts();

    let mut tally = Tally::default();
    corruption_pass(mode, &artifacts, &mut tally);
    io_fault_pass(mode, &artifacts, &mut tally);
    // Arm the knob for the in-process stage boundaries, whatever spelling
    // the seed arrived in.
    std::env::set_var("ZKPERF_CHAOS", seed.to_string());
    stage_boundary_pass(&mut tally);
    std::env::remove_var("ZKPERF_CHAOS");

    eprintln!(
        "[chaos] {} checks, {} faults injected, {} violation(s)",
        tally.checks, tally.faults, tally.violations
    );
    if tally.violations > 0 {
        eprintln!("[chaos] FAIL: replay with `chaos {seed}`");
        std::process::exit(1);
    }
    eprintln!("[chaos] OK: every fault surfaced as a typed error or failed verification");
}
