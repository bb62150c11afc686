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
//!
//! Stage-boundary faults are the job server's (`zkperf-serve`,
//! `ServerConfig::chaos`); `loadgen --chaos SEED` drives them.
//!
//! Every check runs under `catch_unwind`: a single panic anywhere is a
//! violation. Exit status is 0 only when no violations occurred.
//!
//! Usage: `chaos [seed]`, where `seed` is a `u64`. Failing runs print the
//! seed for exact replay.

use std::io::{self, Read, Write};
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
use zkperf_serve::FaultPlan;

/// Corruption rounds per artifact per fault shape.
const ROUNDS: usize = 48;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 0xc4a0_5eed;

/// One concrete fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Flip bit `bit` (0..8) of the byte at `offset`.
    BitFlip { offset: usize, bit: u8 },
    /// Drop every byte past `keep`.
    Truncate { keep: usize },
    /// Reader reports end-of-file after `after` bytes.
    ShortRead { after: usize },
    /// Reader returns an I/O error after `after` bytes.
    FailRead { after: usize },
    /// Writer accepts only `after` bytes, then writes zero-length.
    ShortWrite { after: usize },
    /// Writer returns an I/O error after `after` bytes.
    FailWrite { after: usize },
}

impl FaultKind {
    /// Applies an artifact-shape fault (`BitFlip`/`Truncate`) to a byte
    /// buffer. I/O faults do not modify buffers and are ignored here.
    fn apply(&self, bytes: &mut Vec<u8>) {
        match *self {
            FaultKind::BitFlip { offset, bit } => {
                if let Some(b) = bytes.get_mut(offset) {
                    *b ^= 1 << (bit & 7);
                }
            }
            FaultKind::Truncate { keep } => bytes.truncate(keep),
            _ => {}
        }
    }
}

/// Chooses a single-bit flip somewhere inside a `len`-byte artifact.
fn bit_flip(plan: &mut FaultPlan, len: usize) -> Option<FaultKind> {
    let offset = plan.pick(len)?;
    let bit = plan.pick(8)? as u8;
    Some(FaultKind::BitFlip { offset, bit })
}

/// Chooses a truncation point strictly inside a `len`-byte artifact.
fn truncation(plan: &mut FaultPlan, len: usize) -> Option<FaultKind> {
    Some(FaultKind::Truncate {
        keep: plan.pick(len)?,
    })
}

/// Chooses an I/O fault with a budget somewhere inside `len` bytes.
fn io_fault(plan: &mut FaultPlan, len: usize) -> Option<FaultKind> {
    let after = plan.pick(len.max(1))?;
    Some(match plan.pick(4)? {
        0 => FaultKind::ShortRead { after },
        1 => FaultKind::FailRead { after },
        2 => FaultKind::ShortWrite { after },
        _ => FaultKind::FailWrite { after },
    })
}

/// `Read` layer that stops early or errors after a byte budget.
struct FaultyReader<R> {
    inner: R,
    remaining: usize,
    fail: bool,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner` with the behavior of `fault`; non-read faults make
    /// a transparent wrapper.
    fn new(inner: R, fault: FaultKind) -> Self {
        let (remaining, fail) = match fault {
            FaultKind::ShortRead { after } => (after, false),
            FaultKind::FailRead { after } => (after, true),
            _ => (usize::MAX, false),
        };
        FaultyReader {
            inner,
            remaining,
            fail,
        }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return if self.fail {
                Err(io::Error::other("injected read fault"))
            } else {
                Ok(0)
            };
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }
}

/// `Write` layer that stops early or errors after a byte budget.
struct FaultyWriter<W> {
    inner: W,
    remaining: usize,
    fail: bool,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner` with the behavior of `fault`; non-write faults make
    /// a transparent wrapper.
    fn new(inner: W, fault: FaultKind) -> Self {
        let (remaining, fail) = match fault {
            FaultKind::ShortWrite { after } => (after, false),
            FaultKind::FailWrite { after } => (after, true),
            _ => (usize::MAX, false),
        };
        FaultyWriter {
            inner,
            remaining,
            fail,
        }
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return if self.fail {
                Err(io::Error::other("injected write fault"))
            } else {
                // `write_all` turns a zero-length write into
                // `ErrorKind::WriteZero`, which is exactly the failure
                // we want callers to surface.
                Ok(0)
            };
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.write(&buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

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

fn corruption_pass(seed: u64, artifacts: &Artifacts, tally: &mut Tally) {
    let targets: [(&str, &[u8]); 5] = [
        ("r1cs", &artifacts.r1cs),
        ("wtns", &artifacts.wtns),
        ("zkey", &artifacts.zkey),
        ("vkey", &artifacts.vkey),
        ("proof", &artifacts.proof),
    ];
    for (name, bytes) in targets {
        let mut plan = FaultPlan::from_seed(seed).derive(&format!("corrupt:{name}"));
        for round in 0..ROUNDS {
            let fault = if round % 2 == 0 {
                bit_flip(&mut plan, bytes.len())
            } else {
                truncation(&mut plan, bytes.len())
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

fn io_fault_pass(seed: u64, artifacts: &Artifacts, tally: &mut Tally) {
    let circuit = exponentiate::<Fr>(8);
    let mut plan = FaultPlan::from_seed(seed).derive("io");
    for _ in 0..ROUNDS {
        let Some(fault) = io_fault(&mut plan, artifacts.zkey.len()) else {
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = match args.as_slice() {
        [] => DEFAULT_SEED,
        [raw] => match raw.parse::<u64>() {
            Ok(seed) => seed,
            Err(e) => {
                eprintln!("usage: chaos [seed]  (seed is a u64; {raw:?}: {e})");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: chaos [seed]");
            std::process::exit(2);
        }
    };
    eprintln!("[chaos] seed {seed} (replay with `chaos {seed}`)");

    let artifacts = build_artifacts();
    let mut tally = Tally::default();
    corruption_pass(seed, &artifacts, &mut tally);
    io_fault_pass(seed, &artifacts, &mut tally);

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flip_roundtrips_and_truncate_shrinks() {
        let mut bytes = vec![0u8; 16];
        let fault = FaultKind::BitFlip { offset: 5, bit: 3 };
        fault.apply(&mut bytes);
        assert_eq!(bytes[5], 1 << 3);
        fault.apply(&mut bytes);
        assert!(bytes.iter().all(|&b| b == 0));
        FaultKind::Truncate { keep: 4 }.apply(&mut bytes);
        assert_eq!(bytes.len(), 4);
        // Out-of-range flips are no-ops, not panics.
        FaultKind::BitFlip { offset: 99, bit: 0 }.apply(&mut bytes);
        // The choosers stay inside the artifact and draw nothing from an
        // empty one.
        let mut plan = FaultPlan::from_seed(7);
        for _ in 0..32 {
            match bit_flip(&mut plan, 100) {
                Some(FaultKind::BitFlip { offset, bit }) => assert!(offset < 100 && bit < 8),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(truncation(&mut plan, 0), None);
    }

    #[test]
    fn faulty_reader_stops_or_errors() {
        let data = vec![0xabu8; 64];
        let mut short = FaultyReader::new(data.as_slice(), FaultKind::ShortRead { after: 10 });
        let mut out = Vec::new();
        short.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 10);

        let mut failing = FaultyReader::new(data.as_slice(), FaultKind::FailRead { after: 10 });
        let mut out = Vec::new();
        assert!(failing.read_to_end(&mut out).is_err());
    }

    #[test]
    fn faulty_writer_stops_or_errors() {
        let mut sink = Vec::new();
        let mut short = FaultyWriter::new(&mut sink, FaultKind::ShortWrite { after: 10 });
        let err = short.write_all(&[1u8; 64]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(sink.len(), 10);

        let mut sink = Vec::new();
        let mut failing = FaultyWriter::new(&mut sink, FaultKind::FailWrite { after: 3 });
        assert!(failing.write_all(&[1u8; 64]).is_err());
        assert_eq!(sink.len(), 3);
    }
}
