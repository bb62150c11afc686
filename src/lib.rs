//! # zkperf
//!
//! A from-scratch Rust reproduction of *"Performance Analysis of
//! Zero-Knowledge Proofs"* (IISWC 2024): a complete zk-SNARK stack (fields,
//! curves, pairings, R1CS, Groth16) instrumented for microarchitectural
//! characterization, plus the measurement framework that regenerates every
//! table and figure of the paper on a simulated-CPU substrate.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`ff`] — prime fields, extension towers, big integers;
//! * [`ec`] — BN254/BLS12-381 groups, MSM, pairings;
//! * [`poly`] — NTT domains and dense polynomials;
//! * [`circuit`] — circuit DSL, circom-like language, R1CS, witness solver;
//! * [`groth16`] — setup / prove / verify (plus ceremony contributions);
//! * [`plonk`] — the PlonK comparison scheme on KZG commitments;
//! * [`stark`] — the transparent FRI/STARK backend over Goldilocks;
//! * [`io`] — `.r1cs`/`.wtns`/`.zkey`-style binary file formats;
//! * [`pool`] — the deterministic work-stealing thread pool;
//! * [`trace`] — the event-tracing layer;
//! * [`machine`] — the trace-driven CPU simulator;
//! * [`scale`] — simulated-multicore scaling and Amdahl/Gustafson fits;
//! * [`core`] — the characterization framework (the paper's contribution);
//! * [`serve`] — the fault-tolerant proving-as-a-service daemon and its
//!   seeded stage-boundary fault injector.
//!
//! # Quickstart
//!
//! ```
//! use zkperf::circuit::library::exponentiate;
//! use zkperf::ec::Bn254;
//! use zkperf::ff::{bn254::Fr, Field};
//! use zkperf::groth16::{prove, setup, verify};
//!
//! let circuit = exponentiate::<Fr>(8);
//! let mut rng = zkperf::ff::test_rng();
//! let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng)?;
//! let witness = circuit.generate_witness(&[Fr::from_u64(3)], &[])?;
//! let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &witness, &mut rng)?;
//! assert!(verify::<Bn254>(&pk.vk, &proof, witness.public())?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use zkperf_circuit as circuit;
pub use zkperf_core as core;
pub use zkperf_ec as ec;
pub use zkperf_ff as ff;
pub use zkperf_groth16 as groth16;
pub use zkperf_io as io;
pub use zkperf_machine as machine;
pub use zkperf_plonk as plonk;
pub use zkperf_poly as poly;
pub use zkperf_pool as pool;
pub use zkperf_scale as scale;
pub use zkperf_serve as serve;
pub use zkperf_stark as stark;
pub use zkperf_trace as trace;
