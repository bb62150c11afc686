#![warn(missing_docs)]
#![deny(unsafe_code)]

//! From-scratch finite-field arithmetic for the zkperf suite.
//!
//! Provides the four prime fields and two pairing towers used by the paper's
//! workloads — BN254 (a.k.a. BN128/alt_bn128, circom's default) and
//! BLS12-381 — built on a const-generic Montgomery representation where all
//! derived constants (`R`, `R²`, `−p⁻¹`) are computed from the modulus, plus
//! a small arbitrary-precision integer type used for parsing, display and
//! pairing-exponent computation.
//!
//! Arithmetic is instrumented: every field operation retires a documented
//! micro-op template and reports its operand loads/stores through
//! [`zkperf_trace`], which is what lets the characterization framework
//! measure the protocol stages.
//!
//! # Examples
//!
//! ```
//! use zkperf_ff::{Field, PrimeField, bn254::Fr};
//!
//! let a = Fr::from_u64(6);
//! let b = Fr::from_str_radix("7", 10)?;
//! assert_eq!(a * b, Fr::from_u64(42));
//! # Ok::<(), zkperf_ff::ParseBigIntError>(())
//! ```

pub mod arith;
mod batch;
mod bigint;
pub mod bls12_381;
pub mod bn254;
mod cubic;
mod fp;
mod frob_cache;
pub mod goldilocks;
#[allow(unsafe_code)]
pub mod lanes;
mod quad;
mod tower;
mod traits;

pub use batch::{batch_inverse, batch_inverse_with_scratch};
pub use bigint::{BigUint, ParseBigIntError};
pub use cubic::{CubicExt, CubicExtParams};
pub use fp::{Fp, FpParams};
pub use goldilocks::Goldilocks;
pub use quad::{QuadExt, QuadExtParams};
pub use traits::{Field, Frobenius, PrimeField};

/// A deterministic RNG for tests and reproducible measurement runs.
///
/// Seeded from a fixed constant so experiment outputs are stable across
/// runs; pass any other `rand::Rng` where fresh randomness matters.
pub fn test_rng() -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(0x5eed_cafe_f00d_1234)
}
