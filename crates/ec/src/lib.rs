#![warn(missing_docs)]

//! Elliptic-curve groups, multi-scalar multiplication and optimal-ate
//! pairings for BN254 and BLS12-381, built from scratch on `zkperf-ff`.
//!
//! The crate provides:
//!
//! * generic short-Weierstrass [`curve::Affine`] / [`curve::Projective`]
//!   groups in Jacobian coordinates,
//! * Pippenger [`msm`] (the dominant kernel of Groth16 setup and proving),
//! * shared-scalar [`scale_points`] (the re-scaling sweep of a ceremony
//!   contribution),
//! * Miller loops and final exponentiation for both curves, and
//! * the [`Engine`] trait tying a curve suite together for `zkperf-groth16`.
//!
//! # Examples
//!
//! ```
//! use zkperf_ec::bn254::{pairing, G1Affine, G2Affine};
//! use zkperf_ff::Field;
//!
//! let e = pairing(&G1Affine::generator(), &G2Affine::generator());
//! assert!(!e.is_one());
//! ```

pub mod batch_add;
pub mod bls12_381;
pub mod bn254;
pub mod curve;
mod engine;
mod fixed_base;
pub mod glv;
mod msm;
pub mod pairing_fast;
mod scale;
pub mod tuning;

/// Serializes tests that toggle the global pool thread count, so the
/// serial and parallel legs of a comparison run at the thread count they
/// intend to exercise.
#[cfg(test)]
pub(crate) static TEST_POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

pub use batch_add::BatchAdder;
pub use curve::{Affine, CurveParams, Projective};
pub use engine::{Bls12_381, Bn254, Engine};
pub use fixed_base::FixedBaseTable;
pub use glv::{DecomposedScalar, GlvParams, SignedHalf};
pub use msm::{msm, msm_naive, msm_stream};
pub use pairing_fast::{fast_pairing_enabled, G2Prepared, TwistType};
pub use scale::{scale_points, SCALE_CHUNK};
