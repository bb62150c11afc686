#![warn(missing_docs)]

//! Polynomial arithmetic for the zkperf suite: NTT evaluation domains of
//! order `2^k` or `3·2^k` and dense univariate polynomials over the scalar
//! fields.
//!
//! Groth16 uses these to move between coefficient and evaluation form when
//! computing the quotient polynomial `h(x) = (a(x)·b(x) − c(x))/z(x)`, on
//! a domain of order `2^k`; PLONK takes the least order of either form
//! that holds its rows. One transform body and one layout serve both forms
//! at every size (a radix-3 layer in front of the radix-2 passes on
//! `3·2^k` points), opened by a digit reversal that is cache-tiled on
//! `2^k` points.
//!
//! The body stays generic over the field: where `PrimeField::lanes` hands
//! out an eight-lane kernel (BN254 and BLS12-381 `Fr` on a host with
//! AVX-512 IFMA, `zkperf_ff::lanes`), the radix-3 layer, every radix-2
//! pass, the coset shifts and the `1/n` scaling run eight elements per
//! step, with the scalar body's results; every other field, and every host
//! without the instructions, runs the scalar body.
//!
//! # Examples
//!
//! ```
//! use zkperf_poly::{DensePolynomial, Radix2Domain};
//! use zkperf_ff::{Field, bn254::Fr};
//!
//! let domain = Radix2Domain::<Fr>::new(8).unwrap();
//! let evals: Vec<Fr> = (0..8).map(Fr::from_u64).collect();
//! let p = DensePolynomial::interpolate(&domain, &evals);
//! assert_eq!(p.evaluate(domain.element(3)), Fr::from_u64(3));
//! ```

mod dense;
mod domain;

pub use dense::DensePolynomial;
pub use domain::{root_of_unity, Radix2Domain};
