//! Key and proof material produced and consumed by the protocol stages.

use std::mem::size_of;

use zkperf_ec::{Affine, CurveParams, Engine};

/// The verification key (`vk` in the paper's workflow): everything the
/// verifier needs, independent of the witness size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyingKey<E: Engine> {
    /// `[α]₁`.
    pub alpha_g1: Affine<E::G1>,
    /// `[β]₂`.
    pub beta_g2: Affine<E::G2>,
    /// `[γ]₂`.
    pub gamma_g2: Affine<E::G2>,
    /// `[δ]₂`.
    pub delta_g2: Affine<E::G2>,
    /// `[(β·uᵢ(τ) + α·vᵢ(τ) + wᵢ(τ))/γ]₁` for each public wire `i`
    /// (the "input consistency" query).
    pub ic: Vec<Affine<E::G1>>,
}

/// The proving key (`pk` in the paper's workflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvingKey<E: Engine> {
    /// The embedded verification key.
    pub vk: VerifyingKey<E>,
    /// `[β]₁`.
    pub beta_g1: Affine<E::G1>,
    /// `[δ]₁`.
    pub delta_g1: Affine<E::G1>,
    /// `[uᵢ(τ)]₁` for every wire.
    pub a_query: Vec<Affine<E::G1>>,
    /// `[vᵢ(τ)]₁` for every wire.
    pub b_g1_query: Vec<Affine<E::G1>>,
    /// `[vᵢ(τ)]₂` for every wire.
    pub b_g2_query: Vec<Affine<E::G2>>,
    /// `[(β·uᵢ + α·vᵢ + wᵢ)/δ]₁` for the non-public wires.
    pub l_query: Vec<Affine<E::G1>>,
    /// `[τⁱ·z(τ)/δ]₁` for `i = 0..domain_size − 1` (the H query).
    pub h_query: Vec<Affine<E::G1>>,
    /// Domain size used at setup (the prover must use the same).
    pub domain_size: usize,
    /// Number of public wires (`1 + outputs + public inputs`).
    pub num_public_wires: usize,
}

impl<E: Engine> ProvingKey<E> {
    /// Size of the key material in bytes: two base-field coordinates for
    /// every point the key holds, the embedded verification key included —
    /// what a `.zkey` stores, bar its framing and per-point flag bytes.
    pub fn size_bytes(&self) -> usize {
        let g1_points = 3 // α, β, δ
            + self.vk.ic.len()
            + self.a_query.len()
            + self.b_g1_query.len()
            + self.l_query.len()
            + self.h_query.len();
        let g2_points = 3 + self.b_g2_query.len(); // β, γ, δ
        g1_points * 2 * size_of::<<E::G1 as CurveParams>::Base>()
            + g2_points * 2 * size_of::<<E::G2 as CurveParams>::Base>()
    }
}

/// A Groth16 proof: three group elements, constant-size regardless of the
/// circuit (the succinctness the paper's background section highlights).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proof<E: Engine> {
    /// `[A]₁`.
    pub a: Affine<E::G1>,
    /// `[B]₂`.
    pub b: Affine<E::G2>,
    /// `[C]₁`.
    pub c: Affine<E::G1>,
}

impl<E: Engine> Proof<E> {
    /// Serialized size in bytes (uncompressed affine coordinates), for the
    /// "proof size" row of architecture-level comparisons.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.a) + size_of_val(&self.b) + size_of_val(&self.c)
    }
}
