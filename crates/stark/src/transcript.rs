//! Fiat-Shamir transcript: a Poseidon duplex sponge over Goldilocks.
//!
//! Prover and verifier drive the identical absorb/challenge schedule, so
//! every challenge is bound to everything absorbed before it. The sponge
//! runs on [`crate::poseidon::permute`], the permutation the Merkle layer
//! hashes with — one hash for the whole backend, and one set of constants
//! to audit (`circuit::poseidon` owns them; the Goldilocks implementation
//! used here is pinned equal to the generic one).

use zkperf_ff::{Field, Goldilocks};

use crate::poseidon::permute;

type F = Goldilocks;

/// A deterministic Fiat-Shamir transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transcript {
    state: [F; 3],
}

impl Transcript {
    /// A fresh transcript domain-separated by `label`.
    pub fn new(label: u64) -> Self {
        Transcript {
            state: permute([F::from_u64(label), F::zero(), F::one()]),
        }
    }

    /// Absorbs one field element into the rate lane.
    pub fn absorb(&mut self, v: F) {
        self.state[0] += v;
        self.state = permute(self.state);
    }

    /// Absorbs a machine word (lengths, parameters).
    pub fn absorb_u64(&mut self, v: u64) {
        self.absorb(F::from_u64(v));
    }

    /// Absorbs a slice, length-prefixed so `[a, b] ++ [c]` and
    /// `[a] ++ [b, c]` diverge.
    pub fn absorb_slice(&mut self, vs: &[F]) {
        self.absorb_u64(vs.len() as u64);
        for v in vs {
            self.absorb(*v);
        }
    }

    /// Squeezes one challenge element.
    pub fn challenge(&mut self) -> F {
        self.state = permute(self.state);
        self.state[0]
    }

    /// Squeezes an index in `[0, bound)`.
    ///
    /// The modulo bias is `< bound / p ≈ 2⁻⁴⁰` for every domain size in
    /// the sweep range — irrelevant next to the query soundness budget.
    pub fn challenge_index(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (self.challenge().as_canonical_u64() % bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_schedules_agree_and_diverge_on_any_absorb() {
        let mut a = Transcript::new(1);
        let mut b = Transcript::new(1);
        a.absorb(F::from_u64(7));
        b.absorb(F::from_u64(7));
        assert_eq!(a.challenge(), b.challenge());
        a.absorb(F::from_u64(8));
        b.absorb(F::from_u64(9));
        assert_ne!(a.challenge(), b.challenge());
    }

    #[test]
    fn labels_domain_separate() {
        let mut a = Transcript::new(1);
        let mut b = Transcript::new(2);
        assert_ne!(a.challenge(), b.challenge());
    }

    #[test]
    fn slice_absorption_is_length_prefixed() {
        let one = F::one();
        let mut a = Transcript::new(3);
        a.absorb_slice(&[one, one]);
        a.absorb_slice(&[one]);
        let mut b = Transcript::new(3);
        b.absorb_slice(&[one]);
        b.absorb_slice(&[one, one]);
        assert_ne!(a.challenge(), b.challenge());
    }

    #[test]
    fn indices_land_in_bounds() {
        let mut t = Transcript::new(4);
        for _ in 0..64 {
            assert!(t.challenge_index(37) < 37);
        }
    }
}
