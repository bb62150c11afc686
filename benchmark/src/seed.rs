//! One splittable generator behind every benchmark input.
//!
//! `--seed` reaches the crates only as generated inputs (an exponentiation
//! base, an `StdRng` for a setup or prove call, probe scalars and points,
//! the serve trace); each consumer takes its own child stream by label, so
//! adding a probe never shifts the inputs of another.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// The root of the input streams of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed(pub u64);

impl Seed {
    /// The child seed for `(label, index)`: FNV-1a over the label folded
    /// into the root, finished with a SplitMix64 round.
    pub fn child(self, label: &str, index: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325 ^ self.0;
        for &b in label.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let mut z = (h ^ index).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A generator on the child stream `(label, index)`.
    pub fn rng(self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.child(label, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_stable_and_distinct() {
        let s = Seed(7);
        assert_eq!(s.child("prove", 3), Seed(7).child("prove", 3));
        assert_ne!(s.child("prove", 3), s.child("prove", 4));
        assert_ne!(s.child("prove", 3), s.child("keygen", 3));
        assert_ne!(s.child("prove", 3), Seed(8).child("prove", 3));
    }
}
