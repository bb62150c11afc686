//! Deterministic fault planning.
//!
//! A [`FaultPlan`] is a seeded stream of fault choices: every decision it
//! makes is a pure function of the seed, so a failing chaos run can be
//! replayed exactly by re-running with the printed seed. The server draws
//! its stage-boundary faults from it ([`ServerConfig::chaos`]); the `chaos`
//! binary draws its artifact and I/O faults from it.
//!
//! [`ServerConfig::chaos`]: crate::ServerConfig::chaos

/// Seeded source of fault decisions (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    state: u64,
}

impl FaultPlan {
    /// Builds a plan whose entire decision stream is determined by
    /// `seed`.
    pub fn from_seed(seed: u64) -> Self {
        FaultPlan { seed, state: seed }
    }

    /// Derives an independent plan for a named target, so corrupting
    /// "proof" and "vkey" artifacts under one seed uses uncorrelated
    /// streams.
    pub fn derive(&self, label: &str) -> FaultPlan {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        FaultPlan::from_seed(h)
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Draws a value in `0..bound` (`None` when `bound` is zero).
    pub fn pick(&mut self, bound: usize) -> Option<usize> {
        if bound == 0 {
            None
        } else {
            Some((self.next() % bound as u64) as usize)
        }
    }

    /// Returns true with probability `num / den` (used for sparse
    /// stage-boundary injection).
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        den != 0 && self.next() % den < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(plan: &mut FaultPlan) -> Vec<Option<usize>> {
        (0..32).map(|_| plan.pick(1 << 20)).collect()
    }

    #[test]
    fn plans_are_deterministic_and_derived_streams_differ() {
        assert_eq!(
            draws(&mut FaultPlan::from_seed(7)),
            draws(&mut FaultPlan::from_seed(7))
        );
        let root = FaultPlan::from_seed(7);
        assert_ne!(
            draws(&mut root.derive("proof")),
            draws(&mut root.derive("vkey"))
        );
        // Empty ranges draw nothing rather than dividing by zero.
        let mut plan = FaultPlan::from_seed(7);
        assert_eq!(plan.pick(0), None);
        assert!(!plan.chance(1, 0));
    }

    #[test]
    fn plans_are_per_label() {
        // A derived plan depends on the seed and the label, and on nothing
        // else: the server re-derives it at every stage boundary.
        let label = "serve:1:1:compile";
        assert_eq!(
            draws(&mut FaultPlan::from_seed(99).derive(label)),
            draws(&mut FaultPlan::from_seed(99).derive(label))
        );
        assert_ne!(
            draws(&mut FaultPlan::from_seed(99).derive(label)),
            draws(&mut FaultPlan::from_seed(98).derive(label))
        );
    }
}
