//! The backoff schedule of [`crate::Server`]'s retry loop.

use std::time::Duration;

/// How often, and how far apart, a job is re-run after a failure that the
/// next attempt can change (an injected fault, an artifact-cache read or
/// write; see DESIGN §13).
///
/// The sleep before attempt `n > 1` is the capped exponential
/// `min(base_backoff · 2^(n-2), max_backoff)` scaled by a deterministic
/// jitter factor drawn from `(jitter_seed, n)`: with `jitter = j`, the
/// factor lies in `[1 - j, 1)`. Jitter decorrelates retry storms when many
/// workers hit the same transient fault, while staying a pure function of
/// the seed so any schedule can be replayed exactly.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Base of the exponential backoff curve.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep (before jitter scaling).
    pub max_backoff: Duration,
    /// Fraction of each backoff randomized, clamped to `0.0..=1.0`.
    /// `0.0` reproduces the pure capped exponential.
    pub jitter: f64,
    /// Seed of the jitter stream; the whole schedule is a pure function
    /// of `(jitter_seed, attempt)`.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The sleep inserted before attempt `attempt` (1-based; zero before
    /// the first attempt). Deterministic: equal `(policy, attempt)` pairs
    /// always produce equal sleeps.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 2).min(16);
        let capped = (self.base_backoff * factor).min(self.max_backoff);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 || capped.is_zero() {
            return capped;
        }
        // splitmix64 of (seed, attempt): a uniform draw in [0, 1).
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 - jitter + jitter * unit;
        Duration::from_nanos((capped.as_nanos() as f64 * scale) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(jitter: f64, jitter_seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter,
            jitter_seed,
        }
    }

    fn schedule(p: &RetryPolicy) -> Vec<Duration> {
        (1..=p.max_attempts).map(|a| p.backoff_before(a)).collect()
    }

    #[test]
    fn backoff_is_deterministic_under_a_fixed_seed() {
        assert_eq!(schedule(&policy(0.5, 42)), schedule(&policy(0.5, 42)));
        // A different seed produces a different (but equally fixed) schedule.
        assert_ne!(schedule(&policy(0.5, 42)), schedule(&policy(0.5, 43)));
    }

    #[test]
    fn backoff_grows_exponentially_and_respects_the_cap() {
        let s = schedule(&policy(0.0, 0));
        let ms = Duration::from_millis;
        assert_eq!(s[..5], [Duration::ZERO, ms(10), ms(20), ms(40), ms(80)]);
        // Capped from attempt 6 on.
        assert!(s[5..].iter().all(|&d| d == ms(100)));
    }

    #[test]
    fn jitter_stays_inside_its_band() {
        for seed in 0..64u64 {
            let p = policy(0.5, seed);
            for attempt in 2..=8u32 {
                let pure = (p.base_backoff * (1u32 << (attempt - 2))).min(p.max_backoff);
                let jittered = p.backoff_before(attempt);
                assert!(jittered < pure, "jitter must shorten, not extend");
                assert!(
                    jittered.as_secs_f64() >= pure.as_secs_f64() * 0.5 - 1e-9,
                    "seed {seed} attempt {attempt}: below the jitter band"
                );
            }
        }
    }

    #[test]
    fn out_of_range_jitter_is_clamped_not_panicking() {
        let mut p = policy(7.5, 7);
        assert!(p.backoff_before(2) <= p.max_backoff);
        p.jitter = -1.0;
        assert_eq!(p.backoff_before(2), Duration::from_millis(10));
    }
}
