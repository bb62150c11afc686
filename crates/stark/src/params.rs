//! FRI parameters and their `ZKPERF_STARK_*` environment knobs.

use std::fmt;
use std::sync::OnceLock;

/// Degree bound of the final FRI polynomial: folding stops once the
/// claimed degree is `≤ FINAL_POLY_MAX_DEGREE` and the remaining
/// polynomial is sent in the clear.
pub const FINAL_POLY_MAX_DEGREE: usize = 8;

/// The two tunable security/performance levers of the FRI low-degree
/// test.
///
/// Soundness per query is roughly `log2(blowup)` bits (the rate of the
/// Reed-Solomon code), so the proven budget is about
/// `num_queries · log2(blowup)` bits — the defaults (8, 30) target ~90
/// bits against the query phase, in line with the conjectured-soundness
/// settings production STARKs ship. Raising `blowup` grows prover time
/// and shrinks the proof (fewer queries needed for the same budget);
/// raising `num_queries` grows the proof and verify time linearly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StarkParams {
    /// LDE blowup factor (code rate `1/blowup`); a power of two in
    /// `[2, 64]`.
    pub blowup: usize,
    /// Number of FRI query rounds; in `[1, 128]`.
    pub num_queries: usize,
}

impl Default for StarkParams {
    fn default() -> Self {
        StarkParams {
            blowup: 8,
            num_queries: 30,
        }
    }
}

impl fmt::Display for StarkParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blowup={} queries={}", self.blowup, self.num_queries)
    }
}

/// Environment variable overriding [`StarkParams::blowup`].
pub const BLOWUP_ENV: &str = "ZKPERF_STARK_BLOWUP";
/// Environment variable overriding [`StarkParams::num_queries`].
pub const QUERIES_ENV: &str = "ZKPERF_STARK_QUERIES";

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl StarkParams {
    /// The defaults with any `ZKPERF_STARK_BLOWUP` / `ZKPERF_STARK_QUERIES`
    /// overrides applied. Out-of-range or malformed values are clamped to
    /// the documented ranges rather than erroring, so a bad knob degrades
    /// to a sane run instead of killing a sweep. The environment is read
    /// on the first call only; every later call returns the same
    /// parameters.
    pub fn from_env() -> Self {
        static RESOLVED: OnceLock<StarkParams> = OnceLock::new();
        *RESOLVED.get_or_init(|| {
            let mut p = StarkParams::default();
            if let Some(b) = env_usize(BLOWUP_ENV) {
                p.blowup = b.next_power_of_two().clamp(2, 64);
            }
            if let Some(q) = env_usize(QUERIES_ENV) {
                p.num_queries = q.clamp(1, 128);
            }
            p
        })
    }

    /// Approximate conjectured soundness of the query phase, in bits.
    pub fn soundness_bits(&self) -> u32 {
        self.blowup.trailing_zeros() * self.num_queries as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_hit_the_documented_budget() {
        let p = StarkParams::default();
        assert_eq!(p.blowup, 8);
        assert_eq!(p.num_queries, 30);
        assert_eq!(p.soundness_bits(), 90);
    }

    #[test]
    fn env_overrides_clamp() {
        // Direct clamp math (the env read itself is covered by the
        // `scripts/check.sh` stark tier, which sets the knobs).
        assert_eq!(200usize.next_power_of_two().clamp(2, 64), 64);
        assert_eq!(0usize.next_power_of_two().clamp(2, 64), 2);
        assert_eq!(3usize.next_power_of_two().clamp(2, 64), 4);
    }
}
