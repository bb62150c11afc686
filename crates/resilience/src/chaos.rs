//! The `ZKPERF_CHAOS` environment knob.
//!
//! * unset, empty, `0`, or `off` — chaos disabled (the default).
//! * a decimal `u64` — chaos armed with that seed.
//! * any other string — chaos armed with a seed hashed from the string.
//!
//! When armed, pipeline components that opt in (`Workload::run_stage`,
//! the job server, the `chaos` binary) derive per-target [`FaultPlan`]s
//! from the seed and inject faults at stage boundaries. Everything stays deterministic:
//! the same seed injects the same faults.

use crate::fault::FaultPlan;

/// Parsed state of the `ZKPERF_CHAOS` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// No fault injection.
    Off,
    /// Fault injection armed with this seed.
    Seeded(u64),
}

impl ChaosMode {
    /// Parses a raw knob value (see module docs for the grammar).
    pub fn parse(raw: &str) -> ChaosMode {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed == "0" || trimmed.eq_ignore_ascii_case("off") {
            return ChaosMode::Off;
        }
        if let Ok(seed) = trimmed.parse::<u64>() {
            return ChaosMode::Seeded(seed);
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in trimmed.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        ChaosMode::Seeded(h | 1)
    }

    /// The plan for a named injection target, or `None` when off.
    pub fn plan_for(&self, label: &str) -> Option<FaultPlan> {
        match *self {
            ChaosMode::Off => None,
            ChaosMode::Seeded(seed) => Some(FaultPlan::from_seed(seed).derive(label)),
        }
    }

    /// Whether injection is armed.
    pub fn is_armed(&self) -> bool {
        matches!(self, ChaosMode::Seeded(_))
    }
}

/// Reads `ZKPERF_CHAOS` from the environment.
///
/// Read fresh on each call (it is cheap), so tests can set and unset the
/// knob without process-global caching surprises.
pub fn chaos_mode() -> ChaosMode {
    match std::env::var("ZKPERF_CHAOS") {
        Ok(raw) => ChaosMode::parse(&raw),
        Err(_) => ChaosMode::Off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar() {
        assert_eq!(ChaosMode::parse(""), ChaosMode::Off);
        assert_eq!(ChaosMode::parse("  "), ChaosMode::Off);
        assert_eq!(ChaosMode::parse("0"), ChaosMode::Off);
        assert_eq!(ChaosMode::parse("off"), ChaosMode::Off);
        assert_eq!(ChaosMode::parse("OFF"), ChaosMode::Off);
        assert_eq!(ChaosMode::parse("17"), ChaosMode::Seeded(17));
        assert!(ChaosMode::parse("banana").is_armed());
        assert_eq!(ChaosMode::parse("banana"), ChaosMode::parse("banana"));
        assert_ne!(ChaosMode::parse("banana"), ChaosMode::parse("mango"));
    }

    #[test]
    fn plans_are_per_label() {
        let mode = ChaosMode::Seeded(99);
        let mut a = mode.plan_for("proof").unwrap();
        let mut b = mode.plan_for("vkey").unwrap();
        assert_ne!(
            (0..4).map(|_| a.pick(1 << 20)).collect::<Vec<_>>(),
            (0..4).map(|_| b.pick(1 << 20)).collect::<Vec<_>>()
        );
        assert!(ChaosMode::Off.plan_for("proof").is_none());
    }
}
