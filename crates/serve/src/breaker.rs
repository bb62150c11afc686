//! A per-circuit circuit breaker over submission ticks.
//!
//! Each shape's terminal failures since its last success are counted; at
//! the threshold the breaker runs the Closed → Open → HalfOpen lifecycle.
//! Time is measured in *submission ticks* (one per [`crate::Server::submit`]
//! call), not wall clock, so breaker behaviour is deterministic under
//! replay.

use std::collections::{HashMap, HashSet};

/// What the breaker says about a circuit shape at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Closed: admit normally.
    Allow,
    /// Half-open: admit exactly one probe; its outcome closes or
    /// re-opens the breaker.
    Probe,
    /// Open: reject until the given tick.
    Reject {
        /// Tick at which the breaker half-opens.
        until_tick: u64,
    },
}

/// Tracks failure history per circuit content key.
#[derive(Debug)]
pub struct CircuitBreaker {
    cooldown_ticks: u64,
    threshold: u32,
    /// Terminal failures per key since its last success.
    failures: HashMap<String, u32>,
    open_until: HashMap<String, u64>,
    half_open: HashSet<String>,
}

impl CircuitBreaker {
    /// Opens after `threshold` consecutive terminal failures of a shape;
    /// stays open for `cooldown_ticks` submissions.
    pub fn new(threshold: u32, cooldown_ticks: u64) -> CircuitBreaker {
        CircuitBreaker {
            cooldown_ticks: cooldown_ticks.max(1),
            threshold: threshold.max(1),
            failures: HashMap::new(),
            open_until: HashMap::new(),
            half_open: HashSet::new(),
        }
    }

    /// Admission-time check for `key` at submission tick `tick`.
    pub fn check(&mut self, key: &str, tick: u64) -> BreakerDecision {
        if let Some(&until) = self.open_until.get(key) {
            if tick < until {
                return BreakerDecision::Reject { until_tick: until };
            }
            self.open_until.remove(key);
            self.half_open.insert(key.to_string());
            return BreakerDecision::Probe;
        }
        if self.half_open.contains(key) {
            // A probe is already in flight (or pending); admit it only
            // once — further arrivals wait for the probe's verdict.
            return BreakerDecision::Probe;
        }
        BreakerDecision::Allow
    }

    /// Records a successful completion: closes the breaker and clears the
    /// failure history for `key`.
    pub fn record_success(&mut self, key: &str) {
        self.failures.remove(key);
        self.open_until.remove(key);
        self.half_open.remove(key);
    }

    /// Records a terminal failure at tick `tick`. Returns true when this
    /// opened (or re-opened) the breaker.
    pub fn record_failure(&mut self, key: &str, tick: u64) -> bool {
        let was_half_open = self.half_open.remove(key);
        let failures = self.failures.entry(key.to_string()).or_insert(0);
        *failures += 1;
        let tripped = *failures >= self.threshold;
        if tripped || was_half_open {
            self.open_until
                .insert(key.to_string(), tick + self.cooldown_ticks);
            return true;
        }
        false
    }

    /// Keys currently open or half-open, sorted for stable reporting.
    pub fn open_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .open_until
            .keys()
            .chain(self.half_open.iter())
            .cloned()
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_and_half_opens_after_cooldown() {
        let mut b = CircuitBreaker::new(3, 10);
        assert_eq!(b.check("c", 0), BreakerDecision::Allow);
        assert!(!b.record_failure("c", 0));
        assert!(!b.record_failure("c", 1));
        assert!(b.record_failure("c", 2)); // third strike opens
        assert_eq!(b.check("c", 3), BreakerDecision::Reject { until_tick: 12 });
        assert_eq!(b.check("c", 11), BreakerDecision::Reject { until_tick: 12 });
        assert_eq!(b.check("c", 12), BreakerDecision::Probe);
        // Failed probe re-opens immediately for another full cooldown.
        assert!(b.record_failure("c", 12));
        assert_eq!(b.check("c", 13), BreakerDecision::Reject { until_tick: 22 });
        // Successful probe closes and clears history.
        assert_eq!(b.check("c", 22), BreakerDecision::Probe);
        b.record_success("c");
        assert_eq!(b.check("c", 23), BreakerDecision::Allow);
        assert!(b.open_keys().is_empty());
    }

    #[test]
    fn shapes_fail_independently() {
        let mut b = CircuitBreaker::new(1, 5);
        assert!(b.record_failure("bad", 0));
        assert!(matches!(b.check("bad", 1), BreakerDecision::Reject { .. }));
        assert_eq!(b.check("good", 1), BreakerDecision::Allow);
        assert_eq!(b.open_keys(), vec!["bad".to_string()]);
    }
}
