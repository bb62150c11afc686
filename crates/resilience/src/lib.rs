//! Fault injection for the zkperf pipeline.
//!
//! Two pieces live here:
//!
//! * [`fault`] — a deterministic, seeded [`fault::FaultPlan`] describing
//!   artifact corruptions (bit flips, truncations) and I/O faults
//!   (short or failing reads/writes), plus wrapping [`std::io::Read`] /
//!   [`std::io::Write`] layers that inject them.
//! * [`chaos`] — the `ZKPERF_CHAOS` environment knob that arms
//!   stage-boundary fault injection in the pipeline itself.
//!
//! What a caller does about an injected fault is its own business: the job
//! server retries it (`zkperf-serve`'s `RetryPolicy`), the sweep driver
//! logs the cell and moves on, the `chaos` binary counts it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod fault;

pub use chaos::{chaos_mode, ChaosMode};
pub use fault::{FaultKind, FaultPlan, FaultyReader, FaultyWriter};
