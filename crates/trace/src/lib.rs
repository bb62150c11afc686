#![warn(missing_docs)]

//! Lightweight execution-event tracing for the zkperf suite.
//!
//! Every instrumented crate (fields, curves, polynomials, circuits, Groth16)
//! reports what it does — retired micro-ops by class, memory touches with
//! real addresses, branch outcomes, allocations, bulk copies and function
//! regions — through the free functions in this crate. The events feed two
//! consumers:
//!
//! * an always-on, per-thread [`OpCounts`] aggregate (cheap counters), and
//! * an optional [`EventSink`] installed for a [`Session`], which is how the
//!   `zkperf-machine` microarchitecture simulator observes the execution.
//!
//! When no session is active every entry point is a single thread-local flag
//! check, so instrumentation can stay in release builds.
//!
//! # Examples
//!
//! ```
//! use zkperf_trace as trace;
//!
//! let session = trace::Session::begin();
//! trace::compute(3);
//! let v = vec![1u64, 2, 3];
//! trace::load(v.as_ptr() as usize, 24);
//! let report = session.finish();
//! assert_eq!(report.counts.compute_uops, 3);
//! assert_eq!(report.counts.loads, 1);
//! ```

mod counts;
mod cost;
mod region;
mod sink;
mod tracer;

pub use counts::OpCounts;
pub use cost::OpCost;
pub use region::{function_id, function_name, FunctionId};
pub use sink::{EventSink, NullSink};
pub use tracer::{
    alloc, branch, compute, control, data_move, enter, exit, is_active, load, memcpy,
    region_profile, retired_uops, store, RegionGuard, RegionProfile, Session, SessionReport,
};

/// Classes of retired micro-operations, mirroring the paper's code analysis
/// split into compute, control-flow, and data-flow instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Arithmetic/logic operations (`add`, `mul`, `and`, ...).
    Compute,
    /// Operations that alter control flow (`jz`, `jnb`, `call`, ...).
    Control,
    /// Data-movement operations (`mov`, `push`, loads and stores, ...).
    Data,
}

impl OpClass {
    /// All classes, in display order.
    pub const ALL: [OpClass; 3] = [OpClass::Compute, OpClass::Control, OpClass::Data];
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpClass::Compute => "compute",
            OpClass::Control => "control",
            OpClass::Data => "data",
        };
        f.write_str(s)
    }
}
