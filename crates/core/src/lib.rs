#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! The zkperf characterization framework — the paper's primary
//! contribution, reimplemented as a library.
//!
//! Given a zk-SNARK workload (the exponentiation circuit family), this
//! crate runs each protocol stage in isolation under the trace-driven CPU
//! simulator and computes the paper's four analyses:
//!
//! 1. **Top-down microarchitecture analysis** ([`analysis::topdown_rows`],
//!    Fig. 4),
//! 2. **Memory analysis** ([`analysis::load_store_rows`] for Fig. 5,
//!    [`analysis::mpki_table`] for Table II,
//!    [`analysis::bandwidth_table`] for Table III),
//! 3. **Code analysis** ([`analysis::hot_functions`] for Table IV,
//!    [`analysis::opcode_mix`] for Table V),
//! 4. **Scalability analysis** ([`analysis::strong_scaling`] for Fig. 6,
//!    [`analysis::weak_scaling`] for Fig. 7,
//!    [`analysis::parallelism_fit`] for Table VI),
//!
//! plus the §IV-B execution-time breakdown
//! ([`analysis::exec_time_breakdown`]).
//!
//! # Examples
//!
//! ```
//! use zkperf_core::{analysis, measure_cell, Curve, Stage};
//! use zkperf_machine::CpuProfile;
//!
//! let ms = measure_cell(Curve::Bn128, &CpuProfile::i7_8650u(), 64, &Stage::ALL)?;
//! let rows = analysis::topdown_rows(&ms);
//! assert_eq!(rows.len(), 5);
//! # Ok::<(), zkperf_core::StageError>(())
//! ```

pub mod analysis;
pub mod report;
mod backend;
mod graphs;
mod matrix;
mod measure;
pub mod render;
mod stage;
mod workload;

pub use backend::{
    BackendKind, Groth16Backend, KeyLoad, PlonkBackend, ProverBackend, StarkBackend,
};
pub use graphs::stage_task_graph;
pub use matrix::{measure_cell, measure_cell_backend, SweepConfig};
pub use measure::{measure_stage, RegionSummary, StageMeasurement};
pub use stage::{Curve, Stage};
pub use workload::{emit_runtime_init, StageError, Workload};
